#include "common/telemetry/histogram.hh"

#include <algorithm>
#include <cmath>

namespace prime::telemetry {

Histogram::Histogram() : buckets_(kBucketCount, 0)
{
}

double
Histogram::bucketLowerBound(int index)
{
    if (index <= 0)
        return 0.0;
    const int b = index - 1;
    const int exp = kMinExp + b / kSubBuckets;
    const int sub = b % kSubBuckets;
    return std::ldexp(0.5 + sub / (2.0 * kSubBuckets), exp);
}

double
Histogram::bucketUpperBound(int index)
{
    if (index <= 0)
        return std::ldexp(0.5, kMinExp);  // smallest representable value
    return bucketLowerBound(index + 1);
}

void
Histogram::merge(const Histogram &other)
{
    if (other.count_ == 0)
        return;
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

double
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    // Explicit comparisons instead of std::clamp: NaN passes through
    // clamp unchanged (its comparisons are all false) and would reach
    // the uint64 cast below as undefined behavior.  !(q > 0) routes
    // NaN, zero and negatives to the minimum rank.
    if (!(q > 0.0))
        q = 0.0;
    else if (q > 1.0)
        q = 1.0;
    // Nearest-rank: the value below which at least ceil(q * count)
    // samples fall.
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * count_)));
    // The first and last ranks are the exact extrema; skip the bucket
    // approximation (p0 = min, p100 = max).
    if (rank <= 1)
        return min_;
    if (rank >= count_)
        return max_;
    std::uint64_t cum = 0;
    for (int i = 0; i < kBucketCount; ++i) {
        cum += buckets_[static_cast<std::size_t>(i)];
        if (cum >= rank) {
            const double mid =
                0.5 * (bucketLowerBound(i) + bucketUpperBound(i));
            return std::clamp(mid, min_, max_);
        }
    }
    return max_;
}

} // namespace prime::telemetry
