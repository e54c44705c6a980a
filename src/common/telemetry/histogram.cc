#include "common/telemetry/histogram.hh"

#include <algorithm>
#include <bit>
#include <cmath>

namespace prime::telemetry {

Histogram::Histogram() : buckets_(kBucketCount, 0)
{
}

int
Histogram::bucketIndex(double value)
{
    // NaN, zero and negatives go to the underflow bucket.
    if (!(value > 0.0))
        return 0;
    // Read the IEEE-754 fields instead of calling frexp: value =
    // 1.m * 2^(e - 1023), i.e. frexp's fraction 0.5 * 1.m with exponent
    // e - 1022, whose sub-bucket (frac - 0.5) * 2 * kSubBuckets is the
    // top three mantissa bits.  Denormals (e = 0) sit far below kMinExp;
    // +inf (e = 2047) lands in the top bucket.
    static_assert(kSubBuckets == 8, "sub-bucket = top 3 mantissa bits");
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
    const int exp = static_cast<int>(bits >> 52) - 1022;
    if (exp < kMinExp)
        return 0;
    // The buckets cover exponents kMinExp .. kMaxExp - 1.
    if (exp >= kMaxExp)
        return kBucketCount - 1;
    const int sub = static_cast<int>((bits >> 49) & 7u);
    return 1 + (exp - kMinExp) * kSubBuckets + sub;
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
Histogram::sample(double value)
{
    buckets_[static_cast<std::size_t>(bucketIndex(value))] += 1;
    sum_ += value;
    count_ += 1;
    if (count_ == 1) {
        min_ = max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
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
