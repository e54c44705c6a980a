/**
 * @file
 * Log-bucketed latency/value histogram for the stats package.
 *
 * Buckets are spaced logarithmically: each power-of-two decade is split
 * into kSubBuckets linear sub-buckets, bounding the relative error of a
 * reported quantile by 1/kSubBuckets (12.5%) while keeping the bucket
 * array small and the sample path cheap (the bucket comes straight
 * from the double's exponent and top mantissa bits).  Non-positive
 * samples land in a dedicated underflow bucket so zero-latency events
 * stay visible without distorting the log range.
 */

#ifndef PRIME_COMMON_TELEMETRY_HISTOGRAM_HH
#define PRIME_COMMON_TELEMETRY_HISTOGRAM_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace prime::telemetry {

/** Accumulating histogram with p50/p95/p99-style quantile queries. */
class Histogram
{
  public:
    /** Linear sub-buckets per power of two. */
    static constexpr int kSubBuckets = 8;
    /** Smallest representable exponent (values below go to underflow). */
    static constexpr int kMinExp = -31;
    /** One past the largest bucketed exponent: values from
     *  2^(kMaxExp-1) up, +inf included, clamp to the top bucket. */
    static constexpr int kMaxExp = 64;
    /** Bucket 0 is the underflow bucket (v <= 0 or v < 2^(kMinExp-1)). */
    static constexpr int kBucketCount =
        1 + (kMaxExp - kMinExp) * kSubBuckets;

    Histogram();

    /** Record one value (inline: the timing pass samples per burst). */
    void
    sample(double value)
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

    /**
     * Fold another histogram's samples into this one (bucket counts,
     * count/sum and exact extrema all combine).  The shard-aggregation
     * primitive: per-thread / per-bank histograms accumulate lock-free
     * on their owner and merge into the published histogram afterwards.
     */
    void merge(const Histogram &other);

    /** Reset to empty. */
    void reset();

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    /** Exact extrema of the recorded samples (0 when empty). */
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /**
     * Value at quantile @p q in [0, 1], approximated by the midpoint of
     * the containing bucket and clamped to the exact [min, max] range.
     * Returns 0 on an empty histogram.
     */
    double quantile(double q) const;

    /** The raw bucket counters (index 0 = underflow). */
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

    /** Bucket index a value falls into (NaN and values <= 0 in the
     *  underflow bucket, +inf in the top one). */
    static int
    bucketIndex(double value)
    {
        // NaN, zero and negatives go to the underflow bucket.
        if (!(value > 0.0))
            return 0;
        // Read the IEEE-754 fields instead of calling frexp: value =
        // 1.m * 2^(e - 1023), i.e. frexp's fraction 0.5 * 1.m with
        // exponent e - 1022, whose sub-bucket (frac - 0.5) * 2 *
        // kSubBuckets is the top three mantissa bits.  Denormals
        // (e = 0) sit far below kMinExp; +inf (e = 2047) lands in the
        // top bucket.
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
    /** Inclusive lower bound of a bucket (0 for the underflow bucket). */
    static double bucketLowerBound(int index);
    /** Exclusive upper bound of a bucket. */
    static double bucketUpperBound(int index);

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace prime::telemetry

#endif // PRIME_COMMON_TELEMETRY_HISTOGRAM_HH
