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

    /** Record one value. */
    void sample(double value);

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
    static int bucketIndex(double value);
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
