/**
 * @file
 * Deterministic random-number utilities.
 *
 * Every stochastic element of the model (device variation, synthetic data,
 * workload jitter) draws from an explicitly seeded Rng so that tests and
 * benchmark tables are bit-reproducible across runs and machines.
 *
 * The engine is MT19937-64 with std::mt19937_64's seeding and output
 * sequence, bit for bit (tests/test_common.cc pins it), so every draw
 * made through the std distributions equals the draw the standard
 * engine would give.  It twists and tempers its state one 312-word
 * block at a time in branchless loops that plain -O3 vectorizes: the
 * per-cell variation draws of a mat reprogram are the hot consumer.
 */

#ifndef PRIME_COMMON_RNG_HH
#define PRIME_COMMON_RNG_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "common/logging.hh"

namespace prime {

/**
 * MT19937-64 (Matsumoto and Nishimura): a UniformRandomBitGenerator
 * with the seeding and output sequence of std::mt19937_64.  Each refill
 * twists the whole 312-word state and tempers it into an output block,
 * both as straight-line loops with no data-dependent branch, so
 * operator() is a load and an index bump.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    explicit Mt19937_64(result_type seed) { this->seed(seed); }

    /** std::mt19937_64::seed(value): the Knuth-style initialization. */
    void
    seed(result_type value)
    {
        state_[0] = value;
        for (std::size_t i = 1; i < kStateSize; ++i)
            state_[i] = 6364136223846793005ULL *
                            (state_[i - 1] ^ (state_[i - 1] >> 62)) +
                        i;
        next_ = kStateSize;
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type
    max()
    {
        return std::numeric_limits<result_type>::max();
    }

    result_type
    operator()()
    {
        if (next_ == kStateSize)
            refill();
        return block_[next_++];
    }

  private:
    static constexpr std::size_t kStateSize = 312;
    static constexpr std::size_t kShift = 156;
    static constexpr result_type kMatrixA = 0xb5026f5aa96619e9ULL;
    static constexpr result_type kUpper = ~result_type{0} << 31;
    static constexpr result_type kLower = ~kUpper;

    /** One step of the twist recurrence. */
    static result_type
    twist(result_type shifted, result_type upper, result_type lower)
    {
        const result_type y = (upper & kUpper) | (lower & kLower);
        return shifted ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
    }

    /** Twist the state (std::mt19937_64's generation step), then temper
     *  every word into block_. */
    void
    refill()
    {
        std::uint64_t *x = state_.data();
        constexpr std::size_t n = kStateSize, m = kShift;
        // Each loop reads only words the loops before it have finished
        // and words it has not reached yet, so each vectorizes.
        for (std::size_t k = 0; k < n - m; ++k)
            x[k] = twist(x[k + m], x[k], x[k + 1]);
        for (std::size_t k = n - m; k < n - 1; ++k)
            x[k] = twist(x[k - (n - m)], x[k], x[k + 1]);
        x[n - 1] = twist(x[m - 1], x[n - 1], x[0]);
        for (std::size_t k = 0; k < n; ++k) {
            result_type z = x[k];
            z ^= (z >> 29) & 0x5555555555555555ULL;
            z ^= (z << 17) & 0x71d67fffeda60000ULL;
            z ^= (z << 37) & 0xfff7eee000000000ULL;
            block_[k] = z ^ (z >> 43);
        }
        next_ = 0;
    }

    std::array<result_type, kStateSize> state_{};
    /** Tempered outputs of the current state; next_ is the next one. */
    std::array<result_type, kStateSize> block_{};
    std::size_t next_ = kStateSize;
};

/**
 * A seeded pseudo-random source over Mt19937_64 with the handful of
 * draw shapes the model needs; each draw equals the same draw made
 * from a std::mt19937_64 of the same seed.
 */
class Rng
{
  public:
    /** Construct with an explicit seed (default fixed for reproducibility). */
    explicit Rng(std::uint64_t seed = 0x5eed5eedULL) : engine_(seed) {}

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo = 0.0, double hi = 1.0)
    {
        std::uniform_real_distribution<double> d(lo, hi);
        return d(engine_);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        std::uniform_int_distribution<std::int64_t> d(lo, hi);
        return d(engine_);
    }

    /**
     * Gaussian draw: mean + stddev * z for a standard normal z, so
     * stddev 0 is allowed (returns @p mean, still advancing the engine
     * by one draw) where std::normal_distribution requires stddev > 0.
     * Bit-identical to std::normal_distribution(mean, stddev) for
     * stddev > 0.
     */
    double
    gaussian(double mean = 0.0, double stddev = 1.0)
    {
        PRIME_ASSERT(stddev >= 0.0, "stddev=", stddev);
        std::normal_distribution<double> d;
        return mean + stddev * d(engine_);
    }

    /** Bernoulli draw. */
    bool
    bernoulli(double p)
    {
        std::bernoulli_distribution d(p);
        return d(engine_);
    }

    /** Fisher-Yates shuffle of an index vector [0, n). */
    std::vector<std::size_t>
    permutation(std::size_t n)
    {
        std::vector<std::size_t> idx(n);
        for (std::size_t i = 0; i < n; ++i)
            idx[i] = i;
        for (std::size_t i = n; i > 1; --i) {
            std::size_t j = static_cast<std::size_t>(uniformInt(0, i - 1));
            std::swap(idx[i - 1], idx[j]);
        }
        return idx;
    }

    /** Fork a child generator with a derived seed (stream splitting). */
    Rng
    fork()
    {
        return Rng(engine_());
    }

    /** Access the underlying engine (for std distributions). */
    Mt19937_64 &engine() { return engine_; }

  private:
    Mt19937_64 engine_;
};

/**
 * Seed of stream @p stream under @p base: a SplitMix64 mix, so nearby
 * stream indices (e.g. adjacent mats) get unrelated seeds.  Giving each
 * mat its own Rng seeded this way makes every draw a function of the
 * mat, not of a global draw order.
 */
inline std::uint64_t
streamSeed(std::uint64_t base, std::uint64_t stream)
{
    std::uint64_t z = base + (stream + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace prime

#endif // PRIME_COMMON_RNG_HH
