/**
 * @file
 * Deterministic random-number utilities.
 *
 * Every stochastic element of the model (device variation, synthetic data,
 * workload jitter) draws from an explicitly seeded Rng so that tests and
 * benchmark tables are bit-reproducible across runs and machines.
 */

#ifndef PRIME_COMMON_RNG_HH
#define PRIME_COMMON_RNG_HH

#include <cstdint>
#include <random>
#include <vector>

#include "common/logging.hh"

namespace prime {

/**
 * A seeded pseudo-random source wrapping std::mt19937_64 with the handful
 * of draw shapes the model needs.
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
    std::mt19937_64 &engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
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
