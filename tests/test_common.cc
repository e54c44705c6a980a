/**
 * @file
 * Tests for logging, stats, tables and the RNG utilities.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace prime {
namespace {

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(PRIME_FATAL("bad config value ", 42), std::runtime_error);
}

TEST(Logging, FatalIfConditional)
{
    EXPECT_THROW(PRIME_FATAL_IF(1 + 1 == 2, "always"), std::runtime_error);
    EXPECT_NO_THROW(PRIME_FATAL_IF(false, "never"));
}

TEST(Logging, LevelRoundTrip)
{
    LogLevel prev = setLogLevel(LogLevel::Quiet);
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    setLogLevel(prev);
}

TEST(Stats, SampleTracksMoments)
{
    Stat s;
    s.sample(2.0);
    s.sample(4.0);
    s.sample(6.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.sum(), 12.0);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 6.0);
}

TEST(Stats, AddAndIncrementSeparateConcerns)
{
    Stat s;
    s.add(10.0);
    s.increment(5);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_EQ(s.count(), 5u);
}

TEST(Stats, GroupCreatesOnDemandAndSorts)
{
    StatGroup g;
    g.get("b.two").increment();
    g.get("a.one").increment();
    EXPECT_NE(g.find("a.one"), nullptr);
    EXPECT_EQ(g.find("missing"), nullptr);
    const auto names = g.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a.one");
    EXPECT_EQ(names[1], "b.two");
}

TEST(Stats, ResetAllClears)
{
    StatGroup g;
    g.get("x").sample(3.0);
    g.resetAll();
    EXPECT_EQ(g.get("x").count(), 0u);
}

TEST(Stats, DumpContainsNames)
{
    StatGroup g;
    g.get("mem.reads").increment(7);
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("mem.reads"), std::string::npos);
}

TEST(Table, AlignsColumnsAndCounts)
{
    Table t({"name", "value"});
    t.row().cell("alpha").cell(1.5);
    t.row().cell("b").cell(22.25, 2);
    EXPECT_EQ(t.rowCount(), 2u);
    std::ostringstream os;
    t.print(os, "demo");
    const std::string s = os.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("22.25"), std::string::npos);
}

TEST(Table, SpeedupAndPercentFormats)
{
    Table t({"a", "b"});
    t.row().speedupCell(1234.7).percentCell(0.123);
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("1235x"), std::string::npos);
    EXPECT_NE(os.str().find("12.3%"), std::string::npos);
}

TEST(Table, RejectsOverfullRow)
{
    Table t({"only"});
    t.row().cell("x");
    EXPECT_DEATH(t.cell("y"), "more cells");
}

TEST(FormatCompact, SwitchesToScientific)
{
    EXPECT_EQ(formatCompact(12.5, 1), "12.5");
    EXPECT_NE(formatCompact(1.0e9, 2).find("e"), std::string::npos);
    EXPECT_EQ(formatCompact(0.0, 1), "0.0");
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(-3, 7);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 7);
    }
}

TEST(Rng, PermutationIsPermutation)
{
    Rng rng(9);
    auto p = rng.permutation(50);
    std::vector<bool> seen(50, false);
    for (std::size_t i : p) {
        ASSERT_LT(i, 50u);
        EXPECT_FALSE(seen[i]);
        seen[i] = true;
    }
}

TEST(Rng, ForkDiverges)
{
    Rng a(7);
    Rng child = a.fork();
    // The fork and the parent should produce different streams.
    bool differs = false;
    Rng b(7);
    Rng child_b = b.fork();
    for (int i = 0; i < 10; ++i) {
        // Forks of identical parents agree with each other...
        EXPECT_DOUBLE_EQ(child.uniform(), child_b.uniform());
    }
    Rng c(7);
    for (int i = 0; i < 10; ++i)
        if (c.uniform() != child.uniform())
            differs = true;
    EXPECT_TRUE(differs);
}

TEST(Rng, GaussianMomentsRoughlyCorrect)
{
    Rng rng(31);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.gaussian(1.0, 2.0);
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 1.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, GaussianZeroSigmaReturnsMeanAndAdvances)
{
    // stddev 0 is in range (std::normal_distribution requires > 0):
    // the draw is exactly the mean, and the engine still advances, so
    // the stream after it matches a stream that drew at stddev 1.
    Rng zero(9), unit(9);
    EXPECT_EQ(zero.gaussian(0.25, 0.0), 0.25);
    EXPECT_EQ(zero.gaussian(-3.0, 0.0), -3.0);
    (void)unit.gaussian();
    (void)unit.gaussian();
    EXPECT_EQ(zero.uniform(), unit.uniform());
}

/**
 * Rng's engine is MT19937-64 output-identical to std::mt19937_64: raw
 * outputs over many refill blocks, and every draw shape Rng offers,
 * equal the same draws made from the standard engine.
 */
TEST(Rng, EngineMatchesStdMt19937_64)
{
    for (const std::uint64_t seed :
         {0ULL, 1ULL, 42ULL, 0x5eed5eedULL, ~0ULL}) {
        Rng rng(seed);
        std::mt19937_64 ref(seed);
        std::size_t differing = 0;
        for (int i = 0; i < 2'000'000; ++i)
            differing += rng.engine()() == ref() ? 0 : 1;
        EXPECT_EQ(differing, 0u) << "seed=" << seed;

        for (int round = 0; round < 3000; ++round) {
            const std::string where = "seed=" + std::to_string(seed) +
                                      " round=" + std::to_string(round);
            std::uniform_real_distribution<double> uniform(-2.0, 5.0);
            ASSERT_EQ(rng.uniform(-2.0, 5.0), uniform(ref)) << where;
            std::uniform_int_distribution<std::int64_t> ints(-7, 1000);
            ASSERT_EQ(rng.uniformInt(-7, 1000), ints(ref)) << where;
            std::uniform_int_distribution<std::int64_t> wide(
                std::numeric_limits<std::int64_t>::min(),
                std::numeric_limits<std::int64_t>::max());
            ASSERT_EQ(rng.uniformInt(std::numeric_limits<std::int64_t>::min(),
                                     std::numeric_limits<std::int64_t>::max()),
                      wide(ref))
                << where;
            std::bernoulli_distribution coin(0.3);
            ASSERT_EQ(rng.bernoulli(0.3), coin(ref)) << where;
            std::normal_distribution<double> normal(0.5, 2.0);
            ASSERT_EQ(rng.gaussian(0.5, 2.0), normal(ref)) << where;
            // stddev 0: the mean, after one standard-normal draw.
            std::normal_distribution<double> unit;
            (void)unit(ref);
            ASSERT_EQ(rng.gaussian(-1.5, 0.0), -1.5) << where;
            if (round % 100 == 0) {
                std::vector<std::size_t> want(37);
                for (std::size_t i = 0; i < want.size(); ++i)
                    want[i] = i;
                for (std::size_t i = want.size(); i > 1; --i) {
                    std::uniform_int_distribution<std::int64_t> j(
                        0, static_cast<std::int64_t>(i - 1));
                    std::swap(want[i - 1],
                              want[static_cast<std::size_t>(j(ref))]);
                }
                ASSERT_EQ(rng.permutation(want.size()), want) << where;
                Rng child = rng.fork();
                std::mt19937_64 ref_child(ref());
                for (int k = 0; k < 400; ++k)
                    ASSERT_EQ(child.engine()(), ref_child()) << where;
            }
        }
        EXPECT_EQ(rng.engine()(), ref()) << "seed=" << seed;
    }
}

TEST(Rng, GaussianMatchesStdNormalDistribution)
{
    // Pin: every stream with stddev > 0 is bit-identical to drawing
    // from a fresh std::normal_distribution(mean, stddev) per call.
    const double params[][2] = {{0.0, 1.0}, {1.0, 2.0}, {-0.5, 0.05},
                                {3.0, 1e-3}};
    for (std::uint64_t seed : {1ULL, 42ULL, 0x5eed5eedULL}) {
        Rng rng(seed);
        std::mt19937_64 engine(seed);
        for (int i = 0; i < 400; ++i) {
            const double *p = params[i % 4];
            std::normal_distribution<double> d(p[0], p[1]);
            EXPECT_EQ(rng.gaussian(p[0], p[1]), d(engine))
                << "seed=" << seed << " draw=" << i;
        }
    }
}

} // namespace
} // namespace prime

namespace prime {
namespace {

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.row().cell("x,y").cell(1.5);
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n\"x,y\",1.50\n");
}

} // namespace
} // namespace prime
