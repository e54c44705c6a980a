/**
 * @file
 * Tests for the substrate extensions: Start-Gap wear leveling, the
 * synthetic trace generator/replayer, the DRAM-gap timing presets, and
 * the IR-drop crossbar model.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "common/rng.hh"
#include "memory/wear_leveling.hh"
#include "reram/crossbar.hh"
#include "sim/trace.hh"

namespace prime {
namespace {

// ------------------------------------------------- wear leveling ----

TEST(StartGap, MappingIsBijective)
{
    memory::StartGapLeveler lev(16, 4);
    for (int step = 0; step < 200; ++step) {
        std::set<std::uint32_t> seen;
        for (std::uint32_t la = 0; la < 16; ++la) {
            const std::uint32_t pa = lev.physicalLine(la);
            EXPECT_LE(pa, 16u);
            EXPECT_NE(pa, lev.gap()) << "mapped onto the gap slot";
            EXPECT_TRUE(seen.insert(pa).second) << "collision at " << pa;
        }
        lev.recordWrite(static_cast<std::uint32_t>(step % 16));
    }
}

TEST(StartGap, GapRotatesAndStartAdvances)
{
    memory::StartGapLeveler lev(8, 1);  // move the gap on every write
    EXPECT_EQ(lev.gap(), 8u);
    const std::uint32_t start0 = lev.start();
    // 9 moves walk the gap 8 -> 0 and then wrap, bumping start.
    for (int i = 0; i < 9; ++i)
        lev.recordWrite(0);
    EXPECT_EQ(lev.gap(), 8u);
    EXPECT_EQ(lev.start(), (start0 + 1) % 8);
    EXPECT_EQ(lev.gapMoves(), 9u);
}

TEST(StartGap, LevelsHotTraffic)
{
    memory::StartGapLeveler lev(64, 8);
    Rng rng(1);
    for (int i = 0; i < 300000; ++i) {
        const std::uint32_t line =
            rng.bernoulli(0.9)
                ? static_cast<std::uint32_t>(rng.uniformInt(0, 3))
                : static_cast<std::uint32_t>(rng.uniformInt(0, 63));
        lev.recordWrite(line);
    }
    // Unleveled, 4 hot lines of 64 would see ~14x mean wear; Start-Gap
    // must flatten it dramatically.
    EXPECT_LT(lev.wearRatio(), 2.0);
}

TEST(StartGap, RejectsDegenerateRegion)
{
    EXPECT_DEATH(memory::StartGapLeveler(1, 4), "at least 2");
}

// ------------------------------------------------- trace replay -----

TEST(Trace, GeneratorsProduceRequestedCounts)
{
    memory::AddressMapper mapper(
        nvmodel::defaultTechParams().geometry);
    for (auto p :
         {sim::TracePattern::SequentialStream,
          sim::TracePattern::RandomUniform, sim::TracePattern::HotSpot,
          sim::TracePattern::RowLocal,
          sim::TracePattern::SingleBankRandom}) {
        sim::TraceOptions opt;
        opt.pattern = p;
        opt.count = 500;
        auto trace = sim::generateTrace(mapper, opt);
        EXPECT_EQ(trace.size(), 500u) << sim::tracePatternName(p);
        for (const auto &r : trace)
            EXPECT_LT(r.addr, mapper.capacityBytes());
    }
}

TEST(Trace, WriteFractionRespected)
{
    memory::AddressMapper mapper(
        nvmodel::defaultTechParams().geometry);
    sim::TraceOptions opt;
    opt.count = 4000;
    opt.writeFraction = 0.3;
    auto trace = sim::generateTrace(mapper, opt);
    int writes = 0;
    for (const auto &r : trace)
        writes += r.isWrite ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(writes) / trace.size(), 0.3, 0.05);
}

TEST(Trace, SingleBankPatternStaysInOneBank)
{
    memory::AddressMapper mapper(
        nvmodel::defaultTechParams().geometry);
    sim::TraceOptions opt;
    opt.pattern = sim::TracePattern::SingleBankRandom;
    opt.count = 300;
    auto trace = sim::generateTrace(mapper, opt);
    std::set<int> banks;
    for (const auto &r : trace)
        banks.insert(mapper.decode(r.addr).globalBank);
    EXPECT_EQ(banks.size(), 1u);
}

TEST(Trace, StreamBeatsRandomOnRowHits)
{
    nvmodel::TechParams tech = nvmodel::defaultTechParams();
    sim::TraceOptions stream;
    stream.pattern = sim::TracePattern::SequentialStream;
    stream.count = 2048;
    sim::TraceOptions random;
    random.pattern = sim::TracePattern::RandomUniform;
    random.count = 2048;

    memory::MainMemory m1(tech), m2(tech);
    auto rs = sim::runTrace(m1, sim::generateTrace(m1.mapper(), stream));
    auto rr = sim::runTrace(m2, sim::generateTrace(m2.mapper(), random));
    EXPECT_GT(rs.rowHitRate, rr.rowHitRate);
    EXPECT_GT(rs.makespan, 0.0);
    EXPECT_GT(rr.bandwidth, 0.0);
}

TEST(Trace, WritesSlowBankBoundTraffic)
{
    nvmodel::TechParams tech = nvmodel::defaultTechParams();
    auto run_with = [&](double wf) {
        memory::MainMemory mem(tech);
        sim::TraceOptions opt;
        opt.pattern = sim::TracePattern::SingleBankRandom;
        opt.count = 2048;
        opt.writeFraction = wf;
        return sim::runTrace(mem, sim::generateTrace(mem.mapper(), opt));
    };
    EXPECT_LT(run_with(0.5).bandwidth, run_with(0.0).bandwidth);
}

TEST(TimingPresets, OrderingOfWritePenalties)
{
    const auto dram = nvmodel::dramLikeTimings();
    const auto naive = nvmodel::naiveReramTimings();
    const auto opt = nvmodel::defaultTechParams().timing;
    EXPECT_GT(naive.tWr, 3.0 * dram.tWr);   // the raw ~5x penalty
    EXPECT_LT(opt.tWr, naive.tWr);          // optimizations recover it
    EXPECT_NEAR(opt.tWr, 41.4, 1e-9);       // Table IV value
}

TEST(TimingPresets, OptimizedReramWithinTenPercentOfDram)
{
    // The Section II-A claim on a typical mixed, bank-bound workload.
    auto bandwidth = [](const nvmodel::TimingParams &t) {
        nvmodel::TechParams tech = nvmodel::defaultTechParams();
        tech.timing = t;
        memory::MainMemory mem(tech);
        sim::TraceOptions opt;
        opt.pattern = sim::TracePattern::SingleBankRandom;
        opt.count = 4096;
        opt.writeFraction = 0.2;
        return sim::runTrace(mem,
                             sim::generateTrace(mem.mapper(), opt))
            .bandwidth;
    };
    const double dram = bandwidth(nvmodel::dramLikeTimings());
    const double optimized =
        bandwidth(nvmodel::defaultTechParams().timing);
    const double naive = bandwidth(nvmodel::naiveReramTimings());
    EXPECT_GT(optimized, 0.9 * dram);  // within 10%
    EXPECT_LT(naive, 0.75 * dram);     // naive is far off
}

// ------------------------------------------------- IR drop ----------

TEST(IrDrop, ZeroWireResistanceIsExact)
{
    reram::CrossbarParams p;
    p.rows = 64;
    p.cols = 8;
    reram::Crossbar xbar(p);
    Rng rng(2);
    std::vector<std::vector<int>> levels(64, std::vector<int>(8));
    for (auto &r : levels)
        for (int &v : r)
            v = static_cast<int>(rng.uniformInt(0, 15));
    xbar.programLevels(levels);
    std::vector<std::uint8_t> in(64, 5);
    std::vector<std::int64_t> exact(8);
    std::vector<double> analog(8);
    xbar.mvmExact(in, exact);
    xbar.mvmAnalog(in, analog);
    for (int c = 0; c < 8; ++c)
        EXPECT_NEAR(xbar.levelUnitsFromCurrent(analog[c]) -
                        5.0 * 64 * /* Gmin offset in level units */
                            (50.0 / p.conductanceStep()),
                    static_cast<double>(exact[c]), 1e-6);
}

TEST(IrDrop, WireResistanceReducesCurrent)
{
    reram::CrossbarParams ideal;
    ideal.rows = 128;
    ideal.cols = 16;
    reram::CrossbarParams droopy = ideal;
    droopy.wireResistancePerCell = 2.0;  // Ohm per pitch

    reram::Crossbar a(ideal), b(droopy);
    std::vector<std::vector<int>> levels(128, std::vector<int>(16, 15));
    a.programLevels(levels);
    b.programLevels(levels);
    std::vector<std::uint8_t> in(128, 7);
    std::vector<double> ia(16), ib(16);
    a.mvmAnalog(in, ia);
    b.mvmAnalog(in, ib);
    for (int c = 0; c < 16; ++c)
        EXPECT_LT(ib[static_cast<std::size_t>(c)],
                  ia[static_cast<std::size_t>(c)]);
    // Far columns droop more than near columns.
    const double near_loss = (ia[0] - ib[0]) / ia[0];
    const double far_loss = (ia[15] - ib[15]) / ia[15];
    EXPECT_GT(far_loss, near_loss);
}

TEST(IrDrop, GrowsWithArraySize)
{
    auto relative_loss = [](int n) {
        reram::CrossbarParams ideal;
        ideal.rows = n;
        ideal.cols = n;
        reram::CrossbarParams droopy = ideal;
        droopy.wireResistancePerCell = 2.0;
        reram::Crossbar a(ideal), b(droopy);
        std::vector<std::vector<int>> levels(n, std::vector<int>(n, 15));
        a.programLevels(levels);
        b.programLevels(levels);
        std::vector<std::uint8_t> in(n, 7);
        std::vector<double> ia(static_cast<std::size_t>(n)),
            ib(static_cast<std::size_t>(n));
        a.mvmAnalog(in, ia);
        b.mvmAnalog(in, ib);
        return (ia.back() - ib.back()) / ia.back();
    };
    EXPECT_GT(relative_loss(256), relative_loss(32));
}

} // namespace
} // namespace prime

namespace prime {
namespace {

TEST(Trace, DeterministicForSeed)
{
    memory::AddressMapper mapper(
        nvmodel::defaultTechParams().geometry);
    sim::TraceOptions opt;
    opt.pattern = sim::TracePattern::HotSpot;
    opt.count = 200;
    auto a = sim::generateTrace(mapper, opt);
    auto b = sim::generateTrace(mapper, opt);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].addr, b[i].addr);
        EXPECT_EQ(a[i].isWrite, b[i].isWrite);
    }
}

/** Address mapper round trips across alternative geometries. */
struct GeometryCase
{
    int chips, banks, subarrays, mats;
};

class GeometrySweep : public ::testing::TestWithParam<GeometryCase>
{
};

TEST_P(GeometrySweep, EncodeDecodeRoundTrip)
{
    const GeometryCase g = GetParam();
    nvmodel::Geometry geom;
    geom.chipsPerRank = g.chips;
    geom.banksPerChip = g.banks;
    geom.subarraysPerBank = g.subarrays;
    geom.matsPerSubarray = g.mats;
    memory::AddressMapper mapper(geom);
    const std::uint64_t cap = mapper.capacityBytes();
    for (std::uint64_t addr = 0; addr < cap; addr += cap / 257 + 1) {
        memory::Location loc = mapper.decode(addr);
        EXPECT_EQ(mapper.encode(loc), addr);
        EXPECT_LT(loc.globalBank, g.chips * g.banks);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometrySweep,
    ::testing::Values(GeometryCase{1, 1, 1, 1}, GeometryCase{2, 4, 3, 5},
                      GeometryCase{8, 8, 24, 32},
                      GeometryCase{4, 2, 2, 16}));

} // namespace
} // namespace prime
