/**
 * @file
 * Platform evaluator tests (Figures 8-11 machinery): CPU, pNPU variants
 * and PRIME, plus the headline shape relations the paper reports.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "common/thread_pool.hh"
#include "sim/evaluator.hh"

namespace prime::sim {
namespace {

nvmodel::TechParams
tech()
{
    return nvmodel::defaultTechParams();
}

TEST(GeometricMean, Basics)
{
    EXPECT_DOUBLE_EQ(geometricMean({4.0, 16.0}), 8.0);
    EXPECT_DOUBLE_EQ(geometricMean({5.0}), 5.0);
}

TEST(CpuModel, StreamBandwidthLatencyBound)
{
    CpuModel cpu(CpuParams{}, tech());
    // 4 misses x 64 B / 100 ns = 2.56 B/ns, below the 8.5 B/ns channel.
    EXPECT_NEAR(cpu.effectiveStreamBandwidth(), 2.56, 0.01);
}

TEST(CpuModel, MlpIsMemoryBound)
{
    CpuModel cpu(CpuParams{}, tech());
    PlatformResult r = cpu.evaluate(nn::mlBenchByName("MLP-L"));
    EXPECT_GT(r.time.memory, r.time.compute);
    EXPECT_GT(r.energy.memory, 0.0);
    EXPECT_DOUBLE_EQ(r.latency, r.timePerImage);
}

TEST(CpuModel, CnnIsComputeBound)
{
    CpuModel cpu(CpuParams{}, tech());
    PlatformResult r = cpu.evaluate(nn::mlBenchByName("CNN-1"));
    EXPECT_GT(r.time.compute, r.time.memory);
}

TEST(NpuModel, PlacementNamesAndBandwidth)
{
    NpuParams p;
    NpuModel co(p, tech(), NpuPlacement::CoProcessor, 1);
    NpuModel pim1(p, tech(), NpuPlacement::PimSingle, 1);
    NpuModel pim64(p, tech(), NpuPlacement::PimPerBank, 64);
    EXPECT_EQ(co.name(), "pNPU-co");
    EXPECT_EQ(pim1.name(), "pNPU-pim-x1");
    EXPECT_EQ(pim64.name(), "pNPU-pim-x64");
    EXPECT_GT(pim1.memoryBandwidth(), co.memoryBandwidth());
    EXPECT_LT(pim64.memoryBandwidth(), pim1.memoryBandwidth());
    EXPECT_LT(pim1.memEnergyPerByte(), co.memEnergyPerByte());
}

TEST(NpuModel, MemoryEnergyDominatesForMlp)
{
    // The DianNao observation: ~95% of pNPU-co energy is DRAM access.
    NpuModel co(NpuParams{}, tech(), NpuPlacement::CoProcessor, 1);
    PlatformResult r = co.evaluate(nn::mlBenchByName("MLP-M"));
    EXPECT_GT(r.energy.memory / r.energy.total(), 0.85);
}

TEST(NpuModel, PimSavesMemoryEnergy)
{
    NpuModel co(NpuParams{}, tech(), NpuPlacement::CoProcessor, 1);
    NpuModel pim(NpuParams{}, tech(), NpuPlacement::PimPerBank, 64);
    auto rco = co.evaluate(nn::mlBenchByName("MLP-M"));
    auto rpim = pim.evaluate(nn::mlBenchByName("MLP-M"));
    // Paper: pim saves ~93.9% of the memory energy vs pNPU-co.
    EXPECT_LT(rpim.energy.memory, 0.2 * rco.energy.memory);
    // Compute energy identical (same NPU datapath).
    EXPECT_DOUBLE_EQ(rpim.energy.compute, rco.energy.compute);
}

TEST(NpuModel, InstancesScaleThroughputNotLatency)
{
    NpuModel pim64(NpuParams{}, tech(), NpuPlacement::PimPerBank, 64);
    auto r = pim64.evaluate(nn::mlBenchByName("MLP-S"));
    EXPECT_NEAR(r.timePerImage * 64, r.latency, 1e-6);
}

TEST(PrimeModel, LayerCostsConsistent)
{
    mapping::Mapper mapper(tech().geometry, mapping::MapperOptions{});
    auto topo = nn::mlBenchByName("MLP-M");
    auto plan = mapper.map(topo);
    PrimeModel model(tech());
    auto costs = model.layerCosts(plan);
    ASSERT_EQ(costs.size(), plan.layers.size());
    for (std::size_t i = 0; i < costs.size(); ++i) {
        EXPECT_GT(costs[i].rounds, 0);
        EXPECT_GE(costs[i].matPasses, costs[i].rounds);
        EXPECT_GT(costs[i].mvmTime, 0.0);
        EXPECT_GT(costs[i].computeEnergy, 0.0);
    }
}

TEST(PrimeModel, FcLayersAreSingleRound)
{
    mapping::Mapper mapper(tech().geometry, mapping::MapperOptions{});
    auto topo = nn::mlBenchByName("MLP-S");
    auto plan = mapper.map(topo);
    PrimeModel model(tech());
    for (const auto &c : model.layerCosts(plan))
        EXPECT_EQ(c.rounds, 1);
}

TEST(PrimeModel, ReplicationSpeedsUpConvBenchmarks)
{
    auto topo = nn::mlBenchByName("CNN-2");
    PrimeModel model(tech());

    mapping::MapperOptions with;
    mapping::MapperOptions without;
    without.enableReplication = false;
    mapping::Mapper m1(tech().geometry, with);
    mapping::Mapper m2(tech().geometry, without);
    auto r1 = model.evaluate(topo, m1.map(topo));
    auto r2 = model.evaluate(topo, m2.map(topo));
    EXPECT_LT(r1.timePerImage, r2.timePerImage);
}

TEST(PrimeModel, ConfigurationCostReportedSeparately)
{
    mapping::Mapper mapper(tech().geometry, mapping::MapperOptions{});
    auto topo = nn::mlBenchByName("MLP-S");
    auto plan = mapper.map(topo);
    PrimeModel model(tech());
    EXPECT_GT(model.configurationTime(plan), 0.0);
    EXPECT_GT(model.configurationEnergy(plan), 0.0);
    // Configuration takes far longer than one inference, which is why
    // the paper amortizes it over tens of thousands of runs.
    EXPECT_GT(model.configurationTime(plan),
              model.evaluate(topo, plan).latency);
}

TEST(Evaluator, HeadlineShapesHold)
{
    Evaluator ev(tech());
    auto all = ev.evaluateMlBench();
    ASSERT_EQ(all.size(), 6u);

    std::vector<double> prime_speedups, pim1_over_co, prime_over_pim64;
    for (const BenchmarkEvaluation &e : all) {
        // Ordering: every accelerator beats the CPU; PIM beats
        // co-processor; PRIME beats everything (Figure 8).
        EXPECT_GT(e.npuCo.speedupOver(e.cpu), 1.0) << e.topology.name;
        EXPECT_GT(e.npuPimX1.speedupOver(e.cpu),
                  e.npuCo.speedupOver(e.cpu))
            << e.topology.name;
        EXPECT_GT(e.npuPimX64.speedupOver(e.cpu),
                  e.npuPimX1.speedupOver(e.cpu))
            << e.topology.name;
        EXPECT_GT(e.prime.speedupOver(e.cpu),
                  e.npuPimX64.speedupOver(e.cpu))
            << e.topology.name;

        prime_speedups.push_back(e.prime.speedupOver(e.cpu));
        pim1_over_co.push_back(e.npuPimX1.speedupOver(e.npuCo));
        prime_over_pim64.push_back(e.prime.speedupOver(e.npuPimX64));

        // Energy ordering (Figure 10).
        EXPECT_GT(e.prime.energySavingOver(e.cpu),
                  e.npuPimX64.energySavingOver(e.cpu))
            << e.topology.name;
        EXPECT_GT(e.npuPimX64.energySavingOver(e.cpu),
                  e.npuCo.energySavingOver(e.cpu))
            << e.topology.name;
    }

    // Paper: pim-x1 ~9.1x over co on average.
    EXPECT_GT(geometricMean(pim1_over_co), 3.0);
    EXPECT_LT(geometricMean(pim1_over_co), 30.0);
    // Paper: PRIME ~4.1x over pim-x64 (we accept the same decade).
    EXPECT_GT(geometricMean(prime_over_pim64), 1.5);
    EXPECT_LT(geometricMean(prime_over_pim64), 45.0);
    // Paper: PRIME gmean speedup ~2360x -- same order of magnitude.
    const double gmean = geometricMean(prime_speedups);
    EXPECT_GT(gmean, 400.0);
    EXPECT_LT(gmean, 30000.0);
}

TEST(Evaluator, VggIsWeakestPrimeSpeedup)
{
    Evaluator ev(tech());
    auto all = ev.evaluateMlBench();
    double vgg = 0.0, min_other = 1e300;
    for (const BenchmarkEvaluation &e : all) {
        const double s = e.prime.speedupOver(e.cpu);
        if (e.topology.name == "VGG-D")
            vgg = s;
        else
            min_other = std::min(min_other, s);
    }
    // Paper: PRIME's smallest speedup is VGG-D (inter-bank traffic).
    EXPECT_LT(vgg, min_other);
}

TEST(Evaluator, PrimeMemoryTimeIsHidden)
{
    // Figure 9: PRIME's exposed memory time ~ 0 (hidden by the Buffer
    // subarrays) for the MLP benchmarks.
    Evaluator ev(tech());
    auto e = ev.evaluate(nn::mlBenchByName("MLP-M"));
    EXPECT_LT(e.primeSingleBank.time.memory,
              0.05 * e.primeSingleBank.time.total());
    // And PRIME-1bank still beats pNPU-co per image (paper Figure 9's
    // normalized execution time < 1).
    EXPECT_LT(e.primeSingleBank.latency, e.npuCo.latency);
}

TEST(Evaluator, BreakdownsArePerImageConsistent)
{
    Evaluator ev(tech());
    auto e = ev.evaluate(nn::mlBenchByName("CNN-1"));
    for (const PlatformResult *r :
         {&e.cpu, &e.npuCo, &e.npuPimX1, &e.npuPimX64, &e.prime}) {
        EXPECT_NEAR(r->time.total(), r->latency, 1e-6) << r->platform;
        EXPECT_GT(r->energy.total(), 0.0) << r->platform;
        EXPECT_GT(r->timePerImage, 0.0) << r->platform;
        EXPECT_LE(r->timePerImage, r->latency + 1e-9) << r->platform;
    }
}

/** The threaded MlBench fan-out must be invisible in the results:
 *  every global pool size returns the same numbers in the same suite
 *  order (each benchmark is evaluated independently and the models
 *  draw no random numbers). */
TEST(Evaluator, MlBenchIndependentOfThreadCount)
{
    EvaluatorOptions opt;
    opt.includeVgg = false;
    Evaluator ev(tech(), opt);
    ThreadPool::setGlobalThreadCount(1);
    auto want = ev.evaluateMlBench();
    ASSERT_EQ(want.size(), 5u);

    for (int threads : {2, 4}) {
        ThreadPool::setGlobalThreadCount(threads);
        auto got = ev.evaluateMlBench();
        ASSERT_EQ(got.size(), want.size()) << "threads=" << threads;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].topology.name, want[i].topology.name);
            EXPECT_DOUBLE_EQ(got[i].prime.latency, want[i].prime.latency)
                << got[i].topology.name << " threads=" << threads;
            EXPECT_DOUBLE_EQ(got[i].prime.energy.total(),
                             want[i].prime.energy.total())
                << got[i].topology.name << " threads=" << threads;
            EXPECT_DOUBLE_EQ(got[i].cpu.latency, want[i].cpu.latency)
                << got[i].topology.name << " threads=" << threads;
        }
    }
    ThreadPool::setGlobalThreadCount(0);
}

} // namespace
} // namespace prime::sim

namespace prime::sim {
namespace {

/** Model-scaling properties under configuration overrides. */
TEST(ModelScaling, MoreFfSubarraysNeverSlower)
{
    nvmodel::TechParams base = tech();
    nvmodel::TechParams big = tech();
    big.geometry.ffSubarraysPerBank = 4;

    for (const char *name : {"CNN-2", "MLP-M"}) {
        Evaluator e1(base), e2(big);
        auto r1 = e1.evaluate(nn::mlBenchByName(name));
        auto r2 = e2.evaluate(nn::mlBenchByName(name));
        EXPECT_LE(r2.prime.timePerImage, r1.prime.timePerImage * 1.001)
            << name;
    }
}

TEST(ModelScaling, SlowerSaClockSlowsPrime)
{
    nvmodel::TechParams slow = tech();
    slow.timing.saClockGHz = 0.5;
    Evaluator fast_ev(tech()), slow_ev(slow);
    auto fast = fast_ev.evaluate(nn::mlBenchByName("MLP-M"));
    auto slower = slow_ev.evaluate(nn::mlBenchByName("MLP-M"));
    EXPECT_GT(slower.prime.latency, fast.prime.latency);
    // The NPU baselines are unaffected by the SA clock.
    EXPECT_DOUBLE_EQ(slower.npuCo.latency, fast.npuCo.latency);
}

TEST(ModelScaling, WiderChannelHelpsCoProcessor)
{
    nvmodel::TechParams wide = tech();
    wide.timing.channelBytes = 16;
    Evaluator base_ev(tech()), wide_ev(wide);
    auto narrow = base_ev.evaluate(nn::mlBenchByName("MLP-L"));
    auto wider = wide_ev.evaluate(nn::mlBenchByName("MLP-L"));
    EXPECT_LT(wider.npuCo.latency, narrow.npuCo.latency);
}

TEST(ModelScaling, EnergyAdditivity)
{
    // Evaluating layer subsets must sum to (at most) the whole: check
    // PRIME compute energy is additive over layers via layerCosts.
    mapping::Mapper mapper(tech().geometry, mapping::MapperOptions{});
    auto topo = nn::mlBenchByName("MLP-M");
    auto plan = mapper.map(topo);
    PrimeModel model(tech());
    auto costs = model.layerCosts(plan);
    PicoJoule sum = 0.0;
    for (const auto &c : costs)
        sum += c.computeEnergy;
    auto r = model.evaluate(topo, plan);
    EXPECT_NEAR(r.energy.compute, sum, 1e-6);
}

TEST(ModelScaling, ConfigOverridePathMatchesDirectEdit)
{
    Config c;
    c.set("timing.sa_clock_ghz", "1.0");
    nvmodel::TechParams via_config = nvmodel::defaultTechParams();
    applyConfig(c, via_config);
    nvmodel::TechParams direct = nvmodel::defaultTechParams();
    direct.timing.saClockGHz = 1.0;

    Evaluator e1(via_config), e2(direct);
    auto r1 = e1.evaluate(nn::mlBenchByName("MLP-S"));
    auto r2 = e2.evaluate(nn::mlBenchByName("MLP-S"));
    EXPECT_DOUBLE_EQ(r1.prime.latency, r2.prime.latency);
}

} // namespace
} // namespace prime::sim

namespace prime::sim {
namespace {

TEST(NpuModel, PerBankCapacityPenaltyOnlyBitesVgg)
{
    NpuModel pim64(NpuParams{}, tech(), NpuPlacement::PimPerBank, 64);
    // MLP weights fit a bank: throughput = latency / 64 exactly (plus
    // the input-delivery floor, far below the compute time here).
    auto mlp = pim64.evaluate(nn::mlBenchByName("MLP-L"));
    EXPECT_NEAR(mlp.timePerImage, mlp.latency / 64.0, 1.0);
    // VGG weights exceed a bank: the shared-bus floor dominates.
    auto vgg = pim64.evaluate(nn::mlBenchByName("VGG-D"));
    EXPECT_GT(vgg.timePerImage, vgg.latency / 64.0 * 2.0);
}

TEST(PrimeModel, InputDeliveryFloorsTinyNns)
{
    nn::Topology tiny = nn::parseTopology("t", "784-16-10", 1, 28, 28);
    mapping::Mapper mapper(tech().geometry, mapping::MapperOptions{});
    PrimeModel model(tech());
    auto r = model.evaluate(tiny, mapper.map(tiny));
    const double floor_ns =
        784.0 * (tech().inputBits / 8.0) /
        tech().timing.channelBandwidth();
    EXPECT_NEAR(r.timePerImage, floor_ns, 1e-6);
}

} // namespace
} // namespace prime::sim
