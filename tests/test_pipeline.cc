/**
 * @file
 * Inter-bank pipeline executor tests: stage extraction from the plan,
 * bit-identity of the wavefront-step batch path against sequential
 * run() across global pool sizes, batch sizes and remaps, from inside
 * a pool job too, executor stats, and the analytic stage-cost
 * cross-check.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/telemetry/metrics.hh"
#include "common/thread_pool.hh"
#include "nn/dataset.hh"
#include "prime/prime_system.hh"
#include "sim/prime_model.hh"

namespace prime::core {
namespace {

/** Tiny geometry: one FF mat per bank, so a 4-layer MLP maps Large
 *  across 4 banks and pipelines in 4 bank-disjoint stages. */
nvmodel::TechParams
tinyBankParams()
{
    nvmodel::TechParams tech = nvmodel::defaultTechParams();
    tech.geometry.ffSubarraysPerBank = 1;
    tech.geometry.matsPerSubarray = 1;
    return tech;
}

/** 64-256-256-256-10 MLP: four weighted layers, one mat each. */
nn::Topology
fourStageTopology()
{
    return nn::parseTopology("mlp-4stage", "64-256-256-256-10", 1, 8, 8);
}

struct PipelinedSetup
{
    nvmodel::TechParams tech = tinyBankParams();
    nn::Topology topology = fourStageTopology();
    nn::Network net;
    std::vector<nn::Tensor> inputs;

    PipelinedSetup()
    {
        Rng rng(7);
        net = nn::buildNetwork(topology, rng);
        Rng input_rng(11);
        for (int i = 0; i < 16; ++i) {
            nn::Tensor t({1, 8, 8});
            for (std::size_t k = 0; k < t.size(); ++k)
                t[k] = input_rng.uniform(0.0, 1.0);
            inputs.push_back(std::move(t));
        }
    }
};

PipelinedSetup &
pipelinedSetup()
{
    static PipelinedSetup instance;
    return instance;
}

std::vector<nn::Tensor>
sampleInputs(std::size_t n)
{
    std::vector<nn::Tensor> inputs;
    for (std::size_t i = 0; i < n; ++i)
        inputs.push_back(
            pipelinedSetup().inputs[i % pipelinedSetup().inputs.size()]);
    return inputs;
}

/** Map, program and configure the 4-layer MLP on @p prime. */
void
programNet(PrimeSystem &prime)
{
    prime.mapTopology(pipelinedSetup().topology);
    prime.programWeight(pipelinedSetup().net);
    prime.configDatapath();
}

/** Outputs of per-sample run() over @p inputs: the bit-identity
 *  reference every batched path is held to. */
std::vector<nn::Tensor>
runEach(PrimeSystem &prime, const std::vector<nn::Tensor> &inputs)
{
    std::vector<nn::Tensor> out;
    for (const nn::Tensor &in : inputs)
        out.push_back(prime.run(in));
    return out;
}

void
expectSameBits(const std::vector<nn::Tensor> &got,
               const std::vector<nn::Tensor> &want, const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].size(), want[i].size()) << what;
        for (std::size_t k = 0; k < got[i].size(); ++k)
            EXPECT_EQ(got[i][k], want[i][k])
                << what << " sample=" << i << " element=" << k;
    }
}

TEST(PipelineStages, FourBankPlanYieldsFourStages)
{
    PrimeSystem prime(tinyBankParams());
    const mapping::MappingPlan &plan =
        prime.mapTopology(pipelinedSetup().topology);
    EXPECT_EQ(plan.scale, mapping::NnScale::Large);
    EXPECT_EQ(plan.banksUsed, 4);

    const auto stages =
        plan.pipelineStages(pipelinedSetup().topology.layers.size());
    ASSERT_EQ(stages.size(), 4u);
    // Stages partition both the topology layers and the weighted
    // layers, in order, with bank-disjoint stage sets.
    std::size_t layer = 0, weighted = 0;
    std::vector<int> seen_banks;
    for (const mapping::PipelineStage &s : stages) {
        EXPECT_EQ(s.firstLayer, layer);
        EXPECT_EQ(s.firstWeighted, weighted);
        EXPECT_GT(s.endWeighted, s.firstWeighted);
        layer = s.endLayer;
        weighted = s.endWeighted;
        for (int b : s.banks) {
            for (int prev : seen_banks)
                EXPECT_NE(b, prev);
            seen_banks.push_back(b);
        }
    }
    EXPECT_EQ(layer, pipelinedSetup().topology.layers.size());
    EXPECT_EQ(weighted, plan.layers.size());
}

TEST(PipelineStages, SingleBankPlanIsOneStage)
{
    PrimeSystem prime;  // default geometry: MLP-S fits one bank
    const mapping::MappingPlan &plan =
        prime.mapTopology(nn::mlBenchByName("MLP-S"));
    const auto stages = plan.pipelineStages(
        nn::mlBenchByName("MLP-S").layers.size());
    ASSERT_EQ(stages.size(), 1u);
    EXPECT_EQ(stages[0].firstLayer, 0u);
    EXPECT_EQ(stages[0].endLayer,
              nn::mlBenchByName("MLP-S").layers.size());
}

/**
 * The modeled memory side of @p prime: the mem.* stats document, every
 * channel's histogram sums and cursor, and the PRIME progress, the
 * doubles in hex so equality is bit equality.
 */
std::string
memoryState(PrimeSystem &prime)
{
    memory::MainMemory &mem = prime.mainMemory();
    std::ostringstream out;
    mem.stats().dumpJson(out);
    out << std::hexfloat;
    for (int ch = 0; ch < mem.channels(); ++ch) {
        const memory::ChannelTotals t = mem.controller(ch).totals();
        out << ' ' << t.queueNs.sum() << ' ' << t.serviceNs.sum() << ' '
            << mem.controller(ch).channelFree();
    }
    out << ' ' << mem.primeProgressNs();
    return out.str();
}

TEST(PipelineEngine, BatchBitIdenticalAcrossThreadCounts)
{
    // Global pools smaller than, equal to and larger than the stage
    // count, on a batch whose last chunk is partial (13 = 3 * 4 + 1):
    // the 4-stage plan, and the same net on the default geometry, where
    // it maps into one bank as one stage.  The one-stage batch takes
    // the same wavefront steps and also leaves the memory side exactly
    // as the run() loop over its images does.
    const std::vector<nn::Tensor> inputs = sampleInputs(13);
    ASSERT_NE(inputs.size() % kHandoffBatch, 0u);
    const std::pair<nvmodel::TechParams, std::size_t> plans[] = {
        {tinyBankParams(), 4}, {nvmodel::defaultTechParams(), 1}};
    for (const auto &[tech, n_stages] : plans) {
        const std::string plan = std::to_string(n_stages) + "-stage";
        PrimeSystem reference(tech);
        programNet(reference);
        ASSERT_EQ(reference.stages().size(), n_stages);
        const std::vector<nn::Tensor> expected = runEach(reference, inputs);
        for (int threads : {1, 2, 4, 8}) {
            ThreadPool::setGlobalThreadCount(threads);
            PrimeSystem prime(tech);
            programNet(prime);
            const std::string where =
                plan + " threads=" + std::to_string(threads);
            expectSameBits(
                prime.runBatch(std::span<const nn::Tensor>(inputs)),
                expected, where);
            if (n_stages == 1) {
                EXPECT_EQ(memoryState(prime), memoryState(reference))
                    << where;
            }
        }
        ThreadPool::setGlobalThreadCount(0);
    }
}

/** memoryState of a fresh tiny-bank system after one pipelined batch
 *  of @p images at @p threads. */
std::string
pipelinedTiming(int threads, std::size_t images)
{
    ThreadPool::setGlobalThreadCount(threads);
    PrimeSystem prime(tinyBankParams());
    programNet(prime);
    const std::vector<nn::Tensor> inputs = sampleInputs(images);
    (void)prime.runBatch(std::span<const nn::Tensor>(inputs));
    return memoryState(prime);
}

TEST(PipelineEngine, TimingPassDeterministicAcrossThreadsAndSystems)
{
    // A pipelined batch's Fetch/Commit timing is replayed after the
    // stages finish, in one fixed wavefront order: the modeled memory
    // fields do not depend on the pool size or on which pool threads
    // ran which stage.
    const std::string want = pipelinedTiming(1, 12);
    EXPECT_NE(want.find("mem.reads"), std::string::npos);
    for (int threads : {1, 4, 8})
        for (int system = 0; system < 2; ++system)
            EXPECT_EQ(pipelinedTiming(threads, 12), want)
                << "threads=" << threads << " system " << system;
    ThreadPool::setGlobalThreadCount(0);
}

TEST(PipelineEngine, BackToBackBatchesAndRemaps)
{
    // Back-to-back batches on one system.  The sizes cover a single
    // image (fewer chunks than stages), partial chunks (3, 9, 17 are
    // not multiples of kHandoffBatch) and more chunks than stages.
    const std::vector<std::size_t> sizes = {1, 3, 4, 9, 17};
    PrimeSystem prime(tinyBankParams());
    programNet(prime);
    ASSERT_EQ(prime.stages().size(), 4u);
    ASSERT_GT(sizes.back(), prime.stages().size() * kHandoffBatch);

    std::uint64_t batches = 0, samples = 0;
    auto run_all = [&](const std::string &plan) {
        for (int threads : {1, 4, 8}) {
            ThreadPool::setGlobalThreadCount(threads);
            for (std::size_t n : sizes) {
                const std::vector<nn::Tensor> inputs = sampleInputs(n);
                const std::vector<nn::Tensor> expected =
                    runEach(prime, inputs);
                expectSameBits(
                    prime.runBatch(std::span<const nn::Tensor>(inputs)),
                    expected,
                    plan + " threads=" + std::to_string(threads) +
                        " n=" + std::to_string(n));
                ++batches;
                samples += n;
            }
        }
        ThreadPool::setGlobalThreadCount(0);
        EXPECT_EQ(prime.stats().get("pipeline.batches").count(), batches)
            << plan;
        EXPECT_EQ(prime.stats().get("pipeline.samples").count(), samples)
            << plan;
    };
    run_all("4-stage");

    // Remap onto a three-bank plan: the steps follow the new stage
    // count and the outputs stay bit-identical.
    const nn::Topology three =
        nn::parseTopology("mlp-3stage", "64-256-256-10", 1, 8, 8);
    Rng rng(5);
    const nn::Network net = nn::buildNetwork(three, rng);
    prime.release();
    prime.mapTopology(three);
    prime.programWeight(net);
    prime.configDatapath();
    ASSERT_EQ(prime.stages().size(), 3u);
    run_all("3-stage");
}

TEST(PipelineEngine, RunBatchInsideParallelForMatchesRun)
{
    // Inside a pool job every step's parallelFor runs inline, so a
    // nested runBatch runs its steps one after another on the job's
    // thread, in the same wavefront order.  Two systems batch at once,
    // one per job of a pool of their own, on every global pool size.
    const std::vector<nn::Tensor> inputs = sampleInputs(13);
    PrimeSystem a(tinyBankParams());
    PrimeSystem b(tinyBankParams());
    programNet(a);
    programNet(b);
    const std::vector<nn::Tensor> expected = runEach(a, inputs);
    ThreadPool pool(2);
    for (int threads : {1, 4}) {
        ThreadPool::setGlobalThreadCount(threads);
        std::vector<nn::Tensor> got[2];
        pool.parallelFor(2, [&](std::size_t i) {
            got[i] = (i == 0 ? a : b)
                         .runBatch(std::span<const nn::Tensor>(inputs));
        });
        expectSameBits(got[0], expected,
                       "system a, threads=" + std::to_string(threads));
        expectSameBits(got[1], expected,
                       "system b, threads=" + std::to_string(threads));
    }
    ThreadPool::setGlobalThreadCount(0);
}

TEST(PipelineEngine, StatsAccountForEveryStageExecution)
{
    PrimeSystem prime(tinyBankParams());
    programNet(prime);
    const std::vector<nn::Tensor> inputs = sampleInputs(16);
    ThreadPool::setGlobalThreadCount(4);
    prime.runBatch(std::span<const nn::Tensor>(inputs));
    ThreadPool::setGlobalThreadCount(0);

    StatGroup &stats = prime.stats();
    const std::size_t n = inputs.size();
    const std::size_t n_stages = prime.stages().size();
    EXPECT_EQ(stats.get("pipeline.samples").count(), n);
    EXPECT_EQ(stats.get("pipeline.batches").count(), 1u);
    // Every sample crosses every stage exactly once, and completes
    // once.
    EXPECT_EQ(stats.histogram("pipeline.stage_ns").count(),
              static_cast<std::uint64_t>(n * n_stages));
    EXPECT_EQ(stats.histogram("pipeline.e2e_latency_ns").count(), n);
    EXPECT_GT(stats.get("pipeline.measured_bottleneck_ns").sum(), 0.0);
    // Per-stage executor counters: every stage saw every sample and
    // accumulated nonzero busy time in the attribution.
    StatGroup &attr = stats.child("pipeline.attribution");
    for (std::size_t s = 0; s < n_stages; ++s) {
        const std::string prefix =
            "pipeline.stage" + std::to_string(s);
        EXPECT_EQ(stats.get(prefix + ".items").count(), n) << s;
        EXPECT_EQ(stats.histogram(prefix + ".service_ns").count(), n)
            << s;
        EXPECT_GT(attr.get("stage" + std::to_string(s) + ".busy_ns").sum(),
                  0.0)
            << s;
    }
    // Sequential-path parity for the inference counter.
    EXPECT_EQ(stats.get("run.inferences").count(), n);
}

TEST(PipelineEngine, FlightRecorderPopulatesHistograms)
{
    PrimeSystem prime(tinyBankParams());
    programNet(prime);
    const std::vector<nn::Tensor> inputs = sampleInputs(12);
    ThreadPool::setGlobalThreadCount(4);
    prime.runBatch(std::span<const nn::Tensor>(inputs));
    ThreadPool::setGlobalThreadCount(0);

    StatGroup &stats = prime.stats();
    const std::size_t n = inputs.size();
    const std::size_t n_stages = prime.stages().size();
    // Every completed sample records one end-to-end latency.
    const telemetry::Histogram &e2e =
        stats.histogram("pipeline.e2e_latency_ns");
    EXPECT_EQ(e2e.count(), n);
    EXPECT_GT(e2e.quantile(0.50), 0.0);
    EXPECT_LE(e2e.quantile(0.50), e2e.quantile(0.99));
    // Service histogram: one sample per image per stage.
    for (std::size_t s = 0; s < n_stages; ++s)
        EXPECT_EQ(stats
                      .histogram("pipeline.stage" + std::to_string(s) +
                                 ".service_ns")
                      .count(),
                  n)
            << s;
    // The attribution section splits the batch's step time, the same
    // wall for every stage, into busy, the fill before a stage's first
    // chunk (stall-upstream), the drain after its last
    // (stall-downstream) and the barrier wait in its own steps (idle).
    StatGroup &attr = stats.child("pipeline.attribution");
    const double wall = attr.get("stage0.wall_ns").sum();
    EXPECT_GT(wall, 0.0);
    for (std::size_t s = 0; s < n_stages; ++s) {
        const std::string stage = "stage" + std::to_string(s);
        const double busy = attr.get(stage + ".busy_ns").sum();
        const double stall_up =
            attr.get(stage + ".stall_upstream_ns").sum();
        const double stall_down =
            attr.get(stage + ".stall_downstream_ns").sum();
        const double idle = attr.get(stage + ".idle_ns").sum();
        EXPECT_EQ(attr.get(stage + ".wall_ns").sum(), wall) << s;
        EXPECT_GT(busy, 0.0) << s;
        EXPECT_GE(idle, 0.0) << s;
        EXPECT_NEAR(busy + stall_up + stall_down + idle, wall,
                    1e-9 * wall)
            << s;
        // Only later stages wait for the fill, only earlier ones for
        // the drain.
        if (s == 0)
            EXPECT_EQ(stall_up, 0.0);
        else
            EXPECT_GT(stall_up, 0.0) << s;
        if (s + 1 == n_stages)
            EXPECT_EQ(stall_down, 0.0);
        else
            EXPECT_GT(stall_down, 0.0) << s;
    }
}

TEST(PipelineEngine, BitIdenticalWithMetricsEnabled)
{
    PrimeSystem prime(tinyBankParams());
    programNet(prime);
    const std::vector<nn::Tensor> inputs = sampleInputs(12);
    const std::vector<nn::Tensor> expected = runEach(prime, inputs);

    // Full observability on: the sampler thread ticks every ms over the
    // system's stats (the pipeline's live stage formulas among them)
    // and the per-bank memory occupancy while the batches run.
    // Outputs must stay bit-identical to the unobserved sequential
    // reference.
    telemetry::MetricsRegistry registry;
    registry.enable();
    registry.watch(prime.stats());
    registry.watch(prime.mainMemory().occupancy());
    registry.startSampler(1);

    for (int threads : {1, 4, 8}) {
        ThreadPool::setGlobalThreadCount(threads);
        expectSameBits(prime.runBatch(std::span<const nn::Tensor>(inputs)),
                       expected, "threads=" + std::to_string(threads));
    }
    ThreadPool::setGlobalThreadCount(0);

    registry.stopSampler();
    ASSERT_GE(registry.snapshotCount(), 2u);
    // The sampled series carry the memory occupancy and the pipeline's
    // declarations with their kinds; stage items count every sample
    // of the three batches.
    const std::size_t n_stages = prime.stages().size();
    ASSERT_GE(n_stages, 2u);
    std::map<std::string, telemetry::MetricsRegistry::SeriesSummary>
        series;
    for (const auto &s : registry.summarize())
        series[s.name] = s;
    EXPECT_EQ(series.count("mem.bank0.backlog_ns"), 1u);
    EXPECT_EQ(series["mem.bank0.reads"].kind, MetricKind::Counter);
    for (std::size_t s = 0; s < n_stages; ++s) {
        const std::string stage = "pipeline.stage" + std::to_string(s);
        ASSERT_EQ(series.count(stage + ".state"), 1u) << s;
        EXPECT_EQ(series[stage + ".state"].kind, MetricKind::Gauge);
        EXPECT_EQ(series[stage + ".items"].kind, MetricKind::Counter);
        EXPECT_EQ(series[stage + ".items"].last, 3.0 * inputs.size())
            << s;
        EXPECT_GE(series[stage + ".state"].min, 0.0) << s;
        EXPECT_LE(series[stage + ".state"].max, 4.0) << s;
    }

    // Unwatched groups are never touched again.
    registry.unwatch(prime.stats());
    registry.unwatch(prime.mainMemory().occupancy());
    registry.clear();
    ASSERT_TRUE(registry.sampleOnce());
    EXPECT_TRUE(registry.summarize().empty());
}

TEST(PipelineEngine, AnalyticStageCostsCrossCheck)
{
    PrimeSystem prime(tinyBankParams());
    const mapping::MappingPlan &plan =
        prime.mapTopology(pipelinedSetup().topology);
    sim::PrimeModel model(tinyBankParams());
    const std::vector<Ns> costs =
        model.stageCosts(pipelinedSetup().topology, plan);
    const auto stages =
        plan.pipelineStages(pipelinedSetup().topology.layers.size());
    ASSERT_EQ(costs.size(), stages.size());
    Ns total = 0.0, bottleneck = 0.0;
    for (Ns c : costs) {
        EXPECT_GT(c, 0.0);
        total += c;
        bottleneck = std::max(bottleneck, c);
    }
    // Stage costs partition the per-layer times evaluate() sums, so
    // their total matches the layer-cost traversal and the bottleneck
    // stage bounds the per-image pipeline interval from below.
    const std::vector<sim::PrimeLayerCost> layer_costs =
        model.layerCosts(plan);
    Ns layer_total = 0.0;
    for (const sim::PrimeLayerCost &c : layer_costs)
        layer_total += c.mvmTime +
                       std::max(0.0, c.bufferTime - c.mvmTime);
    EXPECT_NEAR(total, layer_total, 1e-9 * std::max(1.0, layer_total));
    EXPECT_LE(bottleneck, layer_total);
}

TEST(PipelineEngine, Table3WorkloadsBatchMatchSequential)
{
    // Table 3 workloads that fit the functional model (VGG-D's ~2k mats
    // exceed what the in-process crossbars can instantiate; it stays
    // analytic-only).  These map single-bank on the default geometry,
    // so runBatch steps their one stage image after image.
    for (const char *name :
         {"CNN-1", "CNN-2", "MLP-S", "MLP-M", "MLP-L"}) {
        nn::Topology topo = nn::mlBenchByName(name);
        Rng rng(3);
        nn::Network net = nn::buildNetwork(topo, rng);
        PrimeSystem prime;
        prime.mapTopology(topo);
        prime.programWeight(net);
        prime.configDatapath();
        EXPECT_EQ(prime.stages().size(), 1u) << name;

        nn::SyntheticMnistOptions o;
        o.seed = 17;
        nn::SyntheticMnist gen(o);
        std::vector<nn::Sample> samples = gen.generate(2);
        std::vector<nn::Tensor> inputs;
        for (const nn::Sample &s : samples)
            inputs.push_back(s.input);
        const std::vector<nn::Tensor> expected = runEach(prime, inputs);
        for (int threads : {1, 4, 8}) {
            ThreadPool::setGlobalThreadCount(threads);
            expectSameBits(
                prime.runBatch(std::span<const nn::Tensor>(inputs)),
                expected,
                std::string(name) + " threads=" + std::to_string(threads));
        }
        ThreadPool::setGlobalThreadCount(0);
    }
}

} // namespace
} // namespace prime::core
