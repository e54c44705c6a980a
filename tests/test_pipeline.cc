/**
 * @file
 * Inter-bank pipeline executor tests: the SPSC ring primitive (checked
 * against a mutex-based reference queue), stage extraction from the
 * plan, bit-identity of the free-running batch path against sequential
 * run() across thread counts, batch sizes and remaps on the persistent
 * stage pool, executor stats, and the analytic stage-cost cross-check.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/spsc_ring.hh"
#include "common/telemetry/metrics.hh"
#include "common/thread_pool.hh"
#include "nn/dataset.hh"
#include "prime/pipeline.hh"
#include "prime/prime_system.hh"
#include "sim/prime_model.hh"

namespace prime::core {
namespace {

// ------------------------------------------------------ SpscRing -----

/** Mutex-based bounded FIFO with the exact SpscRing interface: the
 *  reference implementation the lock-free ring is checked against. */
class ReferenceRing
{
  public:
    explicit ReferenceRing(std::size_t capacity) : capacity_(capacity) {}

    bool
    tryPush(int &&value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (queue_.size() == capacity_)
            return false;
        queue_.push_back(value);
        return true;
    }

    bool
    tryPop(int &out)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (queue_.empty())
            return false;
        out = queue_.front();
        queue_.pop_front();
        return true;
    }

  private:
    std::size_t capacity_;
    std::mutex mutex_;
    std::deque<int> queue_;
};

TEST(SpscRing, FullAndEmptyBoundaries)
{
    SpscRing<int> ring(3);
    EXPECT_EQ(ring.capacity(), 3u);
    EXPECT_TRUE(ring.empty());
    int out = -1;
    EXPECT_FALSE(ring.tryPop(out));  // empty pop fails

    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(ring.tryPush(int{i})) << i;
    }
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_FALSE(ring.tryPush(99));  // full push fails...
    EXPECT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out, 0);
    EXPECT_TRUE(ring.tryPush(3));    // ...and succeeds after a pop
    for (int want : {1, 2, 3}) {
        ASSERT_TRUE(ring.tryPop(out));
        EXPECT_EQ(out, want);
    }
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, WraparoundMatchesMutexReference)
{
    // A deterministic push/pop script that forces many wraparounds on a
    // tiny ring; every outcome (accepted/rejected, popped value) must
    // match the mutex-based reference queue exactly.
    SpscRing<int> ring(3);
    ReferenceRing reference(3);
    Rng rng(42);
    int next = 0;
    for (int step = 0; step < 2000; ++step) {
        if (rng.uniform(0.0, 1.0) < 0.55) {
            const bool a = ring.tryPush(int{next});
            const bool b = reference.tryPush(int{next});
            EXPECT_EQ(a, b) << "push step " << step;
            if (a)
                ++next;
        } else {
            int got = -1, want = -1;
            const bool a = ring.tryPop(got);
            const bool b = reference.tryPop(want);
            ASSERT_EQ(a, b) << "pop step " << step;
            if (a) {
                EXPECT_EQ(got, want) << "pop step " << step;
            }
        }
    }
}

TEST(SpscRing, TwoThreadOrderingAndCompleteness)
{
    // One producer, one consumer (the SPSC contract): every value
    // arrives, in push order, across many wraparounds of a small ring.
    constexpr int kCount = 20000;
    SpscRing<int> ring(4);
    std::vector<int> received;
    received.reserve(kCount);
    std::thread consumer([&] {
        int out = -1;
        while (static_cast<int>(received.size()) < kCount) {
            if (ring.tryPop(out))
                received.push_back(out);
            else
                std::this_thread::yield();
        }
    });
    for (int i = 0; i < kCount; ++i)
        while (!ring.tryPush(int{i}))
            std::this_thread::yield();
    consumer.join();
    ASSERT_EQ(received.size(), static_cast<std::size_t>(kCount));
    for (int i = 0; i < kCount; ++i) {
        ASSERT_EQ(received[static_cast<std::size_t>(i)], i) << i;
    }
}

TEST(SpscRing, FailedPushLeavesValueIntact)
{
    // tryPush takes an rvalue but must not consume it on failure (the
    // executor re-offers the same batch until the ring has room).
    SpscRing<std::vector<int>> ring(1);
    EXPECT_TRUE(ring.tryPush(std::vector<int>{1, 2, 3}));
    std::vector<int> batch{4, 5, 6};
    EXPECT_FALSE(ring.tryPush(std::move(batch)));
    EXPECT_EQ(batch.size(), 3u);  // still ours
    std::vector<int> out;
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(ring.tryPush(std::move(batch)));
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out, (std::vector<int>{4, 5, 6}));
}

TEST(SpscRing, ApproxSizeTracksOccupancy)
{
    SpscRing<int> ring(4);
    EXPECT_EQ(ring.approxSize(), 0u);
    EXPECT_TRUE(ring.tryPush(1));
    EXPECT_TRUE(ring.tryPush(2));
    EXPECT_EQ(ring.approxSize(), 2u);  // exact for the owning thread
    int out = 0;
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_EQ(ring.approxSize(), 1u);

    // Probed from a third thread while both sides hammer the ring
    // (the metrics sampler's usage), the relaxed estimate must stay in
    // [0, capacity] -- and the probe must be TSan-clean.
    constexpr int kCount = 20000;
    std::atomic<bool> done{false};
    std::thread prober([&] {
        while (!done.load(std::memory_order_relaxed)) {
            const std::size_t n = ring.approxSize();
            EXPECT_LE(n, ring.capacity());
        }
    });
    std::thread consumer([&] {
        int v = 0;
        for (int received = 0; received < kCount + 1; ++received) {
            while (!ring.tryPop(v))
                std::this_thread::yield();
        }
    });
    for (int i = 0; i < kCount; ++i)
        while (!ring.tryPush(int{i}))
            std::this_thread::yield();
    consumer.join();
    done.store(true, std::memory_order_relaxed);
    prober.join();
    EXPECT_EQ(ring.approxSize(), 0u);
}

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

/** Fresh programmed system on the tiny 4-bank geometry. */
void
programTiny(PrimeSystem &prime)
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

TEST(PipelineEngine, BatchBitIdenticalAcrossThreadCounts)
{
    PrimeSystem prime(tinyBankParams());
    programTiny(prime);
    ASSERT_EQ(prime.stages().size(), 4u);

    const std::vector<nn::Tensor> inputs = sampleInputs(12);
    const std::vector<nn::Tensor> expected = runEach(prime, inputs);
    for (int threads : {1, 4, 8}) {
        ThreadPool::setGlobalThreadCount(threads);
        expectSameBits(prime.runBatch(std::span<const nn::Tensor>(inputs)),
                       expected, "threads=" + std::to_string(threads));
    }
    ThreadPool::setGlobalThreadCount(0);
}

/**
 * The modeled memory side of a fresh tiny-bank system after one
 * pipelined batch of @p images at @p threads: the mem.* stats
 * document, every channel's histogram sums and cursor, and the PRIME
 * progress, the doubles in hex so equality is bit equality.
 */
std::string
pipelinedTiming(int threads, std::size_t images)
{
    ThreadPool::setGlobalThreadCount(threads);
    PrimeSystem prime(tinyBankParams());
    programTiny(prime);
    const std::vector<nn::Tensor> inputs = sampleInputs(images);
    (void)prime.runBatch(std::span<const nn::Tensor>(inputs));
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

TEST(PipelineEngine, TimingPassDeterministicAcrossThreadsAndSystems)
{
    // A pipelined batch's Fetch/Commit timing is replayed after the
    // stages finish, in one fixed wavefront order: the modeled memory
    // fields do not depend on the thread count or on how the stage
    // threads interleaved.
    const std::string want = pipelinedTiming(1, 12);
    EXPECT_NE(want.find("mem.reads"), std::string::npos);
    for (int threads : {1, 4, 8})
        for (int system = 0; system < 2; ++system)
            EXPECT_EQ(pipelinedTiming(threads, 12), want)
                << "threads=" << threads << " system " << system;
    ThreadPool::setGlobalThreadCount(0);
}

TEST(PipelineEngine, PersistentStagePoolAcrossBatchesAndRemaps)
{
    // Back-to-back batches reuse one stage pool.  The sizes cover a
    // single image, partial handoffs (3, 9, 17 are not multiples of
    // kHandoffBatch) and backpressure beyond the kRingSlots *
    // kHandoffBatch samples one ring holds.
    const std::vector<std::size_t> sizes = {1, 3, 4, 9, 17};
    PrimeSystem prime(tinyBankParams());
    programTiny(prime);
    ASSERT_EQ(prime.stages().size(), 4u);
    ASSERT_GT(sizes.back(), kRingSlots * kHandoffBatch);

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

    // Remap onto a three-bank plan: the pool is rebuilt for the new
    // stage count and the outputs stay bit-identical.
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

TEST(PipelineEngineDeathTest, RunBatchInsideParallelForAsserts)
{
    // Inside a pool job a nested parallelFor runs inline, so the stages
    // would run one after another and stage 0 would block forever on a
    // full ring; runBatch must fail loudly instead of hanging.
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    PrimeSystem prime(tinyBankParams());
    programTiny(prime);
    // More samples than the rings hold, so without the guard stage 0
    // would block.
    const std::vector<nn::Tensor> inputs =
        sampleInputs(4 * kRingSlots * kHandoffBatch);
    ThreadPool pool(2);
    auto nested = [&](std::size_t) {
        prime.runBatch(std::span<const nn::Tensor>(inputs));
    };
    EXPECT_DEATH(pool.parallelFor(2, nested),
                 "must not be called from inside a parallelFor body");
}

TEST(PipelineEngine, StatsAccountForEveryStageExecution)
{
    PrimeSystem prime(tinyBankParams());
    programTiny(prime);
    const std::vector<nn::Tensor> inputs = sampleInputs(16);
    ThreadPool::setGlobalThreadCount(4);
    prime.runBatch(std::span<const nn::Tensor>(inputs));
    ThreadPool::setGlobalThreadCount(0);

    StatGroup &stats = prime.stats();
    const std::size_t n = inputs.size();
    const std::size_t n_stages = prime.stages().size();
    EXPECT_EQ(stats.get("pipeline.samples").count(), n);
    EXPECT_EQ(stats.get("pipeline.batches").count(), 1u);
    // Every sample crosses every stage exactly once.
    EXPECT_EQ(stats.histogram("pipeline.stage_ns").count(),
              static_cast<std::uint64_t>(n * n_stages));
    // Batched handoffs: each non-last stage pushes ceil(n / handoff)
    // batches downstream, which together carry every sample.
    const std::size_t per_stage = (n + kHandoffBatch - 1) / kHandoffBatch;
    EXPECT_EQ(stats.get("pipeline.handoffs").count(),
              per_stage * (n_stages - 1));
    EXPECT_EQ(stats.histogram("pipeline.handoff_items").count(),
              per_stage * (n_stages - 1));
    EXPECT_EQ(stats.histogram("pipeline.handoff_items").sum(),
              static_cast<double>(n * (n_stages - 1)));
    EXPECT_GT(stats.get("pipeline.measured_bottleneck_ns").sum(), 0.0);
    // Per-stage executor counters: every stage saw every sample and
    // accumulated nonzero busy time.
    for (std::size_t s = 0; s < n_stages; ++s) {
        const std::string prefix =
            "pipeline.stage" + std::to_string(s);
        EXPECT_EQ(stats.get(prefix + ".items").count(), n) << s;
        EXPECT_GT(stats.get(prefix + ".busy_ns").sum(), 0.0) << s;
    }
    // Sequential-path parity for the inference counter.
    EXPECT_EQ(stats.get("run.inferences").count(), n);
}

TEST(PipelineEngine, FlightRecorderPopulatesHistograms)
{
    PrimeSystem prime(tinyBankParams());
    programTiny(prime);
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
    for (std::size_t s = 0; s < n_stages; ++s) {
        const std::string prefix =
            "pipeline.stage" + std::to_string(s);
        // Service histogram: one sample per tile per stage.
        EXPECT_EQ(stats.histogram(prefix + ".service_ns").count(), n)
            << s;
        // Queue wait exists for every ring consumer (stages >= 1) and
        // is never sampled for the batch-slicing stage 0.
        const telemetry::Histogram &wait =
            stats.histogram(prefix + ".queue_wait_ns");
        if (s == 0)
            EXPECT_EQ(wait.count(), 0u);
        else
            EXPECT_EQ(wait.count(), n) << s;
    }
    // The attribution section decomposes each worker's wall time.
    StatGroup &attr = stats.child("pipeline.attribution");
    for (std::size_t s = 0; s < n_stages; ++s) {
        const std::string stage = "stage" + std::to_string(s);
        const double busy = attr.get(stage + ".busy_ns").sum();
        const double stall_up =
            attr.get(stage + ".stall_upstream_ns").sum();
        const double stall_down =
            attr.get(stage + ".stall_downstream_ns").sum();
        const double idle = attr.get(stage + ".idle_ns").sum();
        const double wall = attr.get(stage + ".wall_ns").sum();
        EXPECT_GT(busy, 0.0) << s;
        EXPECT_GT(wall, 0.0) << s;
        EXPECT_GE(stall_up, 0.0) << s;
        EXPECT_GE(stall_down, 0.0) << s;
        EXPECT_GE(idle, 0.0) << s;
        // busy + stalls never exceed the measured wall (idle absorbs
        // the remainder and is clamped at zero).
        EXPECT_LE(busy + stall_up + stall_down, wall * 1.05 + 1e4)
            << s;
    }
}

TEST(PipelineEngine, BitIdenticalWithMetricsEnabled)
{
    PrimeSystem prime(tinyBankParams());
    programTiny(prime);
    const std::vector<nn::Tensor> inputs = sampleInputs(12);
    const std::vector<nn::Tensor> expected = runEach(prime, inputs);

    // Full observability on: the sampler thread ticks every ms over the
    // system's stats (the pipeline's live ring/stage formulas among
    // them) and the per-bank memory occupancy while the batches run.
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
        if (s + 1 < n_stages) {
            const std::string ring =
                "pipeline.ring" + std::to_string(s) + ".depth";
            ASSERT_EQ(series.count(ring), 1u) << s;
            EXPECT_EQ(series[ring].last, 0.0) << s;  // drained
        }
    }
    EXPECT_EQ(series.count("pipeline.ring" + std::to_string(n_stages - 1) +
                           ".depth"),
              0u);

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
    // so runBatch must reduce to exactly the sequential path.
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
