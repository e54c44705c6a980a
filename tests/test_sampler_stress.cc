/**
 * @file
 * Stress test of the metrics sampling contract (telemetry/metrics.hh):
 * one thread ticks sampleOnce() in a loop over the watched groups of a
 * pipelined system, its memory occupancy and a serving engine, while
 * pipelined runBatch calls (and a remap between them), a serving run
 * and a third thread creating new entries in a watched group all run
 * concurrently.  The assertions
 * check the outputs stay bit-identical; the race check itself is the
 * ThreadSanitizer build (CI runs this binary there with
 * --gtest_repeat=10).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/telemetry/metrics.hh"
#include "common/thread_pool.hh"
#include "nn/topology.hh"
#include "prime/prime_system.hh"
#include "serve/serving_engine.hh"

namespace prime {
namespace {

/** MLP-S-like 4-layer net spread over 4 banks: 1 mat per bank. */
struct StressSetup
{
    nvmodel::TechParams tech = [] {
        nvmodel::TechParams t = nvmodel::defaultTechParams();
        t.geometry.ffSubarraysPerBank = 1;
        t.geometry.matsPerSubarray = 1;
        return t;
    }();
    nn::Topology topology = nn::parseTopology(
        "mlp-4stage", "64-256-256-256-10", 1, 8, 8);
    nn::Network net;
    std::vector<nn::Tensor> inputs;

    StressSetup()
    {
        Rng rng(7);
        net = nn::buildNetwork(topology, rng);
        Rng input_rng(11);
        for (int i = 0; i < 8; ++i) {
            nn::Tensor t({1, 8, 8});
            for (std::size_t k = 0; k < t.size(); ++k)
                t[k] = input_rng.uniform(0.0, 1.0);
            inputs.push_back(std::move(t));
        }
    }

    void
    program(core::PrimeSystem &prime) const
    {
        prime.mapTopology(topology);
        prime.programWeight(net);
        prime.configDatapath();
    }
};

void
expectSameBits(const std::vector<nn::Tensor> &got,
               const std::vector<nn::Tensor> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].size(), want[i].size());
        for (std::size_t k = 0; k < got[i].size(); ++k)
            EXPECT_EQ(got[i][k], want[i][k]) << i << "/" << k;
    }
}

TEST(SamplerStress, TicksRaceFreeAgainstPipelineServingAndNewEntries)
{
    const StressSetup setup;
    for (int threads : {4, 8}) {
        ThreadPool::setGlobalThreadCount(threads);
        // Two systems: the serving engine's scheduler is the only
        // thread allowed to call into the one it wraps.
        core::PrimeSystem batched(setup.tech);
        core::PrimeSystem served(setup.tech);
        setup.program(batched);
        setup.program(served);
        ASSERT_GE(batched.stages().size(), 2u);
        std::vector<nn::Tensor> expected;
        for (const nn::Tensor &in : setup.inputs)
            expected.push_back(batched.run(in));

        serve::ServingOptions sopt;
        sopt.maxBatch = 4;
        serve::ServingEngine engine(served, sopt);

        telemetry::MetricsRegistry registry;
        registry.enable();
        registry.watch(batched.stats());
        registry.watch(batched.mainMemory().occupancy());
        registry.watch(engine.stats());

        std::atomic<bool> stop{false};
        std::thread sampler([&] {
            while (!stop.load(std::memory_order_acquire)) {
                registry.sampleOnce();
                std::this_thread::yield();
            }
        });
        // New names in a watched group: map insertions racing the
        // sampler's walk (and the pipeline's own post-batch merges).
        std::thread creator([&] {
            for (int i = 0; i < 200; ++i)
                batched.stats()
                    .get("stress.entry" + std::to_string(i))
                    .increment();
        });

        engine.start();
        std::atomic<int> completed{0};
        for (const nn::Tensor &in : setup.inputs)
            EXPECT_TRUE(engine
                            .trySubmit(in,
                                       [&completed](serve::Response &&) {
                                           completed.fetch_add(
                                               1,
                                               std::memory_order_relaxed);
                                       })
                            .has_value());
        for (int round = 0; round < 3; ++round)
            expectSameBits(batched.runBatch(std::span<const nn::Tensor>(
                               setup.inputs)),
                           expected);
        // Remap while the sampler reads the stage gauges: the stage
        // contexts their formulas point into are reset in place.
        batched.release();
        setup.program(batched);
        expectSameBits(
            batched.runBatch(std::span<const nn::Tensor>(setup.inputs)),
            expected);
        engine.stop();
        creator.join();
        stop.store(true, std::memory_order_release);
        sampler.join();

        EXPECT_EQ(completed.load(std::memory_order_relaxed),
                  static_cast<int>(setup.inputs.size()));
        ASSERT_GE(registry.snapshotCount(), 1u);
        ASSERT_TRUE(registry.sampleOnce());
        bool saw_stage = false, saw_entry = false, saw_serving = false;
        for (const auto &s : registry.summarize()) {
            saw_stage |= s.name == "pipeline.stage0.state";
            saw_entry |= s.name == "stress.entry199";
            saw_serving |= s.name == "serving.completed";
        }
        EXPECT_TRUE(saw_stage);
        EXPECT_TRUE(saw_entry);
        EXPECT_TRUE(saw_serving);
    }
    ThreadPool::setGlobalThreadCount(0);
}

} // namespace
} // namespace prime
