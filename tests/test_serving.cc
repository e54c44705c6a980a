/**
 * @file
 * Serving-engine tests over a real 4-bank pipelined PrimeSystem:
 * admission control / shed-load semantics (an exact queue capacity,
 * while a batch is executing, and for mis-sized inputs), batches of
 * whatever is queued up to maxBatch, latency histograms, per-producer
 * FIFO order across concurrent submitters, exactly-once completion
 * when stop() races submissions (both meant to run under TSan), and
 * bit-identity of served outputs against sequential run() at 1/2/4/8
 * thread-pool threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/telemetry/metrics.hh"
#include "common/thread_pool.hh"
#include "nn/dataset.hh"
#include "prime/prime_system.hh"
#include "serve/load_generator.hh"
#include "serve/serving_engine.hh"

namespace prime::serve {
namespace {

// ------------------------------------------------- ServingEngine -----

/** One FF mat per bank: four weighted layers -> four bank stages. */
nvmodel::TechParams
tinyBankParams()
{
    nvmodel::TechParams tech = nvmodel::defaultTechParams();
    tech.geometry.ffSubarraysPerBank = 1;
    tech.geometry.matsPerSubarray = 1;
    return tech;
}

struct ServingSetup
{
    nn::Topology topology = nn::parseTopology(
        "mlp-4stage", "64-256-256-256-10", 1, 8, 8);
    nn::Network net;
    std::vector<nn::Tensor> inputs;

    ServingSetup()
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

ServingSetup &
servingSetup()
{
    static ServingSetup instance;
    return instance;
}

void
programTiny(core::PrimeSystem &prime)
{
    prime.mapTopology(servingSetup().topology);
    prime.programWeight(servingSetup().net);
    prime.configDatapath();
}

/** Thread-safe collector of completed responses, keyed by request id. */
struct Collector
{
    std::mutex mutex;
    std::map<std::uint64_t, Response> responses;

    CompletionFn
    sink()
    {
        return [this](Response &&r) {
            std::lock_guard<std::mutex> lock(mutex);
            responses.emplace(r.id, std::move(r));
        };
    }
};

TEST(ServingEngine, ShedsLoadWhenIngressFullAndCompletesAccepted)
{
    core::PrimeSystem prime(tinyBankParams());
    programTiny(prime);

    ServingOptions sopt;
    sopt.queueCapacity = 2;  // third pre-start submission must shed
    sopt.maxBatch = 4;
    ServingEngine engine(prime, sopt);
    Collector collector;

    const auto id0 =
        engine.trySubmit(servingSetup().inputs[0], collector.sink());
    const auto id1 =
        engine.trySubmit(servingSetup().inputs[1], collector.sink());
    const auto id2 =
        engine.trySubmit(servingSetup().inputs[2], collector.sink());
    ASSERT_TRUE(id0.has_value());
    ASSERT_TRUE(id1.has_value());
    EXPECT_FALSE(id2.has_value());  // explicit rejection, no blocking
    EXPECT_EQ(engine.accepted(), 2u);
    EXPECT_EQ(engine.rejected(), 1u);

    engine.start();
    engine.stop();  // drains the two accepted requests

    EXPECT_EQ(engine.completed(), 2u);
    EXPECT_EQ(collector.responses.size(), 2u);
    EXPECT_TRUE(collector.responses.count(*id0));
    EXPECT_TRUE(collector.responses.count(*id1));
    // Shed requests never complete and never invoke a callback.
    double shed = -1.0;
    ASSERT_TRUE(engine.stats().evalFormula("serving.shed_rate", shed));
    EXPECT_NEAR(shed, 1.0 / 3.0, 1e-9);
    // After stop() admission stays closed.
    EXPECT_FALSE(
        engine.trySubmit(servingSetup().inputs[0], nullptr).has_value());
}

TEST(ServingEngine, QueueCapacityIsExact)
{
    core::PrimeSystem prime(tinyBankParams());
    programTiny(prime);

    ServingOptions sopt;
    sopt.queueCapacity = 1;  // one queued request, not rounded up
    ServingEngine engine(prime, sopt);
    Collector collector;

    const auto first =
        engine.trySubmit(servingSetup().inputs[0], collector.sink());
    ASSERT_TRUE(first.has_value());
    EXPECT_FALSE(
        engine.trySubmit(servingSetup().inputs[1], collector.sink())
            .has_value());
    EXPECT_EQ(engine.accepted(), 1u);
    EXPECT_EQ(engine.rejected(), 1u);

    engine.start();
    engine.stop();
    EXPECT_EQ(engine.completed(), 1u);
    ASSERT_EQ(collector.responses.size(), 1u);
    EXPECT_TRUE(collector.responses.count(*first));
}

TEST(ServingEngine, ConcurrentProducersCompleteInSubmissionOrder)
{
    core::PrimeSystem prime(tinyBankParams());
    programTiny(prime);

    constexpr int kProducers = 4;
    constexpr int kPerProducer = 40;
    ServingOptions sopt;
    sopt.queueCapacity = kProducers * kPerProducer;  // nothing sheds
    sopt.maxBatch = 8;
    ServingEngine engine(prime, sopt);

    // Callbacks run serially on the scheduler thread; each one stamps
    // its request's position in the completion order.
    std::mutex mutex;
    std::vector<std::vector<int>> completedAt(
        kProducers, std::vector<int>(kPerProducer, -1));
    int completions = 0;

    engine.start();
    std::latch go(kProducers);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            go.arrive_and_wait();
            for (int i = 0; i < kPerProducer; ++i) {
                const auto id = engine.trySubmit(
                    servingSetup().inputs[static_cast<std::size_t>(
                        (p + i) % 16)],
                    [&, p, i](Response &&) {
                        std::lock_guard<std::mutex> lock(mutex);
                        completedAt[p][i] = completions++;
                    });
                EXPECT_TRUE(id.has_value()) << "producer " << p;
            }
        });
    }
    for (std::thread &t : producers)
        t.join();
    engine.stop();

    EXPECT_EQ(engine.completed(),
              static_cast<std::uint64_t>(kProducers * kPerProducer));
    for (int p = 0; p < kProducers; ++p) {
        // Each producer's requests complete in the order it submitted
        // them.
        for (int i = 0; i < kPerProducer; ++i) {
            ASSERT_GE(completedAt[p][i], 0)
                << "producer " << p << " request " << i;
            if (i > 0) {
                EXPECT_GT(completedAt[p][i], completedAt[p][i - 1])
                    << "producer " << p << " request " << i;
            }
        }
    }
}

TEST(ServingEngine, StopRacingSubmittersCompletesEachAcceptedOnce)
{
    core::PrimeSystem prime(tinyBankParams());
    programTiny(prime);

    ServingOptions sopt;
    sopt.queueCapacity = 32;
    sopt.maxBatch = 4;
    ServingEngine engine(prime, sopt);
    engine.start();

    // Producers submit without pause until stop() has returned, so
    // submissions race the close of admission and the final drain;
    // each then makes one last submission, which must be rejected.
    // Each callback names its submission, not just its id, so a
    // callback for a rejected submission would show.
    constexpr int kProducers = 4;
    std::atomic<bool> stopped{false};
    std::mutex mutex;
    std::map<std::pair<int, int>, int> calls;
    std::vector<std::vector<std::pair<int, std::uint64_t>>> accepted(
        kProducers);
    std::vector<std::vector<int>> rejected(kProducers);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0;; ++i) {
                const bool last = stopped.load(std::memory_order_acquire);
                const auto id = engine.trySubmit(
                    servingSetup().inputs[static_cast<std::size_t>(
                        i % 16)],
                    [&, p, i](Response &&) {
                        std::lock_guard<std::mutex> lock(mutex);
                        ++calls[{p, i}];
                    });
                if (id)
                    accepted[p].emplace_back(i, *id);
                else
                    rejected[p].push_back(i);
                if (last) {
                    EXPECT_FALSE(id.has_value()) << "producer " << p;
                    break;
                }
            }
        });
    }
    while (engine.accepted() < 64)
        std::this_thread::yield();
    engine.stop();
    stopped.store(true, std::memory_order_release);
    for (std::thread &t : producers)
        t.join();

    std::size_t n_accepted = 0, n_rejected = 0;
    std::map<std::uint64_t, int> ids;
    for (int p = 0; p < kProducers; ++p) {
        for (const auto &[i, id] : accepted[p]) {
            EXPECT_EQ(calls[std::make_pair(p, i)], 1)
                << "producer " << p << " submission " << i;
            ++ids[id];
        }
        for (int i : rejected[p])
            EXPECT_EQ(calls.count(std::make_pair(p, i)), 0u)
                << "rejected producer " << p << " submission " << i;
        n_accepted += accepted[p].size();
        n_rejected += rejected[p].size();
    }
    // Every accepted request got its own id and exactly one callback,
    // and the engine's counters agree with what the producers saw.
    EXPECT_EQ(ids.size(), n_accepted);
    EXPECT_EQ(calls.size(), n_accepted);
    EXPECT_EQ(engine.accepted(), n_accepted);
    EXPECT_EQ(engine.rejected(), n_rejected);
    EXPECT_EQ(engine.completed(), engine.accepted());
}

TEST(ServingEngine, ShedsWhileExecutorIsBusy)
{
    core::PrimeSystem prime(tinyBankParams());
    programTiny(prime);

    ServingOptions sopt;
    sopt.queueCapacity = 4;
    sopt.maxBatch = 1;
    ServingEngine engine(prime, sopt);
    engine.start();

    // Completion calls per request id: each accepted request must be
    // answered exactly once.
    std::mutex mutex;
    std::map<std::uint64_t, int> calls;
    auto count = [&](Response &&r) {
        std::lock_guard<std::mutex> lock(mutex);
        ++calls[r.id];
    };

    // The first request's callback holds the engine busy until the
    // latch opens.
    std::latch entered(1);
    std::latch release(1);
    const auto first = engine.trySubmit(
        servingSetup().inputs[0], [&](Response &&r) {
            count(std::move(r));
            entered.count_down();
            release.wait();
        });
    ASSERT_TRUE(first.has_value());
    entered.wait();

    // While it is busy, the queue is the only place requests can
    // wait: four fit, the fifth is shed.  The gaps give a scheduler
    // that kept draining the queue every chance to do so.
    std::vector<std::uint64_t> accepted{*first};
    int shed = 0;
    for (int i = 1; i <= 5; ++i) {
        const auto id = engine.trySubmit(servingSetup().inputs[i], count);
        if (id)
            accepted.push_back(*id);
        else
            ++shed;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(accepted.size(), 5u);  // the first + four queued
    EXPECT_EQ(shed, 1);

    release.count_down();
    engine.stop();

    EXPECT_EQ(engine.rejected(), 1u);
    EXPECT_EQ(engine.completed(), engine.accepted());
    EXPECT_EQ(calls.size(), accepted.size());
    for (std::uint64_t id : accepted)
        EXPECT_EQ(calls[id], 1) << "request " << id;
}

TEST(ServingEngine, RejectsMisSizedInputAtAdmission)
{
    core::PrimeSystem prime(tinyBankParams());
    programTiny(prime);
    const nn::Tensor &good = servingSetup().inputs[0];
    const nn::Tensor expected = prime.run(good);

    ServingOptions sopt;
    ServingEngine engine(prime, sopt);
    Collector collector;
    engine.start();

    // 63 and 65 elements around the model's 64 inputs: both are
    // rejected at admission, before the scheduler could run them.
    EXPECT_FALSE(
        engine.trySubmit(nn::Tensor({1, 7, 9}), collector.sink())
            .has_value());
    EXPECT_FALSE(
        engine.trySubmit(nn::Tensor({65}), collector.sink()).has_value());
    EXPECT_EQ(engine.rejected(), 2u);
    EXPECT_EQ(engine.accepted(), 0u);

    // The engine keeps serving well-formed requests.
    const auto id = engine.trySubmit(good, collector.sink());
    ASSERT_TRUE(id.has_value());
    engine.stop();

    EXPECT_EQ(engine.accepted(), 1u);
    EXPECT_EQ(engine.completed(), 1u);
    ASSERT_EQ(collector.responses.size(), 1u);
    const nn::Tensor &got = collector.responses.at(*id).output;
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t k = 0; k < got.size(); ++k)
        EXPECT_EQ(got[k], expected[k]) << "element " << k;
}

TEST(ServingEngine, CoalescesQueuedRequestsUpToMaxBatch)
{
    core::PrimeSystem prime(tinyBankParams());
    programTiny(prime);

    ServingOptions sopt;
    sopt.queueCapacity = 64;
    sopt.maxBatch = 4;
    ServingEngine engine(prime, sopt);
    Collector collector;

    // Pre-queue 10 requests, then start: the scheduler finds a backlog
    // and takes it maxBatch at a time.
    constexpr std::size_t kRequests = 10;
    for (std::size_t i = 0; i < kRequests; ++i)
        ASSERT_TRUE(engine
                        .trySubmit(servingSetup()
                                       .inputs[i % servingSetup()
                                                       .inputs.size()],
                                   collector.sink())
                        .has_value());
    engine.start();
    engine.stop();

    EXPECT_EQ(engine.completed(), kRequests);
    EXPECT_EQ(collector.responses.size(), kRequests);
    // The backlog runs as ceil(10/4) = 3 batches of 4, 4 and 2: every
    // batch takes all that is queued, up to the ceiling.
    EXPECT_EQ(engine.batches(), 3u);
    const telemetry::Histogram &sizes =
        engine.stats().histogram("serving.batch_size");
    EXPECT_EQ(sizes.count(), engine.batches());
    EXPECT_LE(sizes.max(), 4.0);
    std::size_t riders = 0;
    for (const auto &[id, r] : collector.responses) {
        EXPECT_LE(r.batchSize, 4u);
        EXPECT_GE(r.e2eNs, r.queueWaitNs);
        riders += r.batchSize > 1 ? 1 : 0;
    }
    // With a backlog, at least one batch actually coalesced.
    EXPECT_GT(riders, 0u);
    // Per-request latency histograms saw every accepted request.
    EXPECT_EQ(engine.stats()
                  .histogram("serving.e2e_latency_ns")
                  .count(),
              kRequests);
    EXPECT_EQ(engine.stats()
                  .histogram("serving.queue_wait_ns")
                  .count(),
              kRequests);
}

TEST(ServingEngine, ServedOutputsBitIdenticalAcrossPoolSizes)
{
    core::PrimeSystem prime(tinyBankParams());
    programTiny(prime);
    ASSERT_EQ(prime.stages().size(), 4u);

    // Sequential per-sample reference through run().
    const std::vector<nn::Tensor> &inputs = servingSetup().inputs;
    std::vector<nn::Tensor> expected;
    for (const nn::Tensor &in : inputs)
        expected.push_back(prime.run(in));

    for (int threads : {1, 2, 4, 8}) {
        ThreadPool::setGlobalThreadCount(threads);
        ServingOptions sopt;
        sopt.queueCapacity = 64;
        sopt.maxBatch = 5;  // batches straddle the input set unevenly
        ServingEngine engine(prime, sopt);
        Collector collector;

        engine.start();
        std::vector<std::uint64_t> ids;
        for (const nn::Tensor &in : inputs) {
            auto id = engine.trySubmit(in, collector.sink());
            ASSERT_TRUE(id.has_value()) << "threads=" << threads;
            ids.push_back(*id);
        }
        engine.stop();
        ThreadPool::setGlobalThreadCount(0);

        ASSERT_EQ(collector.responses.size(), inputs.size())
            << "threads=" << threads;
        for (std::size_t i = 0; i < ids.size(); ++i) {
            const auto it = collector.responses.find(ids[i]);
            ASSERT_NE(it, collector.responses.end())
                << "threads=" << threads << " sample=" << i;
            const nn::Tensor &got = it->second.output;
            ASSERT_EQ(got.size(), expected[i].size());
            for (std::size_t k = 0; k < got.size(); ++k)
                EXPECT_EQ(got[k], expected[i][k])
                    << "threads=" << threads << " sample=" << i
                    << " element=" << k;
        }
    }
}

TEST(ServingEngine, MetricsWatchAndUnwatch)
{
    core::PrimeSystem prime(tinyBankParams());
    programTiny(prime);

    ServingOptions sopt;
    ServingEngine engine(prime, sopt);
    telemetry::MetricsRegistry registry;
    registry.enable();
    registry.watch(engine.stats());

    engine.start();
    ASSERT_TRUE(
        engine.trySubmit(servingSetup().inputs[0], nullptr).has_value());
    engine.stop();

    ASSERT_TRUE(registry.sampleOnce());
    bool saw_depth = false, saw_accepted = false;
    for (const auto &series : registry.summarize()) {
        if (series.name == "serving.queue.depth") {
            saw_depth = true;
            EXPECT_EQ(series.kind, MetricKind::Gauge);
            EXPECT_EQ(series.last, 0.0);  // drained
        }
        if (series.name == "serving.accepted") {
            saw_accepted = true;
            EXPECT_EQ(series.kind, MetricKind::Counter);
            EXPECT_EQ(series.last, 1.0);
        }
    }
    EXPECT_TRUE(saw_depth);
    EXPECT_TRUE(saw_accepted);

    registry.unwatch(engine.stats());
    registry.clear();
    ASSERT_TRUE(registry.sampleOnce());
    for (const auto &series : registry.summarize())
        EXPECT_TRUE(series.name.rfind("serving.", 0) != 0)
            << series.name;
}

TEST(LoadGenerator, OffersEveryRequestAndCountsOutcomes)
{
    core::PrimeSystem prime(tinyBankParams());
    programTiny(prime);

    ServingOptions sopt;
    sopt.queueCapacity = 64;
    ServingEngine engine(prime, sopt);
    engine.start();

    LoadGenOptions lopt;
    lopt.targetQps = 4000.0;
    lopt.requests = 40;
    lopt.producerThreads = 3;  // multi-producer ingress path
    const LoadGenResult result = runOpenLoopLoad(
        engine,
        std::span<const nn::Tensor>(servingSetup().inputs), lopt);
    engine.stop();

    EXPECT_EQ(result.offered, 40u);
    EXPECT_EQ(result.accepted + result.rejected, 40u);
    EXPECT_EQ(result.accepted, engine.accepted());
    EXPECT_EQ(result.rejected, engine.rejected());
    EXPECT_EQ(engine.completed(), engine.accepted());
    EXPECT_GT(result.wallNs, 0.0);
}

} // namespace
} // namespace prime::serve
