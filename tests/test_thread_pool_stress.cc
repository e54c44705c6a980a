/**
 * @file
 * Concurrency stress tests for the ThreadPool / telemetry pair.  These
 * exist primarily to run under the sanitizer presets (the TSan CI job
 * in particular): they hammer the exact interleavings the lanes'
 * memory-ordering contract (ARCHITECTURE.md) promises to survive --
 * many workers appending trace events while another thread reads the
 * session -- and pin the determinism contract of the evaluator fan-out
 * down to bit identity.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "common/telemetry/histogram.hh"
#include "common/telemetry/trace_session.hh"
#include "common/thread_pool.hh"
#include "nvmodel/tech_params.hh"
#include "sim/evaluator.hh"

namespace prime {
namespace {

/** Install a session for one test, restoring the inert default after. */
class ScopedGlobalTrace
{
  public:
    explicit ScopedGlobalTrace(telemetry::TraceSession *session)
    {
        telemetry::setGlobalTrace(session);
    }
    ~ScopedGlobalTrace() { telemetry::setGlobalTrace(nullptr); }
};

/** Pool workers appending spans while the main thread reads the
 *  session: every published prefix the readers observe must be
 *  consistent, and the final count exact. */
TEST(ThreadPoolStress, TracedHammerWithConcurrentReaders)
{
    constexpr std::size_t kTasks = 4000;
    telemetry::TraceSession session;
    ScopedGlobalTrace install(&session);
    session.enable();

    ThreadPool pool(8);
    std::atomic<bool> done{false};
    std::atomic<std::size_t> reads{0};

    // Concurrent reader: legal under the lanes contract (committed
    // prefixes only).  Counts must never decrease.
    std::thread reader([&] {
        std::size_t last = 0;
        while (!done.load(std::memory_order_acquire)) {
            const std::size_t n = session.eventCount();
            EXPECT_GE(n, last);
            last = n;
            reads.fetch_add(1, std::memory_order_relaxed);
        }
    });

    std::vector<std::uint64_t> out(kTasks, 0);
    pool.parallelFor(kTasks, [&](std::size_t i) {
        PRIME_SPAN(telemetry::globalTrace(), "stress.body", "test");
        session.instant("stress.tick", "test");
        out[i] = i * i;
        // Handshake: the job outlasts the reader's first read, however
        // fast the pool runs it, so the reads overlap live appends.
        if (i == 0)
            while (reads.load(std::memory_order_relaxed) == 0)
                std::this_thread::yield();
    });
    done.store(true, std::memory_order_release);
    reader.join();

    for (std::size_t i = 0; i < kTasks; ++i)
        EXPECT_EQ(out[i], i * i);
    // Exactly one pool.task span per claimed index, plus the body span
    // and the instant event.
    EXPECT_EQ(session.eventCount(), 3 * kTasks);
    EXPECT_GE(session.laneCount(), 1u);
    EXPECT_LE(session.laneCount(), 8u);
    EXPECT_GT(reads.load(), 0u);

    // Exporting while enabled (after the pool quiesced) stays valid.
    std::ostringstream os;
    session.writeChromeTrace(os);
    EXPECT_NE(os.str().find("stress.body"), std::string::npos);
}

/** External threads share one pool (parallelFor serializes) while each
 *  stripe records into its own histogram -- the disjoint-state pattern
 *  the determinism contract prescribes. */
TEST(ThreadPoolStress, SharedPoolManyClientsDisjointHistograms)
{
    constexpr int kClients = 4;
    constexpr std::size_t kPerClient = 512;
    telemetry::TraceSession session;
    ScopedGlobalTrace install(&session);
    session.enable();

    ThreadPool pool(4);
    std::vector<telemetry::Histogram> hists(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            std::vector<double> values(kPerClient, 0.0);
            pool.parallelFor(kPerClient, [&](std::size_t i) {
                session.instant("client.tick", "test");
                values[i] = static_cast<double>(c * 1000 + i + 1);
            });
            // Histogram recording is single-threaded by design; each
            // client owns its histogram and samples after the join.
            for (double v : values)
                hists[static_cast<std::size_t>(c)].sample(v);
        });
    }
    for (std::thread &t : clients)
        t.join();

    std::uint64_t total = 0;
    for (const telemetry::Histogram &h : hists) {
        EXPECT_EQ(h.count(), kPerClient);
        total += h.count();
    }
    EXPECT_EQ(total, kClients * kPerClient);
    // One pool.task + one instant per claimed index, over all clients.
    EXPECT_EQ(session.eventCount(), 2 * kClients * kPerClient);
}

/** Pool construction/teardown churn with live traced work: the
 *  worker-lane creation path races session reads on every pool. */
TEST(ThreadPoolStress, PoolChurnWithTracing)
{
    telemetry::TraceSession session;
    ScopedGlobalTrace install(&session);
    session.enable();

    std::size_t expected = 0;
    for (int round = 0; round < 12; ++round) {
        ThreadPool pool(2 + round % 3);
        constexpr std::size_t kTasks = 64;
        std::vector<int> out(kTasks, 0);
        pool.parallelFor(kTasks, [&](std::size_t i) {
            out[i] = 1;
        });
        expected += kTasks;  // one pool.task span each
        for (int v : out)
            EXPECT_EQ(v, 1);
    }
    EXPECT_EQ(session.eventCount(), expected);
}

/** Nested parallelFor from inside a pool body must run inline without
 *  deadlock, on the body's own thread, still invoking every index
 *  exactly once. */
TEST(ThreadPoolStress, NestedParallelForRunsInline)
{
    ThreadPool pool(4);
    constexpr std::size_t kOuter = 32;
    constexpr std::size_t kInner = 16;
    std::vector<std::uint32_t> out(kOuter, 0);
    std::vector<char> inline_run(kOuter, 0);
    pool.parallelFor(kOuter, [&](std::size_t i) {
        const std::thread::id outer = std::this_thread::get_id();
        std::uint32_t sum = 0;
        bool same_thread = true;
        pool.parallelFor(kInner, [&](std::size_t j) {
            sum += static_cast<std::uint32_t>(j + 1);
            same_thread &= std::this_thread::get_id() == outer;
        });
        out[i] = sum;
        inline_run[i] = same_thread;
    });
    for (std::size_t i = 0; i < kOuter; ++i) {
        EXPECT_EQ(out[i], kInner * (kInner + 1) / 2);
        EXPECT_TRUE(inline_run[i]) << i;  // caller and workers alike
    }
}

/** Bit-exact double comparison: EXPECT_DOUBLE_EQ tolerates 4 ULPs,
 *  which would mask a racy accumulation that happens to land close. */
void
expectBitIdentical(double a, double b, const char *what,
                   const std::string &bench)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a),
              std::bit_cast<std::uint64_t>(b))
        << what << " differs for " << bench << ": " << a << " vs " << b;
}

/** Determinism audit: the whole ML-bench evaluation must be
 *  bit-identical on a global pool of 1 vs 8 threads.  Under ASan/TSan
 *  this catches racy accumulation regressions, not just crashes. */
TEST(ThreadPoolStress, EvaluateMlBenchBitIdentical1v8Threads)
{
    sim::EvaluatorOptions opt;
    opt.includeVgg = false;
    sim::Evaluator ev(nvmodel::defaultTechParams(), opt);
    ThreadPool::setGlobalThreadCount(1);
    const auto want = ev.evaluateMlBench();
    ASSERT_FALSE(want.empty());

    ThreadPool::setGlobalThreadCount(8);
    const auto got = ev.evaluateMlBench();
    ThreadPool::setGlobalThreadCount(0);
    ASSERT_EQ(got.size(), want.size());

    for (std::size_t i = 0; i < want.size(); ++i) {
        const std::string &name = want[i].topology.name;
        EXPECT_EQ(got[i].topology.name, name);
        const sim::PlatformResult *a[] = {
            &want[i].cpu, &want[i].npuCo, &want[i].npuPimX1,
            &want[i].npuPimX64, &want[i].prime, &want[i].primeSingleBank};
        const sim::PlatformResult *b[] = {
            &got[i].cpu, &got[i].npuCo, &got[i].npuPimX1,
            &got[i].npuPimX64, &got[i].prime, &got[i].primeSingleBank};
        for (std::size_t p = 0; p < std::size(a); ++p) {
            expectBitIdentical(a[p]->latency, b[p]->latency, "latency",
                               name);
            expectBitIdentical(a[p]->timePerImage, b[p]->timePerImage,
                               "timePerImage", name);
            expectBitIdentical(a[p]->time.compute, b[p]->time.compute,
                               "time.compute", name);
            expectBitIdentical(a[p]->time.memory, b[p]->time.memory,
                               "time.memory", name);
            expectBitIdentical(a[p]->energy.total(), b[p]->energy.total(),
                               "energy.total", name);
        }
    }
}

} // namespace
} // namespace prime
