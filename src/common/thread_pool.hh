/**
 * @file
 * A small fixed-size thread pool for fanning out independent simulator
 * work (whole benchmarks in sim::Evaluator, the mats of one layer in
 * PrimeController::computeMats, the stages of one inter-bank pipeline
 * step in PrimeSystem::runBatch).  Deliberately minimal: no work
 * stealing, no task futures -- just parallelFor over an index range
 * with an atomic cursor, which is all the compute plane needs.
 *
 * The simulator runs all of that on one pool, the process-wide
 * global() pool; the other pools are the ones tests build for
 * themselves.  A parallelFor from inside a pool job runs its bodies
 * inline, so a pipeline step's stages do not fan their mats out again.
 *
 * Determinism contract: parallelFor(n, body) invokes body(i) exactly
 * once for every i in [0, n); bodies must write only to disjoint,
 * index-addressed state (out[i] = f(i)).  Under that discipline the
 * results are identical for every pool size, and a pool of size <= 1
 * degenerates to a plain sequential loop on the calling thread.
 * Random draws follow the same rule: a body draws only from an Rng of
 * its own index (e.g. a per-mat stream, see streamSeed in rng.hh),
 * never from a shared one.
 *
 * Pool-size resolution (first match wins):
 *   1. an explicit setGlobalThreadCount(n) call (config plumbing:
 *      `--set sim.threads=N`),
 *   2. the PRIME_THREADS environment variable,
 *   3. std::thread::hardware_concurrency().
 */

#ifndef PRIME_COMMON_THREAD_POOL_HH
#define PRIME_COMMON_THREAD_POOL_HH

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.hh"
#include "common/thread_annotations.hh"

namespace prime {

/** Fixed set of worker threads executing parallelFor jobs. */
class ThreadPool
{
  public:
    /**
     * @param threads total concurrency including the calling thread;
     *        <= 1 creates no workers (sequential fallback), 0 resolves
     *        via defaultThreadCount().  Worker i traces on the lane
     *        "pool-worker-<i>".
     */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total concurrency (workers + the participating caller). */
    int size() const { return static_cast<int>(workers_.size()) + 1; }

    /**
     * Run body(0) .. body(n-1), caller participating.  Returns after
     * every invocation completed.  Calls from multiple threads are
     * serialized; calls from inside a worker run inline (no deadlock).
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /** The process-wide pool (lazily built at resolved size). */
    static ThreadPool &global();

    /**
     * Resize the global pool (rebuilds it on next use).  Not safe while
     * another thread is inside global().parallelFor.  n = 0 restores
     * env/hardware resolution.
     */
    static void setGlobalThreadCount(int n);

    /** PRIME_THREADS env var if set and positive, else hardware. */
    static int defaultThreadCount();

  private:
    void workerLoop(const std::string &lane);

    /**
     * Claim-and-run loop over @p body / @p size, shared by workers and
     * the participating caller.  The arguments are snapshots of
     * body_/jobSize_ taken under mutex_ by the caller, so the loop
     * itself touches only the atomic cursor.
     */
    void runJob(const std::function<void(std::size_t)> &body,
                std::size_t size);

    std::vector<std::thread> workers_;

    Mutex serialMutex_;  ///< capability: one parallelFor at a time

    /** Capability guarding the job-handoff state below. */
    Mutex mutex_;
    CondVar wake_;
    CondVar done_;
    bool stop_ PRIME_GUARDED_BY(mutex_) = false;
    std::uint64_t generation_ PRIME_GUARDED_BY(mutex_) = 0;
    /** Workers not yet woken for this generation. */
    int pending_ PRIME_GUARDED_BY(mutex_) = 0;
    /** Workers currently inside runJob. */
    int running_ PRIME_GUARDED_BY(mutex_) = 0;

    /** Pointee owned by the parallelFor caller frame; workers snapshot
     *  the pointer under mutex_ and run it after unlocking (the
     *  generation/pending protocol keeps it alive until done_). */
    const std::function<void(std::size_t)> *body_
        PRIME_GUARDED_BY(mutex_) = nullptr;
    std::size_t jobSize_ PRIME_GUARDED_BY(mutex_) = 0;
    std::atomic<std::size_t> next_{0};
};

} // namespace prime

#endif // PRIME_COMMON_THREAD_POOL_HH
