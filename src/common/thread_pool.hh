/**
 * @file
 * A small fixed-size thread pool for fanning out independent simulator
 * work (whole inferences in sim::Evaluator, the per-tile MVMs of
 * PrimeSystem::run).  Deliberately minimal: no work stealing, no task
 * futures -- just parallelFor over an index range with an atomic
 * cursor, which is all the compute plane needs.
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
#include <memory>
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
     *        via defaultThreadCount().
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
    void workerLoop(int index);

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

/**
 * A group of dedicated long-lived worker threads, for free-running
 * executors that pin one thread to one role (e.g. one pipeline stage)
 * instead of fanning an index range out over the shared pool.  Each
 * worker runs body(i) once, start to finish; join() (or destruction)
 * waits for all of them.
 *
 * Workers are pool-context threads: each gets a named trace lane
 * ("<prefix>-<i>") for per-stage telemetry, and nested
 * ThreadPool::parallelFor calls from inside a worker run inline rather
 * than serializing the group on the shared pool's job slot.
 */
class WorkerGroup
{
  public:
    /** Lifecycle of one worker, observable from any thread. */
    enum class WorkerState : int
    {
        Pending = 0,  ///< spawned, body not yet entered
        Running = 1,  ///< inside body(i)
        Done = 2,     ///< body returned
    };

    /** Spawn @p count workers running body(0) .. body(count-1). */
    WorkerGroup(const std::string &name_prefix, std::size_t count,
                std::function<void(std::size_t)> body);
    ~WorkerGroup();

    WorkerGroup(const WorkerGroup &) = delete;
    WorkerGroup &operator=(const WorkerGroup &) = delete;

    /** Wait for every worker to return (idempotent). */
    void join();

    std::size_t size() const { return threads_.size(); }

    /** Worker @p i's current state (relaxed; a metrics-probe view). */
    WorkerState
    workerState(std::size_t i) const
    {
        return static_cast<WorkerState>(
            (*states_)[i].load(std::memory_order_relaxed));
    }

    /** Workers currently inside their body (relaxed snapshot). */
    std::size_t runningWorkers() const;

  private:
    std::vector<std::thread> threads_;
    /** Shared with the worker lambdas so state outlives join(). */
    std::shared_ptr<std::vector<std::atomic<int>>> states_;
};

} // namespace prime

#endif // PRIME_COMMON_THREAD_POOL_HH
