/**
 * @file
 * ServingEngine: the request-driven front end that turns PrimeSystem
 * from a batch tool into a long-running inference server (the ROADMAP
 * "heavy traffic" north star; ARAS-style adaptive batching on a ReRAM
 * accelerator).
 *
 * Data path:
 *
 *   client threads --trySubmit--> bounded deque<Request> under one
 *        |                        Mutex (the engine's only queue)
 *        | nullopt = shed load        | condvar wake
 *        v                            v
 *     rejected               scheduler thread:
 *                              wait for work -> take up to maxBatch
 *                              queued requests -> PrimeSystem::runBatch
 *                              -> stats -> completion callbacks
 *
 * On a multi-stage plan runBatch runs the inter-bank pipeline as
 * wavefront steps on ThreadPool::global(): the scheduler thread takes
 * part in every step and the pool's workers carry the other stages.
 * No thread is spawned per batch.
 *
 * Contracts:
 *  - Admission control: trySubmit never waits for the executor.  A
 *    full queue, an input whose size is not the model's input count,
 *    or an engine whose stop() began rejects the request explicitly
 *    -- the caller sees nullopt, serving.rejected counts it, and no
 *    callback ever fires for it.  The scheduler takes only what it is
 *    about to run, so while a batch executes new arrivals wait in the
 *    queue and a busy engine sheds at exactly queueCapacity.  Accepted
 *    requests are completed exactly once, even across stop() (the
 *    scheduler empties the queue before exiting).
 *  - Batching policy (work-conserving): whenever the scheduler is
 *    free it takes whatever is queued, up to maxBatch, and runs it at
 *    once.  No request waits for co-riders: requests that arrive while
 *    a batch runs form the next batch, so batches grow with load and a
 *    lone request at low load runs alone without delay.
 *  - Bit-identity: outputs equal per-sample PrimeSystem::run() calls
 *    regardless of batch composition, thread-pool size or queue
 *    capacity (runBatch's own contract).  The scheduler is the only
 *    thread that calls into the PrimeSystem -- the functional machine
 *    is a single physical memory, and PrimeSystem is not reentrant.
 *    It is a plain thread, not a pool job, so every step of a
 *    batch fans out over the pool.
 *  - One engine serves one mapped model (the PrimeSystem it wraps);
 *    batching is therefore per-model by construction.  Serving
 *    several models means several engines over several systems.
 *  - Threading: trySubmit from any thread; start/stop/stats from one
 *    controlling thread (stats() reads are stable only after stop()).
 *    Submissions racing stop() may be rejected; those after it are.
 *
 * Telemetry: per-request end-to-end and queue-wait latency land in
 * telemetry::Histogram stats (p50/p95/p99), batch sizes in a third;
 * serving.accepted/rejected/completed/batches are counter formulas,
 * serving.shed_rate and serving.queue.depth (the queue's occupancy)
 * gauge formulas -- all read atomics only, so a MetricsRegistry
 * watching stats() samples them live.
 */

#ifndef PRIME_SERVE_SERVING_ENGINE_HH
#define PRIME_SERVE_SERVING_ENGINE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <thread>
#include <vector>

#include "common/mutex.hh"
#include "common/stats.hh"
#include "prime/prime_system.hh"
#include "serve/request.hh"

namespace prime::serve {

/** Serving-engine knobs (CLI: --queue-cap, --max-batch). */
struct ServingOptions
{
    /** Requests the queue holds; a full queue sheds load. */
    std::size_t queueCapacity = 1024;
    /** Largest dynamic batch one runBatch call carries. */
    int maxBatch = 16;
};

/** Dynamic-batching request scheduler over one PrimeSystem. */
class ServingEngine
{
  public:
    ServingEngine(core::PrimeSystem &system, const ServingOptions &options);
    ~ServingEngine();

    ServingEngine(const ServingEngine &) = delete;
    ServingEngine &operator=(const ServingEngine &) = delete;

    /** Spawn the scheduler thread (idempotent). */
    void start();

    /**
     * Drain and join: stop admitting, let the scheduler empty the
     * queue and run every batch to completion, then join it
     * (idempotent).  The counter formulas in stats() read the final
     * totals live.
     */
    void stop();

    bool running() const { return running_; }

    /**
     * Submit one request from any thread.  Returns the request id on
     * acceptance; std::nullopt when the engine rejected it (input size
     * is not the model's input count, queue full, or stop()
     * underway) -- the admission-control contract: it holds the queue
     * lock only to push, and rejected requests get no callback.
     */
    std::optional<std::uint64_t> trySubmit(nn::Tensor input,
                                           CompletionFn on_complete);

    // ---------------------------------------------------- telemetry --

    /** serving.* stats: latency/batch-size histograms + counter and
     *  gauge formulas.  The scheduler thread is the histograms' only
     *  writer, so they are stable to read once stop() joined it. */
    StatGroup &stats() { return stats_; }

    std::uint64_t accepted() const
    {
        return accepted_.load(std::memory_order_relaxed);
    }
    std::uint64_t rejected() const
    {
        return rejected_.load(std::memory_order_relaxed);
    }
    std::uint64_t completed() const
    {
        return completed_.load(std::memory_order_relaxed);
    }
    std::uint64_t batches() const
    {
        return batches_.load(std::memory_order_relaxed);
    }

    const ServingOptions &options() const { return options_; }

  private:
    double nowNs() const;
    bool takeBatch(std::vector<Request> &batch);
    void schedulerLoop();
    void execute(std::vector<Request> &batch);

    core::PrimeSystem &system_;
    ServingOptions options_;
    /** Element count every admitted input must have (the first
     *  layer's input count). */
    std::size_t inputSize_;

    Mutex mutex_;
    /** Signalled on every push and on stop(); the scheduler's only
     *  wait. */
    CondVar ready_;
    std::deque<Request> queue_ PRIME_GUARDED_BY(mutex_);
    /** Set by stop(): admission closes, the scheduler drains. */
    bool stopping_ PRIME_GUARDED_BY(mutex_) = false;
    std::uint64_t nextId_ PRIME_GUARDED_BY(mutex_) = 0;
    /** queue_.size(), stored under mutex_ for the queue-depth gauge
     *  (formulas run on the sampler thread and take no locks). */
    std::atomic<std::size_t> depth_{0};
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> batches_{0};

    StatGroup stats_;
    /** Bound once at construction; written only by the scheduler
     *  thread. */
    telemetry::Histogram &batchSize_;
    telemetry::Histogram &e2eLatency_;
    telemetry::Histogram &queueWait_;

    bool running_ = false;
    std::chrono::steady_clock::time_point epoch_;
    std::thread scheduler_;
};

} // namespace prime::serve

#endif // PRIME_SERVE_SERVING_ENGINE_HH
