/**
 * @file
 * ServingEngine: the request-driven front end that turns PrimeSystem
 * from a batch tool into a long-running inference server (the ROADMAP
 * "heavy traffic" north star; ARAS-style adaptive batching on a ReRAM
 * accelerator).
 *
 * Data path:
 *
 *   client threads --tryPush--> MpscRing<Request> (bounded ingress,
 *        |                          |          the engine's only queue)
 *        | false = shed load        | single consumer
 *        v                          v
 *     rejected               scheduler thread:
 *                              pop -> coalesce (up to maxBatch requests
 *                              or batchWindowUs after the first one's
 *                              admission, whichever first)
 *                              -> PrimeSystem::runBatch
 *                              -> stats -> completion callbacks
 *
 * On a multi-stage plan runBatch runs the inter-bank pipeline as
 * wavefront steps on ThreadPool::global(): the scheduler thread takes
 * part in every step and the pool's workers, parked between steps,
 * carry the other stages.  No thread is spawned per batch.
 *
 * Contracts:
 *  - Admission control: trySubmit never blocks.  A full ingress ring,
 *    an input whose size is not the model's input count, or an engine
 *    whose stop() began rejects the request explicitly
 *    -- the caller sees false, serving.rejected counts it, and no
 *    callback ever fires for it.  The scheduler pops only what it is
 *    about to run, so while a batch executes new arrivals wait in the
 *    ring and a busy engine sheds at queueCapacity.  Accepted requests
 *    are completed exactly once, even across stop() (the scheduler
 *    drains the ring and runs its partial batch before exiting).
 *  - Batching policy: a batch opens at the first popped request and
 *    closes after maxBatch requests or batchWindowUs microseconds
 *    after that request's admission, whichever comes first -- the
 *    latency budget bounds how long an early request waits for
 *    co-riders.  A request that already waited while the previous
 *    batch ran does not wait a second window; an empty window never
 *    delays a lone request past the budget.
 *  - Bit-identity: outputs equal per-sample PrimeSystem::run() calls
 *    regardless of batch composition, thread-pool size or queue
 *    capacity (runBatch's own contract).  The scheduler is the only
 *    thread that calls into the PrimeSystem -- the functional machine
 *    is a single physical memory, and PrimeSystem is not reentrant.
 *    It is a plain thread, not a pool job, so every step of a
 *    batch fans out over the pool.
 *  - One engine serves one mapped model (the PrimeSystem it wraps);
 *    coalescing is therefore per-model by construction.  Serving
 *    several models means several engines over several systems.
 *  - Threading: trySubmit from any thread; start/stop/stats from one
 *    controlling thread (stats() reads are stable only after stop()).
 *    Submissions racing stop() may be rejected; callers must not
 *    submit after stop() returns.
 *
 * Telemetry: per-request end-to-end and queue-wait latency land in
 * telemetry::Histogram stats (p50/p95/p99), batch sizes in a third;
 * serving.accepted/rejected/completed/batches are counter formulas,
 * serving.shed_rate and serving.queue.depth (the ingress ring's
 * occupancy) gauge formulas -- all sampler-safe, so a MetricsRegistry
 * watching stats() samples them live.
 */

#ifndef PRIME_SERVE_SERVING_ENGINE_HH
#define PRIME_SERVE_SERVING_ENGINE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "common/mpsc_ring.hh"
#include "common/stats.hh"
#include "prime/prime_system.hh"
#include "serve/request.hh"

namespace prime::serve {

/** Serving-engine knobs (CLI: --max-batch, --batch-window-us, ...). */
struct ServingOptions
{
    /** Bounded ingress ring slots; a full ring sheds load. */
    std::size_t queueCapacity = 1024;
    /** Largest dynamic batch one runBatch call carries. */
    int maxBatch = 16;
    /** Latency budget: a batch closes this long after its first
     *  request's admission even if maxBatch was not reached. */
    int batchWindowUs = 200;
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
     * ingress ring and run every batch to completion, then join it
     * (idempotent).  The counter formulas in stats() read the final
     * totals live.
     */
    void stop();

    bool running() const { return running_; }

    /**
     * Submit one request from any thread.  Returns the request id on
     * acceptance; std::nullopt when the engine rejected it (input size
     * is not the model's input count, ingress full, or stop()
     * underway) -- the admission-control contract, never blocking, no
     * callback for rejected requests.
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
    bool popOrQuit(Request &out);
    void schedulerLoop();
    void execute(std::vector<Request> &batch);

    core::PrimeSystem &system_;
    ServingOptions options_;
    /** Element count every admitted input must have (the first
     *  layer's input count). */
    std::size_t inputSize_;

    MpscRing<Request> ingress_;
    /** Submitters mid-trySubmit; pairs with stopping_ (both seq_cst)
     *  so the draining scheduler never races an in-flight push. */
    std::atomic<std::uint64_t> pendingSubmits_{0};
    std::atomic<std::uint64_t> nextId_{0};
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> batches_{0};

    /** Histograms written only by the scheduler thread. */
    StatGroup stats_;

    std::atomic<bool> stopping_{false};
    bool running_ = false;
    std::chrono::steady_clock::time_point epoch_;
    std::thread scheduler_;
};

} // namespace prime::serve

#endif // PRIME_SERVE_SERVING_ENGINE_HH
