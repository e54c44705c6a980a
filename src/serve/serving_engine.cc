#include "serve/serving_engine.hh"

#include <algorithm>
#include <span>
#include <utility>

#include "common/logging.hh"
#include "common/telemetry/trace_session.hh"

namespace prime::serve {

namespace {

/** Idle nap of the scheduler when the ingress ring is empty: long
 *  enough not to starve co-located producers of a core, short against
 *  any realistic batch window. */
constexpr std::chrono::microseconds kIdleNap{20};

} // namespace

ServingEngine::ServingEngine(core::PrimeSystem &system,
                             const ServingOptions &options)
    : system_(system), options_(options),
      inputSize_(static_cast<std::size_t>(
          system.topology().layers.front().inputCount())),
      ingress_(std::max<std::size_t>(1, options.queueCapacity)),
      epoch_(std::chrono::steady_clock::now())
{
    options_.maxBatch = std::max(1, options_.maxBatch);
    options_.batchWindowUs = std::max(0, options_.batchWindowUs);

    // Fixed stats schema: histograms exist (empty) from construction,
    // counters surface as read-time formulas over the atomics the
    // producer and scheduler threads actually bump -- a Stat has a
    // single-writer contract the multi-producer admission path cannot
    // honor directly.  Every formula reads atomics only, so a metrics
    // sampler may evaluate it at any time.
    stats_.histogram("serving.e2e_latency_ns");
    stats_.histogram("serving.queue_wait_ns");
    stats_.histogram("serving.batch_size");
    auto read = [](const std::atomic<std::uint64_t> &value) {
        return [&value] {
            return static_cast<double>(
                value.load(std::memory_order_relaxed));
        };
    };
    stats_.formula("serving.accepted", read(accepted_),
                   MetricKind::Counter);
    stats_.formula("serving.rejected", read(rejected_),
                   MetricKind::Counter);
    stats_.formula("serving.completed", read(completed_),
                   MetricKind::Counter);
    stats_.formula("serving.batches", read(batches_),
                   MetricKind::Counter);
    stats_.formula("serving.queue.depth", [this] {
        return static_cast<double>(ingress_.approxSize());
    });
    stats_.formula("serving.shed_rate", [this] {
        const double a = static_cast<double>(
            accepted_.load(std::memory_order_relaxed));
        const double r = static_cast<double>(
            rejected_.load(std::memory_order_relaxed));
        return a + r > 0.0 ? r / (a + r) : 0.0;
    });
}

ServingEngine::~ServingEngine()
{
    stop();
    // An engine destroyed without ever running drops what it admitted
    // but never scheduled (their callbacks do not fire); a started
    // engine's stop() above drained everything.
    Request leftover;
    while (ingress_.tryPop(leftover)) {
    }
}

double
ServingEngine::nowNs() const
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
ServingEngine::start()
{
    if (running_)
        return;
    stopping_.store(false, std::memory_order_seq_cst);
    running_ = true;
    scheduler_ = std::thread([this] { schedulerLoop(); });
}

void
ServingEngine::stop()
{
    if (!running_)
        return;
    // Close admission first (trySubmit rejects from here on), then let
    // the scheduler drain the ring and run its last batches.
    // seq_cst deliberately: pairs with trySubmit's pendingSubmits_
    // increment so the drain condition in popOrQuit is race-free.
    stopping_.store(true, std::memory_order_seq_cst);
    scheduler_.join();
    running_ = false;
}

std::optional<std::uint64_t>
ServingEngine::trySubmit(nn::Tensor input, CompletionFn on_complete)
{
    if (input.size() != inputSize_) {
        // A mis-sized tensor would fault the scheduler thread deep in
        // the datapath; it never enters the ring.
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    // The submit gate pairs with the scheduler's drain condition
    // (both seq_cst): a submitter that read stopping_ == false is
    // visible in pendingSubmits_ until its push completed, so the
    // scheduler cannot conclude "drained" while an accepted request
    // is still in flight into the ring.
    pendingSubmits_.fetch_add(1, std::memory_order_seq_cst);
    if (stopping_.load(std::memory_order_seq_cst)) {
        pendingSubmits_.fetch_sub(1, std::memory_order_seq_cst);
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    Request request;
    request.id = nextId_.fetch_add(1, std::memory_order_relaxed);
    request.input = std::move(input);
    request.onComplete = std::move(on_complete);
    request.admitNs = nowNs();
    const std::uint64_t id = request.id;
    const bool pushed = ingress_.tryPush(std::move(request));
    pendingSubmits_.fetch_sub(1, std::memory_order_seq_cst);
    if (!pushed) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;  // ingress full: load explicitly shed
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    return id;
}

/**
 * Pop the next request, napping while the ring is idle.  Returns false
 * only when the engine is stopping and the ring is conclusively
 * drained: admission closed, no submitter mid-push (the gate), and a
 * final pop after both facts still found nothing.
 */
bool
ServingEngine::popOrQuit(Request &out)
{
    for (;;) {
        if (ingress_.tryPop(out))
            return true;
        if (stopping_.load(std::memory_order_seq_cst) &&
            pendingSubmits_.load(std::memory_order_seq_cst) == 0)
            return ingress_.tryPop(out);
        std::this_thread::sleep_for(kIdleNap);
    }
}

void
ServingEngine::schedulerLoop()
{
    const double window_ns = 1e3 * options_.batchWindowUs;
    const std::size_t max_batch =
        static_cast<std::size_t>(options_.maxBatch);
    std::vector<Request> batch;
    batch.reserve(max_batch);
    for (;;) {
        Request first;
        if (!popOrQuit(first))
            break;
        // A batch opens on its first request and closes at maxBatch
        // co-riders or when that request's latency budget expires,
        // whichever comes first.  The budget runs from admission, so a
        // request that waited in the ring while the previous batch ran
        // is not held for a second full window.
        const double deadline = first.admitNs + window_ns;
        batch.push_back(std::move(first));
        while (batch.size() < max_batch) {
            Request next;
            if (ingress_.tryPop(next)) {
                batch.push_back(std::move(next));
                continue;
            }
            // Stopping means no co-rider will ever arrive: close now.
            if (stopping_.load(std::memory_order_acquire) ||
                nowNs() >= deadline)
                break;
            std::this_thread::yield();
        }
        execute(batch);
        batch.clear();
    }
}

void
ServingEngine::execute(std::vector<Request> &batch)
{
    PRIME_SPAN(telemetry::globalTrace(), "serve.batch", "serve");
    const std::size_t n = batch.size();
    stats_.histogram("serving.batch_size")
        .sample(static_cast<double>(n));
    batches_.fetch_add(1, std::memory_order_relaxed);
    std::vector<nn::Tensor> inputs;
    inputs.reserve(n);
    for (Request &r : batch)
        inputs.push_back(std::move(r.input));

    const double start_ns = nowNs();
    std::vector<nn::Tensor> outputs =
        system_.runBatch(std::span<const nn::Tensor>(inputs));
    const double done_ns = nowNs();

    telemetry::Histogram &e2e = stats_.histogram("serving.e2e_latency_ns");
    telemetry::Histogram &wait = stats_.histogram("serving.queue_wait_ns");
    for (const Request &r : batch) {
        e2e.sample(done_ns - r.admitNs);
        wait.sample(start_ns - r.admitNs);
    }
    completed_.fetch_add(n, std::memory_order_relaxed);

    // Callbacks run here, serially: a slow one delays the next batch.
    for (std::size_t i = 0; i < n; ++i) {
        Request &r = batch[i];
        if (!r.onComplete)
            continue;
        Response response;
        response.id = r.id;
        response.output = std::move(outputs[i]);
        response.e2eNs = done_ns - r.admitNs;
        response.queueWaitNs = start_ns - r.admitNs;
        response.batchSize = n;
        r.onComplete(std::move(response));
    }
}

} // namespace prime::serve
