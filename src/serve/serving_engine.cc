#include "serve/serving_engine.hh"

#include <algorithm>
#include <span>
#include <utility>

#include "common/telemetry/trace_session.hh"

namespace prime::serve {

ServingEngine::ServingEngine(core::PrimeSystem &system,
                             const ServingOptions &options)
    : system_(system), options_(options),
      inputSize_(static_cast<std::size_t>(
          system.topology().layers.front().inputCount())),
      batchSize_(stats_.histogram("serving.batch_size")),
      e2eLatency_(stats_.histogram("serving.e2e_latency_ns")),
      queueWait_(stats_.histogram("serving.queue_wait_ns")),
      epoch_(std::chrono::steady_clock::now())
{
    options_.queueCapacity = std::max<std::size_t>(1, options_.queueCapacity);
    options_.maxBatch = std::max(1, options_.maxBatch);

    // Fixed stats schema: histograms exist (empty) from construction,
    // counters surface as read-time formulas over the atomics the
    // producer and scheduler threads actually bump -- a Stat has a
    // single-writer contract the multi-producer admission path cannot
    // honor directly.  Every formula reads atomics only, so a metrics
    // sampler may evaluate it at any time.
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
        return static_cast<double>(
            depth_.load(std::memory_order_relaxed));
    });
    stats_.formula("serving.shed_rate", [this] {
        const double a = static_cast<double>(
            accepted_.load(std::memory_order_relaxed));
        const double r = static_cast<double>(
            rejected_.load(std::memory_order_relaxed));
        return a + r > 0.0 ? r / (a + r) : 0.0;
    });
}

// An engine destroyed without ever running drops what it admitted but
// never scheduled (their callbacks do not fire); a started engine's
// stop() drains everything.
ServingEngine::~ServingEngine() { stop(); }

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
    {
        MutexLock lock(mutex_);
        stopping_ = false;
    }
    running_ = true;
    scheduler_ = std::thread([this] { schedulerLoop(); });
}

void
ServingEngine::stop()
{
    if (!running_)
        return;
    // Close admission (trySubmit rejects from here on), then let the
    // scheduler drain the queue and run its last batches.
    {
        MutexLock lock(mutex_);
        stopping_ = true;
    }
    ready_.notify_one();
    scheduler_.join();
    running_ = false;
}

std::optional<std::uint64_t>
ServingEngine::trySubmit(nn::Tensor input, CompletionFn on_complete)
{
    if (input.size() != inputSize_) {
        // A mis-sized tensor would fault the scheduler thread deep in
        // the datapath; it never enters the queue.
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    Request request;
    request.input = std::move(input);
    request.onComplete = std::move(on_complete);
    std::uint64_t id = 0;
    {
        MutexLock lock(mutex_);
        if (stopping_ || queue_.size() >= options_.queueCapacity) {
            rejected_.fetch_add(1, std::memory_order_relaxed);
            return std::nullopt;  // stopping or full: load shed
        }
        id = nextId_++;
        request.id = id;
        request.admitNs = nowNs();
        queue_.push_back(std::move(request));
        depth_.store(queue_.size(), std::memory_order_relaxed);
        // Counted under the lock, so the scheduler can never complete
        // a request that accepted() does not show yet.
        accepted_.fetch_add(1, std::memory_order_relaxed);
    }
    ready_.notify_one();
    return id;
}

/**
 * Wait until requests are queued or stop() began, then move up to
 * maxBatch of them into @p batch.  Returns false only when the engine
 * is stopping and the queue is empty.
 */
bool
ServingEngine::takeBatch(std::vector<Request> &batch)
{
    UniqueLock lock(mutex_);
    while (queue_.empty() && !stopping_)
        ready_.wait(lock);
    if (queue_.empty())
        return false;
    const std::size_t n = std::min(
        queue_.size(), static_cast<std::size_t>(options_.maxBatch));
    for (std::size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
    }
    depth_.store(queue_.size(), std::memory_order_relaxed);
    return true;
}

void
ServingEngine::schedulerLoop()
{
    std::vector<Request> batch;
    batch.reserve(static_cast<std::size_t>(options_.maxBatch));
    while (takeBatch(batch)) {
        execute(batch);
        batch.clear();
    }
}

void
ServingEngine::execute(std::vector<Request> &batch)
{
    PRIME_SPAN(telemetry::globalTrace(), "serve.batch", "serve");
    const std::size_t n = batch.size();
    batchSize_.sample(static_cast<double>(n));
    batches_.fetch_add(1, std::memory_order_relaxed);
    std::vector<nn::Tensor> inputs;
    inputs.reserve(n);
    for (Request &r : batch)
        inputs.push_back(std::move(r.input));

    const double start_ns = nowNs();
    std::vector<nn::Tensor> outputs =
        system_.runBatch(std::span<const nn::Tensor>(inputs));
    const double done_ns = nowNs();

    for (const Request &r : batch) {
        e2eLatency_.sample(done_ns - r.admitNs);
        queueWait_.sample(start_ns - r.admitNs);
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
