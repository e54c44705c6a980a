#include "prime/pipeline.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "common/spsc_ring.hh"
#include "common/telemetry/histogram.hh"
#include "common/telemetry/trace_session.hh"
#include "prime/prime_system.hh"

namespace prime::core {

namespace {

/**
 * One sample moving through the pipeline, carrying its flight-recorder
 * stamps: when stage 0 admitted it (the end-to-end latency epoch) and
 * when its current batch was pushed into a ring (so the consumer can
 * charge queue-wait time).  Stamps are ns since the run epoch; they
 * ride along with the tensor and never affect the computed values.
 */
struct Item
{
    std::size_t index = 0;
    nn::Tensor tensor;
    double admitNs = 0.0;    ///< stage-0 pickup time (e2e epoch)
    double enqueueNs = 0.0;  ///< last ring-push time (queue-wait epoch)
};

/** What one inter-stage handoff carries: a batch of tiles. */
using HandoffBatch = std::vector<Item>;

/**
 * Per-stage accumulator, owned exclusively by the thread running that
 * stage while the pipeline runs and merged into the StatGroup after
 * parallelFor returns -- the tile path samples stats without any lock
 * or string-keyed lookup.  Cache-line aligned so neighbouring stages'
 * counters never false-share.
 */
struct alignas(64) StageLocal
{
    telemetry::Histogram stageNs;      ///< wall ns per stage execution
    telemetry::Histogram handoffItems; ///< tiles per outbound handoff
    telemetry::Histogram queueWaitNs;  ///< ring-resident ns per batch
    telemetry::Histogram e2eNs;        ///< admit->complete ns (last stage)
    double busyNs = 0.0;
    double stallUpNs = 0.0;   ///< waiting on an empty input ring
    double stallDownNs = 0.0; ///< waiting on a full output ring
    double wallNs = 0.0;      ///< stage-loop wall time
    std::uint64_t items = 0;
    std::uint64_t handoffs = 0;
    std::uint64_t pushWaits = 0; ///< failed tryPush attempts (full ring)
    std::uint64_t popWaits = 0;  ///< failed tryPop attempts (empty ring)
};

/**
 * What a stage is doing right now, exported as the
 * pipeline.stageN.state gauge (tools/metrics_report.py decodes it);
 * kStateDone holds from the end of a stage's batch to its next one.
 */
enum StageState : int
{
    kStateIdle = 0,
    kStateBusy = 1,
    kStateStallUpstream = 2,
    kStateStallDownstream = 3,
    kStateDone = 4,
};

} // namespace

struct Pipeline::Stage
{
    /** A StageState, written by the stage's thread per transition. */
    std::atomic<int> state{kStateIdle};
    /** pipeline.stageN.items, bumped by the stage's thread. */
    Stat *items = nullptr;
    /** Ring to the next stage (unused while this stage is last). */
    SpscRing<HandoffBatch> out{kRingSlots};
};

Pipeline::Pipeline(StatGroup &stats) : stats_(stats) {}

Pipeline::~Pipeline() = default;

void
Pipeline::grow(std::size_t n)
{
    while (stages_.size() < n) {
        const std::size_t s = stages_.size();
        Stage &stage = *stages_.emplace_back(std::make_unique<Stage>());
        const std::string prefix = "pipeline.stage" + std::to_string(s);
        stage.items = &stats_.get(prefix + ".items");
        stats_.formula(prefix + ".state", [state = &stage.state] {
            return static_cast<double>(
                state->load(std::memory_order_relaxed));
        });
        // Stage s-1's output ring carries traffic from now on.
        if (s > 0)
            stats_.formula("pipeline.ring" + std::to_string(s - 1) +
                               ".depth",
                           [ring = &stages_[s - 1]->out] {
                               return static_cast<double>(
                                   ring->approxSize());
                           });
    }
}

std::vector<nn::Tensor>
Pipeline::run(PrimeSystem &system, std::span<const nn::Tensor> inputs)
{
    PRIME_SPAN(telemetry::globalTrace(), "pipeline.batch", "pipeline");
    const std::size_t n_stages = system.stages().size();
    PRIME_ASSERT(n_stages >= 1, "no pipeline stages");

    std::vector<nn::Tensor> results(inputs.size());
    if (inputs.empty())
        return results;
    const std::size_t total = inputs.size();
    grow(n_stages);
    if (!pool_ || pool_->size() != static_cast<int>(n_stages))
        pool_ = std::make_unique<ThreadPool>(static_cast<int>(n_stages),
                                             "pipe-worker");

    // Flight-recorder clock: every stamp is ns since this run's epoch,
    // so stamps stay small doubles and subtract exactly.
    const auto epoch = std::chrono::steady_clock::now();
    auto now_ns = [epoch] {
        return std::chrono::duration<double, std::nano>(
                   std::chrono::steady_clock::now() - epoch)
            .count();
    };

    // Stage s's output ring connects it to stage s+1.  Capacity is
    // counted in handoff batches; each stage is the sole producer of
    // its output ring and sole consumer of its input ring (the SPSC
    // contract).  Every batch drains the rings it fills.
    std::vector<StageLocal> locals(n_stages);

    // Free-running stage body: pop (or slice, for stage 0) a batch,
    // run every tile through this stage's banks, hand the batch
    // downstream (or scatter results, for the last stage).  Each
    // stage returns after exactly `total` tiles -- no sentinels, no
    // coordinator round trips, and bounded rings mean a slow stage
    // backpressures its producer instead of buffering the batch.
    //
    // Attribution discipline: the clock is read only around runStage
    // (already timed for pipeline.stage_ns) and on *failed* try ops --
    // an uncontended handoff costs no clock call, keeping the fast
    // path identical to the unattributed executor.
    auto stage_loop = [&](std::size_t s) {
        PRIME_SPAN(telemetry::globalTrace(),
                   "pipe.stage" + std::to_string(s), "pipeline");
        StageLocal &local = locals[s];
        Stage &stage = *stages_[s];
        PrimeSystem::ExecContext &ctx = system.stageContext(s);
        const bool first = s == 0;
        const bool last = s + 1 == n_stages;
        std::size_t processed = 0;
        HandoffBatch in, out;
        in.reserve(kHandoffBatch);
        out.reserve(kHandoffBatch);
        const double t_enter = now_ns();
        while (processed < total) {
            if (first) {
                const std::size_t take =
                    std::min(kHandoffBatch, total - processed);
                const double admit = now_ns();
                in.clear();
                for (std::size_t i = 0; i < take; ++i)
                    in.push_back(Item{processed + i,
                                      inputs[processed + i], admit,
                                      admit});
            } else {
                SpscRing<HandoffBatch> &ring = stages_[s - 1]->out;
                if (!ring.tryPop(in)) {
                    stage.state.store(kStateStallUpstream,
                                      std::memory_order_relaxed);
                    const double wait_start = now_ns();
                    do {
                        ++local.popWaits;
                        std::this_thread::yield();
                    } while (!ring.tryPop(in));
                    local.stallUpNs += now_ns() - wait_start;
                }
                // Queue-wait covers ring residency plus the pop spin:
                // time the batch spent between producer push and this
                // dequeue.
                const double dequeue = now_ns();
                for (const Item &item : in)
                    local.queueWaitNs.sample(dequeue - item.enqueueNs);
            }
            stage.state.store(kStateBusy, std::memory_order_relaxed);
            out.clear();
            for (Item &item : in) {
                const double t0 = now_ns();
                nn::Tensor y =
                    system.runStage(item.tensor, s, ctx);
                const double t1 = now_ns();
                local.stageNs.sample(t1 - t0);
                local.busyNs += t1 - t0;
                ++local.items;
                if (last) {
                    local.e2eNs.sample(t1 - item.admitNs);
                    results[item.index] = std::move(y);
                } else {
                    out.push_back(Item{item.index, std::move(y),
                                       item.admitNs, 0.0});
                }
            }
            processed += in.size();
            stage.items->increment(in.size());
            if (!last) {
                local.handoffItems.sample(
                    static_cast<double>(out.size()));
                ++local.handoffs;
                const double enqueue = now_ns();
                for (Item &item : out)
                    item.enqueueNs = enqueue;
                if (!stage.out.tryPush(std::move(out))) {
                    stage.state.store(kStateStallDownstream,
                                      std::memory_order_relaxed);
                    const double wait_start = now_ns();
                    do {
                        ++local.pushWaits;
                        std::this_thread::yield();
                    } while (!stage.out.tryPush(std::move(out)));
                    local.stallDownNs += now_ns() - wait_start;
                }
                out = HandoffBatch();
                out.reserve(kHandoffBatch);
            }
        }
        local.wallNs = now_ns() - t_enter;
        stage.state.store(kStateDone, std::memory_order_relaxed);
    };

    pool_->parallelFor(n_stages, stage_loop);

    // Merge the stage-local accumulators (single-threaded again; the
    // return of parallelFor is the happens-before edge covering
    // `results` too).
    StatGroup &stats = stats_;
    StatGroup &attribution = stats.child("pipeline.attribution");
    telemetry::Histogram &stage_ns =
        stats.histogram("pipeline.stage_ns");
    telemetry::Histogram &handoff_items =
        stats.histogram("pipeline.handoff_items");
    telemetry::Histogram &e2e_ns =
        stats.histogram("pipeline.e2e_latency_ns");
    double bottleneck = 0.0;
    std::uint64_t handoffs = 0, push_waits = 0, pop_waits = 0;
    for (std::size_t s = 0; s < n_stages; ++s) {
        const StageLocal &local = locals[s];
        stage_ns.merge(local.stageNs);
        handoff_items.merge(local.handoffItems);
        e2e_ns.merge(local.e2eNs);
        handoffs += local.handoffs;
        push_waits += local.pushWaits;
        pop_waits += local.popWaits;
        if (local.items > 0)
            bottleneck = std::max(
                bottleneck,
                local.busyNs / static_cast<double>(local.items));
        const std::string prefix =
            "pipeline.stage" + std::to_string(s);
        stats.get(prefix + ".busy_ns").add(local.busyNs);
        stats.get(prefix + ".push_waits").increment(local.pushWaits);
        stats.get(prefix + ".pop_waits").increment(local.popWaits);
        stats.histogram(prefix + ".queue_wait_ns")
            .merge(local.queueWaitNs);
        stats.histogram(prefix + ".service_ns").merge(local.stageNs);
        // The attribution section: where stage s's wall time went.
        // idle = what is left after busy and both stall flavours --
        // slicing/stamping overhead and scheduler noise; clamped
        // because the stall windows are measured independently of the
        // wall clamp and can overshoot by a few clock quanta.
        const std::string stage = "stage" + std::to_string(s);
        const double accounted =
            local.busyNs + local.stallUpNs + local.stallDownNs;
        const double idle = std::max(0.0, local.wallNs - accounted);
        attribution.get(stage + ".busy_ns").add(local.busyNs);
        attribution.get(stage + ".stall_upstream_ns")
            .add(local.stallUpNs);
        attribution.get(stage + ".stall_downstream_ns")
            .add(local.stallDownNs);
        attribution.get(stage + ".idle_ns").add(idle);
        attribution.get(stage + ".wall_ns").add(local.wallNs);
    }
    stats.get("pipeline.handoffs").increment(handoffs);
    stats.get("pipeline.push_waits").increment(push_waits);
    stats.get("pipeline.pop_waits").increment(pop_waits);
    stats.get("pipeline.batches").increment();
    stats.get("pipeline.samples").increment(total);
    // Measured stage bottleneck (mean wall ns of the slowest stage),
    // the empirical counterpart of PrimeModel::stageCosts' analytic
    // maximum.
    stats.get("pipeline.measured_bottleneck_ns").add(bottleneck);
    // Stat parity with the sequential path, which counts per run().
    stats.get("run.inferences").increment(total);
    return results;
}

} // namespace prime::core
