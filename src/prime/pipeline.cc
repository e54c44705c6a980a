#include "prime/pipeline.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <string>

#include "common/logging.hh"
#include "common/telemetry/histogram.hh"
#include "common/telemetry/trace_session.hh"
#include "common/thread_pool.hh"
#include "prime/prime_system.hh"

namespace prime::core {

namespace {

/**
 * What a stage is doing right now, exported as the
 * pipeline.stageN.state gauge (tools/metrics_report.py decodes it).
 * In a batch a stage first waits for its first chunk (stall-up: the
 * fill), then per step runs its chunk (busy) and waits at the step's
 * end for the other stages (idle), and after its last chunk waits for
 * the rest to drain (stall-down); kStateDone holds from the end of a
 * batch to the next one.
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
    /** A StageState, stored by whoever runs the stage's step. */
    std::atomic<int> state{kStateIdle};
    /** pipeline.stageN.items, bumped by the stage per chunk. */
    Stat *items = nullptr;
    /** pipeline.stageN.{busy_ns,service_ns}. */
    Stat *busy = nullptr;
    telemetry::Histogram *service = nullptr;
    /** pipeline.attribution.stageN.*_ns: where the batch wall went. */
    Stat *attrBusy = nullptr;
    Stat *attrFill = nullptr;     ///< .stall_upstream_ns
    Stat *attrDrain = nullptr;    ///< .stall_downstream_ns
    Stat *attrBarrier = nullptr;  ///< .idle_ns
    Stat *attrWall = nullptr;     ///< .wall_ns

    /** This batch, touched only by the thread running the stage's
     *  step, and merged into the stats above after the last step. */
    telemetry::Histogram serviceNs;  ///< wall ns per image; sum = busy
    telemetry::Histogram e2eNs;      ///< admit -> complete (last stage)
};

Pipeline::Pipeline(StatGroup &stats) : stats_(stats) {}

Pipeline::~Pipeline() = default;

void
Pipeline::grow(std::size_t n)
{
    while (stages_.size() < n) {
        const std::string name = "stage" + std::to_string(stages_.size());
        const std::string prefix = "pipeline." + name;
        Stage &stage = *stages_.emplace_back(std::make_unique<Stage>());
        stage.items = &stats_.get(prefix + ".items");
        stage.busy = &stats_.get(prefix + ".busy_ns");
        stage.service = &stats_.histogram(prefix + ".service_ns");
        StatGroup &attribution = stats_.child("pipeline.attribution");
        stage.attrBusy = &attribution.get(name + ".busy_ns");
        stage.attrFill = &attribution.get(name + ".stall_upstream_ns");
        stage.attrDrain = &attribution.get(name + ".stall_downstream_ns");
        stage.attrBarrier = &attribution.get(name + ".idle_ns");
        stage.attrWall = &attribution.get(name + ".wall_ns");
        stats_.formula(prefix + ".state", [state = &stage.state] {
            return static_cast<double>(
                state->load(std::memory_order_relaxed));
        });
    }
}

std::vector<nn::Tensor>
Pipeline::run(PrimeSystem &system, std::span<const nn::Tensor> inputs)
{
    PRIME_SPAN(telemetry::globalTrace(), "pipeline.batch", "pipeline");
    const std::size_t n_stages = system.stages().size();
    PRIME_ASSERT(n_stages >= 1, "no pipeline stages");

    const std::size_t total = inputs.size();
    std::vector<nn::Tensor> results(total);
    if (total == 0)
        return results;
    grow(n_stages);
    const std::size_t n_chunks = (total + kHandoffBatch - 1) / kHandoffBatch;
    const std::size_t n_steps = n_chunks + n_stages - 1;

    // Flight-recorder clock: every stamp is ns since this batch's
    // epoch, so stamps stay small doubles and subtract exactly.
    const auto epoch = std::chrono::steady_clock::now();
    auto now_ns = [epoch] {
        return std::chrono::duration<double, std::nano>(
                   std::chrono::steady_clock::now() - epoch)
            .count();
    };

    for (std::size_t s = 0; s < n_stages; ++s) {
        Stage &stage = *stages_[s];
        stage.serviceNs.reset();
        stage.e2eNs.reset();
        stage.state.store(kStateStallUpstream, std::memory_order_relaxed);
    }
    // When each step began, then when the last one ended.
    std::vector<double> step_start(n_steps + 1);
    // When stage 0 began each chunk: the end-to-end latency epoch.
    std::vector<double> admit(n_chunks);

    // The step body, built once per batch: body(k) runs stage
    // first + k on chunk step - (first + k), its images in order,
    // each updated in place in `results` (stage 0 reads `inputs`).
    std::size_t step = 0;
    std::size_t first = 0;
    const std::function<void(std::size_t)> body = [&](std::size_t k) {
        const std::size_t s = first + k;
        const std::size_t chunk = step - s;
        const std::size_t begin = chunk * kHandoffBatch;
        const std::size_t end = std::min(begin + kHandoffBatch, total);
        PRIME_SPAN(telemetry::globalTrace(),
                   "pipe.stage" + std::to_string(s), "pipeline");
        Stage &stage = *stages_[s];
        PrimeSystem::ExecContext &ctx = system.stageContext(s);
        stage.state.store(kStateBusy, std::memory_order_relaxed);
        for (std::size_t i = begin; i < end; ++i) {
            const double t0 = now_ns();
            if (s == 0 && i == begin)
                admit[chunk] = t0;
            results[i] =
                system.runStage(s == 0 ? inputs[i] : results[i], s, ctx);
            const double t1 = now_ns();
            stage.serviceNs.sample(t1 - t0);
            if (s + 1 == n_stages)
                stage.e2eNs.sample(t1 - admit[chunk]);
        }
        stage.items->increment(end - begin);
        stage.state.store(chunk + 1 == n_chunks ? kStateStallDownstream
                                                : kStateIdle,
                          std::memory_order_relaxed);
    };

    // Step t runs stages max(0, t - n_chunks + 1) .. min(t, n_stages - 1);
    // the return of each parallelFor publishes its writes to the next.
    ThreadPool &pool = ThreadPool::global();
    for (step = 0; step < n_steps; ++step) {
        first = step < n_chunks ? 0 : step - n_chunks + 1;
        step_start[step] = now_ns();
        pool.parallelFor(std::min(step, n_stages - 1) - first + 1, body);
    }
    step_start[n_steps] = now_ns();

    telemetry::Histogram &stage_ns = stats_.histogram("pipeline.stage_ns");
    telemetry::Histogram &e2e_ns =
        stats_.histogram("pipeline.e2e_latency_ns");
    const double wall = step_start[n_steps] - step_start[0];
    double bottleneck = 0.0;
    for (std::size_t s = 0; s < n_stages; ++s) {
        Stage &stage = *stages_[s];
        stage.state.store(kStateDone, std::memory_order_relaxed);
        stage_ns.merge(stage.serviceNs);
        e2e_ns.merge(stage.e2eNs);
        stage.service->merge(stage.serviceNs);
        const double busy = stage.serviceNs.sum();
        stage.busy->add(busy);
        bottleneck = std::max(bottleneck, busy / static_cast<double>(total));
        // Stage s's share of the batch wall: the fill before its first
        // chunk (steps 0 .. s-1), the drain after its last (steps
        // s + n_chunks ..), and in its own steps the barrier wait for
        // the step's slowest stage -- with busy, exactly the wall.
        const double fill = step_start[s] - step_start[0];
        const double drain = step_start[n_steps] - step_start[s + n_chunks];
        stage.attrBusy->add(busy);
        stage.attrFill->add(fill);
        stage.attrDrain->add(drain);
        stage.attrBarrier->add(wall - fill - drain - busy);
        stage.attrWall->add(wall);
    }
    stats_.get("pipeline.batches").increment();
    stats_.get("pipeline.samples").increment(total);
    // Measured stage bottleneck (mean wall ns of the slowest stage),
    // the empirical counterpart of PrimeModel::stageCosts' analytic
    // maximum.
    stats_.get("pipeline.measured_bottleneck_ns").add(bottleneck);
    // Stat parity with the sequential path, which counts per run().
    stats_.get("run.inferences").increment(total);
    return results;
}

} // namespace prime::core
