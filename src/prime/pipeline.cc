/**
 * @file
 * PrimeSystem::runBatch: the functional inter-bank pipeline executor
 * (paper Section IV-B).
 *
 * A Large MappingPlan assigns consecutive layer groups to disjoint
 * banks; runBatch executes a batch of inputs through those stages as
 * lockstep wavefront steps on ThreadPool::global().  The batch is cut
 * into chunks of kHandoffBatch images; step t runs every active stage s
 * on chunk t - s, the stages as one global().parallelFor, so while
 * stage 1's banks work on chunk c, stage 0's banks already work on
 * chunk c + 1.  A one-stage plan takes the same steps, each a
 * parallelFor of one.  This is the order the timing pass replays a
 * batch in (PrimeSystem::replay), and, like FPSA's spatial pipeline,
 * it is fixed by the mapping: no queues between stages, no thread of
 * the pipeline's own, no waiting loop.  Each stage's chunk in one step
 * is one "pipe.stageN" trace span.
 *
 * Images are updated in place in one results vector.  The return of
 * each step's parallelFor orders that step's writes before the next
 * step reads them, and within a step every stage touches only its own
 * banks and ExecContext (staging windows, StatGroup, timing log,
 * executor record), in image order.  So the outputs are bit-identical
 * to sequential PrimeSystem::run() calls at any pool size, a pool
 * smaller than the stage count included.  Called from inside a pool
 * job, each step's parallelFor runs inline: the steps then run one
 * after another on the calling thread, still in wavefront order.
 * Timing-derived stats (pipeline.stage_ns and the attribution) are
 * schedule-dependent.
 *
 * Live state: each stage's ExecContext holds a state word that persists
 * across batches and remaps (the contexts are grow-only), so the
 * executor declares its live values once, in the system's StatGroup,
 * as stages first run a batch: the pipeline.stageN.state gauge formula
 * and the pipeline.stageN.items Stat a stage bumps per chunk.  Its
 * other stats are bound at the same time and merged from the stages'
 * batch accumulators after the last step.
 *
 * Lock contract: this executor owns no mutex; its only shared atomics
 * are the state words, stored and sampled relaxed.
 */

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>

#include "common/logging.hh"
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

void
PrimeSystem::bindBatchStats()
{
    if (!batchStats_.batches) {
        batchStats_.stageNs = &stats_.histogram("pipeline.stage_ns");
        batchStats_.e2eNs = &stats_.histogram("pipeline.e2e_latency_ns");
        batchStats_.batches = &stats_.get("pipeline.batches");
        batchStats_.samples = &stats_.get("pipeline.samples");
        batchStats_.bottleneckNs =
            &stats_.get("pipeline.measured_bottleneck_ns");
    }
    for (std::size_t s = 0; s < stages_.size(); ++s) {
        ExecContext &ctx = *stageContexts_[s];
        if (ctx.items)
            continue;
        const std::string name = "stage" + std::to_string(s);
        const std::string prefix = "pipeline." + name;
        ctx.items = &stats_.get(prefix + ".items");
        ctx.service = &stats_.histogram(prefix + ".service_ns");
        StatGroup &attribution = stats_.child("pipeline.attribution");
        ctx.attrBusy = &attribution.get(name + ".busy_ns");
        ctx.attrFill = &attribution.get(name + ".stall_upstream_ns");
        ctx.attrDrain = &attribution.get(name + ".stall_downstream_ns");
        ctx.attrBarrier = &attribution.get(name + ".idle_ns");
        ctx.attrWall = &attribution.get(name + ".wall_ns");
        stats_.formula(prefix + ".state", [state = &ctx.state] {
            return static_cast<double>(
                state->load(std::memory_order_relaxed));
        });
    }
}

std::vector<nn::Tensor>
PrimeSystem::runBatch(std::span<const nn::Tensor> inputs)
{
    PRIME_SPAN(telemetry::globalTrace(), "pipeline.batch", "pipeline");
    PRIME_ASSERT(programmed_, "programWeight must precede runBatch");
    PRIME_ASSERT(configured_, "configDatapath must precede runBatch");
    const std::size_t n_stages = stages_.size();
    const std::size_t total = inputs.size();
    std::vector<nn::Tensor> results(total);
    if (total == 0)
        return results;
    bindBatchStats();
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
        ExecContext &ctx = *stageContexts_[s];
        // Size the log for the whole batch before the stages start
        // appending (capacity is kept across batches).
        ctx.log.reserve(total * ctx.transfersPerImage);
        ctx.imageEnds.reserve(total);
        ctx.serviceNs.reset();
        ctx.e2eNs.reset();
        ctx.state.store(kStateStallUpstream, std::memory_order_relaxed);
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
        ExecContext &ctx = *stageContexts_[s];
        PRIME_SPAN(telemetry::globalTrace(), ctx.spanName.c_str(),
                   "pipeline");
        ctx.state.store(kStateBusy, std::memory_order_relaxed);
        for (std::size_t i = begin; i < end; ++i) {
            const double t0 = now_ns();
            if (s == 0 && i == begin)
                admit[chunk] = t0;
            results[i] = s == 0 ? stageStep(inputs[i], s)
                                : stageStep(std::move(results[i]), s);
            const double t1 = now_ns();
            ctx.serviceNs.sample(t1 - t0);
            if (s + 1 == n_stages)
                ctx.e2eNs.sample(t1 - admit[chunk]);
        }
        ctx.items->increment(end - begin);
        ctx.state.store(chunk + 1 == n_chunks ? kStateStallDownstream
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
    replay();

    const double wall = step_start[n_steps] - step_start[0];
    double bottleneck = 0.0;
    for (std::size_t s = 0; s < n_stages; ++s) {
        ExecContext &ctx = *stageContexts_[s];
        ctx.state.store(kStateDone, std::memory_order_relaxed);
        batchStats_.stageNs->merge(ctx.serviceNs);
        batchStats_.e2eNs->merge(ctx.e2eNs);
        ctx.service->merge(ctx.serviceNs);
        const double busy = ctx.serviceNs.sum();
        bottleneck = std::max(bottleneck, busy / static_cast<double>(total));
        // Stage s's share of the batch wall: the fill before its first
        // chunk (steps 0 .. s-1), the drain after its last (steps
        // s + n_chunks ..), and in its own steps the barrier wait for
        // the step's slowest stage -- with busy, exactly the wall.
        const double fill = step_start[s] - step_start[0];
        const double drain = step_start[n_steps] - step_start[s + n_chunks];
        ctx.attrBusy->add(busy);
        ctx.attrFill->add(fill);
        ctx.attrDrain->add(drain);
        ctx.attrBarrier->add(wall - fill - drain - busy);
        ctx.attrWall->add(wall);
    }
    batchStats_.batches->increment();
    batchStats_.samples->increment(total);
    // Measured stage bottleneck (mean wall ns of the slowest stage),
    // the empirical counterpart of PrimeModel::stageCosts' analytic
    // maximum.
    batchStats_.bottleneckNs->add(bottleneck);
    return results;
}

} // namespace prime::core
