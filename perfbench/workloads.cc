/**
 * @file
 * The three benchmark workloads and the traced per-layer ledger.
 *
 *   cnn_seq    CNN-1, one PrimeSystem::run() at a time: single-stage
 *              plan, ~578 tiled MVMs of 25 rows per image, so the
 *              per-command cost of the controller and memory dominates.
 *   mlp_pipe   the 4-bank 64-256-256-256-256 MLP through pipelined
 *              runBatch in batches of 16: full 256x256 crossbar MVMs
 *              plus the executor's per-batch spawn, fill and drain.
 *   analog_mc  a Monte-Carlo study on MLP-S: every trial reprograms
 *              with fresh variation, calibrates and runs a fixed test
 *              set on the analog path with read noise.
 *
 * End-to-end metrics come from untraced runs.  The traced run (--trace
 * 1) measures the layers: stats() deltas, public-API probes (the
 * serving layer among them, on mlp_pipe only: ServingEngine over the
 * MLP, open-loop at 1000 req/s), and one short window recorded
 * with the simulator's PRIME_SPAN spans plus the benchmark's own spans,
 * written out for run.py's self-time pass.
 */

#include "workloads.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <span>

#include "common/telemetry/trace_session.hh"

namespace perfbench {

using namespace prime;

namespace {

/**
 * Seed of every model's float weights.  The model is part of the
 * workload, like a trained parameter file; the workload seed draws the
 * inputs.  (Per-seed random networks differ in how close their logits
 * are, which alone moved argmax agreement between 0.82 and 1.0.)
 */
constexpr std::uint64_t kModelSeed = 1;
/** Images per runBatch call of mlp_pipe. */
constexpr std::size_t kBatch = 16;
/** Offered load of the serving probe on the pipelined MLP. */
constexpr double kServeQps = 1000.0;
/** Requests kept in flight by the closed-loop serving probe. */
constexpr int kOutstanding = 64;
/** analog_mc: trials per study and test images per trial (fixed). */
constexpr int kTrials = 4;
constexpr int kTestImages = 48;
/** Floor on argmax agreement with the float network. */
constexpr double kAgreeFloor = 0.5;
constexpr double kAnalogAgreeFloor = 0.3;

constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

std::string
fmt(const char *format, double a, double b = 0.0, double c = 0.0)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, format, a, b, c);
    return buf;
}

/** A timed stretch of a workload: operations, images and failures. */
struct Segment
{
    std::size_t ops = 0;
    std::uint64_t images = 0;
    std::uint64_t mismatches = 0;
    double seconds = 0.0;
    std::vector<double> latencyMs;
    /** stats() deltas over the segment. */
    Counters counters;
};

/** Run the workload for @p seconds or @p max_ops operations. */
using SegmentFn = std::function<Segment(double seconds, std::size_t max_ops)>;

/** Outcome of one operation: images it covered, mismatching outputs. */
struct OpResult
{
    std::uint64_t images = 0;
    std::uint64_t mismatches = 0;
};

/** Closed loop over @p op: one operation after the other. */
Segment
timeOps(const std::function<OpResult(std::size_t)> &op, double seconds,
        std::size_t max_ops)
{
    Segment s;
    const Clock::time_point t0 = Clock::now();
    while (s.ops < max_ops &&
           (seconds <= 0.0 || s.ops == 0 || secondsSince(t0) < seconds)) {
        const Clock::time_point t = Clock::now();
        const OpResult r = op(s.ops);
        s.latencyMs.push_back(1e3 * secondsSince(t));
        s.images += r.images;
        s.mismatches += r.mismatches;
        ++s.ops;
    }
    s.seconds = secondsSince(t0);
    return s;
}

/** A segment of @p op on @p system with its stats() deltas. */
SegmentFn
onSystem(core::PrimeSystem &system,
         std::function<OpResult(std::size_t)> op)
{
    return [&system, op](double seconds, std::size_t max_ops) {
        const Counters c0 = snapshot(system);
        Segment s = timeOps(op, seconds, max_ops);
        s.counters = snapshot(system) - c0;
        return s;
    };
}

std::vector<nn::Tensor>
references(core::PrimeSystem &system, const std::vector<nn::Tensor> &images)
{
    std::vector<nn::Tensor> refs;
    refs.reserve(images.size());
    for (const nn::Tensor &img : images)
        refs.push_back(system.run(img));
    return refs;
}

double
agreement(const std::vector<nn::Tensor> &outputs,
          const std::vector<int> &float_top)
{
    std::size_t agree = 0;
    for (std::size_t i = 0; i < outputs.size(); ++i)
        agree += argmax(outputs[i]) == float_top[i] ? 1 : 0;
    return static_cast<double>(agree) /
           static_cast<double>(std::max<std::size_t>(outputs.size(), 1));
}

/** Everything a workload sets up before anything is timed. */
struct Context
{
    RunConfig cfg;
    Model model;
    Inputs inputs;
    std::vector<int> floatTop;
    Prepared prepared;
    /** run() reference of every pool image on the prepared system. */
    std::vector<nn::Tensor> refs;
    Report report;

    Pool pool() const { return Pool{&inputs.images, &refs}; }
};

void
checkAgreement(Context &ctx, double agree, double floor)
{
    if (agree < floor) {
        ctx.report.correct = false;
        ctx.report.note(fmt("FAIL: argmax agreement %.3f below floor %.2f",
                            agree, floor));
    }
}

/** The untimed part: inputs, float argmax, set-ups, references. */
void
prepareContext(Context &ctx, int pool, int side, std::uint64_t variation)
{
    ctx.inputs = makeInputs(ctx.cfg.seed, pool, 16, side);
    ctx.floatTop = floatArgmax(ctx.model.net, ctx.inputs.images);
    ctx.prepared = prepare(ctx.model, ctx.inputs.calibration, variation);
}

/**
 * Windows of @p size consecutive values of @p values, one starting every
 * @p stride values.
 */
std::vector<std::vector<double>>
windows(const std::vector<double> &values, std::size_t size,
        std::size_t stride)
{
    size = std::clamp<std::size_t>(size, 1, std::max<std::size_t>(
                                                 values.size(), 1));
    std::vector<std::vector<double>> out;
    for (std::size_t i = 0; i + size <= values.size();
         i += std::max<std::size_t>(stride, 1))
        out.emplace_back(values.begin() + i, values.begin() + i + size);
    return out;
}

/**
 * Images per host second of a run of operations, taken in the run's best
 * stretch: the highest rate over stretches of @p window_ops operations.
 * The shared host this benchmark runs on slows every process in phases
 * of seconds (the same run() loop alternates between ~3.7 and ~5.3 ms
 * per image); interference only ever adds time, so the best stretch is
 * the closest to the program's own cost, and it stays put from run to
 * run where whole-run figures do not.  Stretches start every quarter
 * stretch, so a quiet phase is found wherever it falls; @p aligned makes
 * them disjoint (analog_mc: one per study).
 */
double
bestImagesPerS(const std::vector<double> &latency_ms, double images_per_op,
               std::size_t window_ops, bool aligned)
{
    double best = 0.0;
    for (const std::vector<double> &w :
         windows(latency_ms, window_ops,
                 aligned ? window_ops : window_ops / 4)) {
        double ms = 0.0;
        for (double v : w)
            ms += v;
        best = std::max(best, images_per_op *
                                  static_cast<double>(w.size()) /
                                  (ms / 1e3));
    }
    return best;
}

/**
 * The end-to-end metrics every workload reports.  setup_s is the
 * fastest of the set-ups timed before and during the run, by the same
 * reasoning as bestImagesPerS.
 */
void
reportEndToEnd(Context &ctx, double images_per_s, double agree)
{
    Report &r = ctx.report;
    std::vector<double> setup_s;
    for (const SetupTimes &t : ctx.prepared.times)
        setup_s.push_back(t.totalS());
    r.set("setup_s", *std::min_element(setup_s.begin(), setup_s.end()),
          "s");
    r.set("images_per_s", images_per_s, "1/s");
    r.set("accuracy_agree", agree, "fraction");
    r.set("peak_rss_mb", peakRssMb(), "MB");
    r.note(fmt("set-ups timed: %.0f, median %.6f s",
               static_cast<double>(setup_s.size()), median(setup_s)));
}

/**
 * The measured run: @p seconds of @p segment in ten chunks, with one
 * more timed set-up on a fresh system after each chunk, so the set-ups
 * sample the whole run rather than its first second.
 */
Segment
measure(Context &ctx, const SegmentFn &segment, std::uint64_t variation)
{
    Segment all;
    for (int chunk = 0; chunk < 10; ++chunk) {
        const Segment s = segment(ctx.cfg.seconds / 10.0, kUnbounded);
        all.ops += s.ops;
        all.images += s.images;
        all.mismatches += s.mismatches;
        all.seconds += s.seconds;
        all.latencyMs.insert(all.latencyMs.end(), s.latencyMs.begin(),
                             s.latencyMs.end());
        all.counters = all.counters + s.counters;
        core::PrimeSystem fresh(ctx.model.tech);
        Rng rng(variation);
        ctx.prepared.times.push_back(timedSetup(
            fresh, ctx.model, ctx.inputs.calibration,
            variation ? &rng : nullptr));
    }
    return all;
}

/** Modeled-clock figures (deterministic; printed, not gated). */
void
noteModeled(Context &ctx, core::PrimeSystem &system, const Counters &delta,
            std::uint64_t images)
{
    ctx.report.note(fmt("modeled_us_per_image = %.4f us (PrimeModel)",
                        system.estimatePerformance().timePerImage / 1e3));
    if (images)
        ctx.report.note(fmt("modeled_mem_ns_per_image = %.2f ns (timed "
                            "bank/channel model)",
                            delta.primeProgressNs /
                                static_cast<double>(images)));
}

// ------------------------------------------------------- per layer --

/** The serve.* metrics of the serving probes (empty probes read 0). */
void
reportServing(Report &r, const OpenLoopResult &o, const ClosedLoopResult &c,
              double slo_qps)
{
    r.set("serve.latency_p50_ms", percentile(o.latencyMs, 0.5), "ms");
    r.set("serve.latency_p99_ms", percentile(o.latencyMs, 0.99), "ms");
    r.set("serve.queue_wait_p50_ms", percentile(o.queueWaitMs, 0.5), "ms");
    r.set("serve.queue_wait_p99_ms", percentile(o.queueWaitMs, 0.99), "ms");
    r.set("serve.exec_p50_ms", percentile(o.execMs, 0.5), "ms");
    double batch_sum = 0.0;
    for (double b : o.batchSizes)
        batch_sum += b;
    r.set("serve.batch_mean",
          batch_sum / std::max<double>(1.0, o.batchSizes.size()), "count");
    r.set("serve.backlog_max", static_cast<double>(o.backlogMax), "count");
    r.set("serve.gen_lag_p99_ms", percentile(o.lagMs, 0.99), "ms");
    r.set("serve.shed_frac",
          static_cast<double>(o.shed) /
              std::max<double>(1.0, static_cast<double>(o.offered)),
          "fraction");
    r.set("serve.sat_qps", c.completionsPerS, "1/s");
    r.set("serve.slo_qps", slo_qps, "1/s");
}

/**
 * The traced run's ledger.  @p probe is a programmed system whose
 * run() references are ctx.refs; @p segment drives the workload.
 * @p serve_qps is the serving probes' offered load, 0 on a workload
 * without serving traffic.
 */
void
perLayer(Context &ctx, core::PrimeSystem &probe, const SegmentFn &segment,
         std::size_t traced_ops, std::size_t period, double serve_qps,
         Rng *variation)
{
    Report &r = ctx.report;
    const Pool pool = ctx.pool();
    r.set("mapping.mats", static_cast<double>(probe.plan().totalMats()),
          "count");
    r.set("mapping.stages", static_cast<double>(probe.stages().size()),
          "count");
    r.set("sim.modeled_images_per_s",
          1e9 / probe.estimatePerformance().timePerImage, "1/s");

    // Untraced stretch: stats() deltas per image and the baseline rate
    // for the tracing overhead.
    const Segment base = segment(0.2 * ctx.cfg.seconds, kUnbounded);
    const Counters &d = base.counters;
    const double images = static_cast<double>(std::max<std::uint64_t>(
        base.images, 1));
    ctx.report.attempted += base.images;
    ctx.report.failed += base.mismatches;
    r.set("prime.tiled_mvms_per_image", d.tiledMvms / images, "count");
    r.set("prime.commands_per_image", d.commands / images, "count");
    r.set("reram.mvms_per_image", d.matMvms / images, "count");
    r.set("memory.bursts_per_image", d.bursts / images, "count");
    r.set("memory.row_hit_rate",
          d.rowHits / std::max(1.0, d.rowHits + d.rowMisses), "fraction");
    r.set("memory.modeled_images_per_s",
          d.primeProgressNs > 0.0 ? images / (d.primeProgressNs / 1e9)
                                  : 0.0,
          "1/s");
    r.set("prime.stage_busy_frac", d.wallNs > 0.0 ? d.busyNs / d.wallNs : 0.0,
          "fraction");
    r.set("prime.stage_stall_frac",
          d.wallNs > 0.0 ? d.stallNs / d.wallNs : 0.0, "fraction");
    const double capacity = images / base.seconds;

    // Per-stage host time of public runStage on the stage's own context.
    const std::size_t n_stages = probe.stages().size();
    const std::size_t probe_images =
        std::min<std::size_t>(pool.images->size(), 32);
    std::vector<std::vector<double>> stage_us(n_stages);
    for (std::size_t i = 0; i < probe_images; ++i) {
        nn::Tensor x = (*pool.images)[i];
        for (std::size_t s = 0; s < n_stages; ++s) {
            const Clock::time_point t0 = Clock::now();
            x = probe.runStage(x, s, probe.stageContext(s));
            stage_us[s].push_back(1e6 * secondsSince(t0));
        }
        if (!sameBits(x, (*pool.refs)[i]))
            ++r.failed;
    }
    double stage_max = 0.0, stage_total = 0.0;
    for (std::size_t s = 0; s < n_stages; ++s) {
        const double us = median(stage_us[s]);
        stage_max = std::max(stage_max, us);
        stage_total += us;
        r.note(fmt("stage %.0f: %.1f us/image", static_cast<double>(s),
                   us));
    }
    r.set("prime.stage_us_max", stage_max, "us");
    r.set("prime.stage_us_total", stage_total, "us");

    // Fixed cost of one runBatch call over one run() of the same image.
    std::vector<double> run_us, batch_us;
    for (std::size_t i = 0; i < 2 * probe_images; ++i) {
        const std::size_t k = i % probe_images;
        const nn::Tensor &x = (*pool.images)[k];
        Clock::time_point t0 = Clock::now();
        const nn::Tensor y = probe.run(x);
        run_us.push_back(1e6 * secondsSince(t0));
        t0 = Clock::now();
        const std::vector<nn::Tensor> yb =
            probe.runBatch(std::span<const nn::Tensor>(&x, 1));
        batch_us.push_back(1e6 * secondsSince(t0));
        if (!sameBits(y, (*pool.refs)[k]) || !sameBits(yb[0], y))
            ++r.failed;
    }
    r.set("prime.batch_fixed_us", median(batch_us) - median(run_us), "us");

    // The serving layer, on the workload that serves (mlp_pipe):
    // open-loop Poisson load timed from each due time, a closed loop and
    // the SLO search.  No traffic is made up for the other workloads;
    // their serve.* metrics read 0.
    if (serve_qps > 0.0) {
        const OpenLoopResult o =
            openLoop(probe, pool, serve_qps,
                     std::clamp(2000.0 / serve_qps, 1.0, 3.0),
                     ctx.cfg.seed + 101, 512);
        r.failed += o.mismatches;
        r.note(fmt("serve probe: %.0f req/s offered, %.0f completed, %.0f "
                   "over 10 ms",
                   serve_qps, static_cast<double>(o.completed),
                   static_cast<double>(o.overLimit)));
        const ClosedLoopResult c = closedLoop(probe, pool, kOutstanding, 1.0);
        r.failed += c.mismatches + c.shed;
        const double slo = sloSearch(probe, pool, 0.5 * capacity,
                                     1.5 * capacity, 0.4, 6,
                                     ctx.cfg.seed + 202);
        reportServing(r, o, c, slo);
    } else {
        reportServing(r, {}, {}, 0.0);
        r.note("serve.*: no serving traffic on this workload, reported as 0");
    }

    // The traced window: simulator spans + the benchmark's own spans.
    telemetry::TraceSession session;
    telemetry::setGlobalTrace(&session);
    session.enable();
    spans().enable();
    {
        core::PrimeSystem fresh(ctx.model.tech);
        timedSetup(fresh, ctx.model, ctx.inputs.calibration, variation);
    }
    Segment traced;
    {
        BenchSpan window("bench.traced_ops");
        traced = segment(0.0, traced_ops);
    }
    for (std::size_t i = 0; i < std::min<std::size_t>(probe_images, 4);
         ++i) {
        nn::Tensor x = (*pool.images)[i];
        for (std::size_t s = 0; s < n_stages; ++s) {
            BenchSpan span("bench.runStage");
            x = probe.runStage(x, s, probe.stageContext(s));
        }
    }
    if (serve_qps > 0.0)
        r.failed += openLoop(probe, pool, serve_qps, 0.25,
                             ctx.cfg.seed + 303, 512)
                        .mismatches;
    session.disable();
    spans().disable();
    telemetry::setGlobalTrace(nullptr);

    r.failed += traced.mismatches;
    r.attempted += traced.images;
    // Tracing overhead: each traced operation against the median
    // untraced operation of the same kind (operation index modulo
    // @p period: analog_mc's trials differ by their index in a study).
    double base_ms = 0.0, traced_ms = 0.0;
    for (std::size_t i = 0; i < traced.latencyMs.size(); ++i) {
        std::vector<double> same_kind;
        for (std::size_t j = i % period; j < base.latencyMs.size();
             j += period)
            same_kind.push_back(base.latencyMs[j]);
        base_ms += median(same_kind);
        traced_ms += traced.latencyMs[i];
    }
    r.set("trace.overhead_frac", 1.0 - base_ms / traced_ms, "fraction");
    r.tracedImages = traced.images;
    {
        std::ofstream os(ctx.cfg.traceOut + ".program.json");
        session.writeChromeTrace(os);
    }
    spans().write(ctx.cfg.traceOut + ".bench.json");
}

/** Per-phase medians of the timed set-ups. */
void
perLayerSetup(Context &ctx)
{
    const std::vector<SetupTimes> &times = ctx.prepared.times;
    auto phase = [&](const char *name, double SetupTimes::*ms) {
        std::vector<double> v;
        for (const SetupTimes &t : times)
            v.push_back(t.*ms);
        ctx.report.set(name, median(v), "ms");
    };
    phase("mapping.map_ms", &SetupTimes::mapMs);
    phase("prime.program_ms", &SetupTimes::programMs);
    phase("prime.config_ms", &SetupTimes::configMs);
    phase("prime.calibrate_ms", &SetupTimes::calibrateMs);
    ctx.report.set("prime.program_ms_first", times.front().programMs, "ms");
    ctx.report.set("prime.program_ms_last", times.back().programMs, "ms");
}

// -------------------------------------------------------- workloads --

Report
cnnSeq(const RunConfig &cfg)
{
    Context ctx{cfg, mlBenchModel("CNN-1", kModelSeed), {}, {}, {}, {}, {}};
    prepareContext(ctx, 384, 28, 0);
    core::PrimeSystem &sys = *ctx.prepared.system;
    ctx.refs = references(sys, ctx.inputs.images);  // also the warm-up
    const double agree = agreement(ctx.refs, ctx.floatTop);
    checkAgreement(ctx, agree, kAgreeFloor);
    ctx.report.base = "images";

    auto op = [&](std::size_t i) {
        const std::size_t k = i % ctx.inputs.images.size();
        BenchSpan span("bench.run");
        const nn::Tensor y = sys.run(ctx.inputs.images[k]);
        return OpResult{1, sameBits(y, ctx.refs[k]) ? 0u : 1u};
    };
    const SegmentFn segment = onSystem(sys, op);
    if (cfg.trace) {
        perLayerSetup(ctx);
        perLayer(ctx, sys, segment, 2, 1, 0.0, nullptr);
        return ctx.report;
    }
    const Segment s = measure(ctx, segment, 0);
    ctx.report.attempted = s.images;
    ctx.report.failed = s.mismatches;
    const double images_per_s =
        bestImagesPerS(s.latencyMs, 1.0, s.ops / 20, false);
    reportEndToEnd(ctx, images_per_s, agree);
    ctx.report.note(fmt("images_per_s = %.3f 1/s (closed loop, one run() "
                        "at a time)",
                        images_per_s));
    noteModeled(ctx, sys, s.counters, s.images);
    return ctx.report;
}

Report
mlpPipe(const RunConfig &cfg)
{
    Context ctx{cfg, pipelineModel(kModelSeed), {}, {}, {}, {}, {}};
    prepareContext(ctx, 1024, 8, 0);
    core::PrimeSystem &sys = *ctx.prepared.system;
    ctx.refs = references(sys, ctx.inputs.images);
    const double agree = agreement(ctx.refs, ctx.floatTop);
    checkAgreement(ctx, agree, kAgreeFloor);
    ctx.report.base = "images";

    const std::size_t batches = ctx.inputs.images.size() / kBatch;
    auto op = [&](std::size_t i) {
        const std::size_t first = (i % batches) * kBatch;
        std::vector<nn::Tensor> out;
        {
            BenchSpan span("bench.runBatch");
            out = sys.runBatch(std::span<const nn::Tensor>(
                ctx.inputs.images.data() + first, kBatch));
        }
        OpResult r{kBatch, 0};
        for (std::size_t j = 0; j < kBatch; ++j)
            r.mismatches += sameBits(out[j], ctx.refs[first + j]) ? 0 : 1;
        return r;
    };
    // Warm the executor path once before anything is timed; its outputs
    // are checked and counted like the timed ones.
    for (std::size_t b = 0; b < batches; ++b) {
        const OpResult w = op(b);
        ctx.report.attempted += w.images;
        ctx.report.failed += w.mismatches;
    }
    const SegmentFn segment = onSystem(sys, op);
    if (cfg.trace) {
        perLayerSetup(ctx);
        perLayer(ctx, sys, segment, 16, 1, kServeQps, nullptr);
        return ctx.report;
    }
    const Segment s = measure(ctx, segment, 0);
    ctx.report.attempted += s.images;
    ctx.report.failed += s.mismatches;
    const double images_per_s =
        bestImagesPerS(s.latencyMs, kBatch, s.ops / 20, false);
    reportEndToEnd(ctx, images_per_s, agree);
    ctx.report.note(fmt("images_per_s = %.3f 1/s (runBatch of %.0f)",
                        images_per_s, static_cast<double>(kBatch)));
    noteModeled(ctx, sys, s.counters, s.images);
    return ctx.report;
}

/** Seeds of trial @p t's programming variation and read noise. */
std::uint64_t
variationSeed(std::uint64_t seed, int t)
{
    return seed * 1000003ULL + 2 * static_cast<std::uint64_t>(t) + 1;
}
std::uint64_t
noiseSeed(std::uint64_t seed, int t)
{
    return seed * 1000003ULL + 2 * static_cast<std::uint64_t>(t) + 2;
}

Report
analogMc(const RunConfig &cfg)
{
    Context ctx{cfg, mlBenchModel("MLP-S", kModelSeed), {}, {}, {}, {}, {}};
    prepareContext(ctx, kTestImages, 28, variationSeed(cfg.seed, 0));
    ctx.report.base = "test images";
    const std::vector<nn::Tensor> &images = ctx.inputs.images;

    // One trial on a mapped system: reprogram with fresh variation,
    // calibrate, run the test set on the noisy analog path, release.
    struct Trial
    {
        SetupTimes setup;
        std::vector<nn::Tensor> outputs;
        Counters runDelta;
    };
    auto trial = [&](core::PrimeSystem &sys, int t, bool batched) {
        Trial out;
        Rng variation(variationSeed(cfg.seed, t));
        Rng noise(noiseSeed(cfg.seed, t));
        out.setup =
            timedReprogram(sys, ctx.model, ctx.inputs.calibration, &variation);
        sys.setAnalogCompute(true, &noise);
        const Counters c0 = snapshot(sys);
        if (batched) {
            BenchSpan span("bench.runBatch");
            out.outputs = sys.runBatch(std::span<const nn::Tensor>(images));
        } else {
            out.outputs = references(sys, images);
        }
        out.runDelta = snapshot(sys) - c0;
        sys.setAnalogCompute(false);
        {
            BenchSpan span("bench.release");
            sys.release();
        }
        return out;
    };

    // Reference study (untimed): per-sample run() with the same seeds.
    std::vector<std::vector<nn::Tensor>> trial_refs;
    {
        core::PrimeSystem sys(ctx.model.tech);
        sys.mapTopology(ctx.model.topology);
        for (int t = 0; t < kTrials; ++t)
            trial_refs.push_back(trial(sys, t, false).outputs);
    }

    // A study maps one fresh system and runs kTrials trials on it; the
    // functional store grows trial over trial, so trial t of every
    // study does the same work.
    std::unique_ptr<core::PrimeSystem> study;
    std::vector<double> agree_per_trial;
    std::vector<std::vector<double>> program_ms(kTrials);
    Counters run_delta, trial_delta;
    std::uint64_t run_images = 0;
    auto op = [&](std::size_t i) {
        const int t = static_cast<int>(i % kTrials);
        if (t == 0) {
            study = std::make_unique<core::PrimeSystem>(ctx.model.tech);
            study->mapTopology(ctx.model.topology);
        }
        const Counters c0 = snapshot(*study);
        const Trial tr = trial(*study, t, true);
        trial_delta = trial_delta + (snapshot(*study) - c0);
        if (!spans().enabled())
            program_ms[static_cast<std::size_t>(t)].push_back(
                tr.setup.programMs);
        agree_per_trial.push_back(agreement(tr.outputs, ctx.floatTop));
        run_delta = run_delta + tr.runDelta;
        run_images += images.size();
        OpResult r{images.size(), 0};
        for (std::size_t j = 0; j < images.size(); ++j)
            r.mismatches += sameBits(tr.outputs[j],
                                     trial_refs[static_cast<std::size_t>(
                                         t)][j])
                                ? 0
                                : 1;
        return r;
    };
    // Whole studies only, so every trial index is measured equally.
    SegmentFn segment = [&](double seconds, std::size_t max_ops) {
        Segment s;
        const Counters before = trial_delta;
        const Clock::time_point t0 = Clock::now();
        do {
            Segment study_run = timeOps(op, 0.0, std::min<std::size_t>(
                                                     max_ops - s.ops,
                                                     kTrials));
            s.ops += study_run.ops;
            s.images += study_run.images;
            s.mismatches += study_run.mismatches;
            s.latencyMs.insert(s.latencyMs.end(),
                               study_run.latencyMs.begin(),
                               study_run.latencyMs.end());
        } while (s.ops < max_ops &&
                 (seconds <= 0.0 || secondsSince(t0) < seconds));
        s.seconds = secondsSince(t0);
        s.counters = trial_delta - before;
        return s;
    };

    if (cfg.trace) {
        perLayerSetup(ctx);
        // The probe system: the last prepared set-up on the analog path
        // without read noise, which is deterministic and has run()
        // references of its own.
        core::PrimeSystem &probe = *ctx.prepared.system;
        probe.setAnalogCompute(true);
        ctx.refs = references(probe, images);
        Rng variation(variationSeed(cfg.seed, 0));
        perLayer(ctx, probe, segment, 1, kTrials, 0.0, &variation);
        std::vector<double> all;
        for (int t = 0; t < kTrials; ++t) {
            const auto &v = program_ms[static_cast<std::size_t>(t)];
            if (v.empty())
                continue;
            all.insert(all.end(), v.begin(), v.end());
            ctx.report.note(fmt("trial %.0f: programWeight %.1f ms (median "
                                "over %.0f studies)",
                                t, median(v), static_cast<double>(v.size())));
        }
        ctx.report.set("prime.program_ms", median(all), "ms");
        ctx.report.set("prime.program_ms_first", median(program_ms.front()),
                       "ms");
        ctx.report.set("prime.program_ms_last", median(program_ms.back()),
                       "ms");
        return ctx.report;
    }

    const Segment s = measure(ctx, segment, variationSeed(cfg.seed, 0));
    double agree = 0.0;
    for (double a : agree_per_trial)
        agree += a;
    agree /= static_cast<double>(std::max<std::size_t>(
        agree_per_trial.size(), 1));
    checkAgreement(ctx, agree, kAnalogAgreeFloor);
    ctx.report.attempted = s.images;
    ctx.report.failed = s.mismatches;
    // Windows are whole studies, so each holds every trial index once.
    const double images_per_s =
        bestImagesPerS(s.latencyMs, images.size(), kTrials, true);
    reportEndToEnd(ctx, images_per_s, agree);
    ctx.report.note(fmt("trials_per_s = %.4f 1/s (%.0f trials of %.0f test "
                        "images)",
                        images_per_s / static_cast<double>(images.size()),
                        static_cast<double>(s.ops),
                        static_cast<double>(images.size())));
    for (int t = 0; t < kTrials; ++t)
        ctx.report.note(fmt("trial %.0f: programWeight %.1f ms (median over "
                            "%.0f studies)",
                            t, median(program_ms[static_cast<std::size_t>(t)]),
                            static_cast<double>(
                                program_ms[static_cast<std::size_t>(t)]
                                    .size())));
    noteModeled(ctx, *ctx.prepared.system, run_delta, run_images);
    return ctx.report;
}

} // namespace

Report
runWorkload(const RunConfig &cfg)
{
    Report r;
    if (cfg.workload == "cnn_seq") {
        r = cnnSeq(cfg);
    } else if (cfg.workload == "mlp_pipe") {
        r = mlpPipe(cfg);
    } else if (cfg.workload == "analog_mc") {
        r = analogMc(cfg);
    } else {
        r.correct = false;
        r.note("unknown workload '" + cfg.workload + "'");
    }
    // Any failed operation, warm-up and probes included, fails the run.
    if (r.failed)
        r.correct = false;
    return r;
}

} // namespace perfbench
