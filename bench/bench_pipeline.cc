/**
 * @file
 * Inter-bank pipeline throughput bench (paper Section V-A's inter-bank
 * parallelism): a Large-scale mapping spreads a 4-layer MLP over four
 * banks, and the executor runs a batch through the bank stages as
 * lockstep wavefront steps, the active stages of a step in parallel on
 * the global pool.
 *
 * Throughput is reported in the modeled (simulated-hardware) domain,
 * like every other bench here: sequential time/image is the sum of the
 * per-stage costs, the pipelined interval is the bottleneck stage, and
 * their ratio is the pipeline speedup.  The functional engine runs the
 * same batch both ways to check the outputs stay bit-identical, to
 * cross-check the analytic bottleneck share against the measured
 * per-stage wall-clock shares, and to measure the *host* speedup the
 * executor delivers (the headline perf metric; it needs spare host
 * cores, so a shortfall WARNs rather than failing).  Host time is
 * noisy on a shared machine, so the sequential and pipelined sides run
 * interleaved, kRepeats times each, in this one process: the headline
 * pipeline.host_speedup is the median of the per-repeat ratios, printed
 * with its quartiles and the sides' own medians and quartiles.  The
 * timed repeats execute under an enabled MetricsRegistry (sampler on,
 * watching the system stats with their live stage gauges), their
 * flight-recorder attribution (busy / fill / drain / barrier wait per
 * stage) prints as a bottleneck report,
 * and the end-to-end latency quantiles plus the per-stage attribution
 * land in BENCH_pipeline.json -- headline numbers as top-level fields,
 * the sampled series summarized in the "metrics" section.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "common/thread_pool.hh"
#include "nn/topology.hh"
#include "prime/prime_system.hh"
#include "sim/prime_model.hh"

using namespace prime;

namespace {

/** One FF mat per bank: each weighted layer becomes its own bank stage. */
nvmodel::TechParams
pipelineTech()
{
    nvmodel::TechParams tech = nvmodel::defaultTechParams();
    tech.geometry.ffSubarraysPerBank = 1;
    tech.geometry.matsPerSubarray = 1;
    return tech;
}

double
elapsedNs(std::chrono::steady_clock::time_point t0)
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

/** Interleaved sequential/pipelined repeats of the host timing. */
constexpr int kRepeats = 11;

/** Lower quartile, median and upper quartile of @p v (nearest rank). */
std::array<double, 3>
quartiles(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const auto at = [&v](double q) {
        return v[static_cast<std::size_t>(q * (v.size() - 1) + 0.5)];
    };
    return {at(0.25), at(0.5), at(0.75)};
}

/** Snapshot of one stage's cumulative executor counters. */
struct StageSnapshot
{
    double busyNs = 0.0;
    std::uint64_t items = 0;
    /** Flight-recorder attribution (pipeline.attribution section). */
    double stallUpNs = 0.0;
    double stallDownNs = 0.0;
    double idleNs = 0.0;
    double wallNs = 0.0;
};

StageSnapshot
snapshotStage(StatGroup &stats, std::size_t s)
{
    StageSnapshot snap;
    snap.items =
        stats.get("pipeline.stage" + std::to_string(s) + ".items").count();
    StatGroup &attr = stats.child("pipeline.attribution");
    const std::string stage = "stage" + std::to_string(s);
    snap.busyNs = attr.get(stage + ".busy_ns").sum();
    snap.stallUpNs = attr.get(stage + ".stall_upstream_ns").sum();
    snap.stallDownNs = attr.get(stage + ".stall_downstream_ns").sum();
    snap.idleNs = attr.get(stage + ".idle_ns").sum();
    snap.wallNs = attr.get(stage + ".wall_ns").sum();
    return snap;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchRun run("pipeline", argc, argv);
    bench::header("inter-bank pipeline throughput");

    // Four balanced 256-wide FC layers so no single stage starves the
    // others; on the 1-mat-per-bank geometry this maps Large across
    // four banks.
    nn::Topology topo = nn::parseTopology(
        "mlp-pipeline", "64-256-256-256-256", 1, 8, 8);
    Rng rng(7);
    nn::Network net = nn::buildNetwork(topo, rng);

    core::PrimeSystem prime(pipelineTech());
    const mapping::MappingPlan &plan = prime.mapTopology(topo);
    prime.programWeight(net);
    prime.configDatapath();
    std::printf("mapping: scale %s, %d bank(s), %zu pipeline stage(s)\n",
                mapping::nnScaleName(plan.scale), plan.banksUsed,
                prime.stages().size());

    const int batch = 64;
    Rng input_rng(11);
    std::vector<nn::Tensor> inputs;
    for (int i = 0; i < batch; ++i) {
        nn::Tensor t({1, 8, 8});
        for (std::size_t k = 0; k < t.size(); ++k)
            t[k] = input_rng.uniform(0.0, 1.0);
        inputs.push_back(std::move(t));
    }

    ThreadPool::setGlobalThreadCount(
        std::max<int>(4, static_cast<int>(prime.stages().size())));

    // Warm-up passes (page in weights, fault in the store, warm the
    // CPU caches) before anything is timed; --warmup N scales them,
    // 0 disables (and lets the cold-start cost land in host_* numbers).
    int warmup = 1;
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--warmup") && i + 1 < argc)
            warmup = std::atoi(argv[++i]);
    for (int i = 0; i < warmup; ++i)
        (void)prime.runBatch(std::span<const nn::Tensor>(inputs));

    // Diff the executor's cumulative stage counters across the timed
    // repeats so the utilization breakdown covers only them (the
    // warm-up batch already populated them).
    const std::size_t n_stages = prime.stages().size();
    std::vector<StageSnapshot> before;
    for (std::size_t s = 0; s < n_stages; ++s)
        before.push_back(snapshotStage(prime.stats(), s));
    const double bottleneck_before =
        prime.stats().get("pipeline.measured_bottleneck_ns").sum();
    // Quantiles must cover the timed runs only; the warm-up batch
    // already fed this histogram.
    prime.stats().histogram("pipeline.e2e_latency_ns").reset();

    // The timed repeats execute fully observed: sampler thread on,
    // watching the system's stats (the pipeline's stage-state gauges
    // among them) and the per-bank memory occupancy.
    telemetry::MetricsRegistry registry;
    registry.enable();
    registry.watch(prime.stats());
    registry.watch(prime.mainMemory().occupancy());
    registry.startSampler(1);

    // Interleaved repeats: the same images one run() at a time, then
    // as one pipelined batch, kRepeats times.
    std::vector<double> seq_runs, pipe_runs, ratios;
    std::vector<nn::Tensor> seq_out, pipe_out;
    for (int r = 0; r < kRepeats; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        seq_out.clear();
        for (const nn::Tensor &in : inputs)
            seq_out.push_back(prime.run(in));
        seq_runs.push_back(elapsedNs(t0));

        t0 = std::chrono::steady_clock::now();
        pipe_out = prime.runBatch(std::span<const nn::Tensor>(inputs));
        pipe_runs.push_back(elapsedNs(t0));
        ratios.push_back(seq_runs.back() / pipe_runs.back());
    }

    registry.stopSampler();
    run.metrics(registry);
    ThreadPool::setGlobalThreadCount(0);

    // The engine's determinism contract: bit-identical outputs.
    for (std::size_t i = 0; i < seq_out.size(); ++i)
        for (std::size_t k = 0; k < seq_out[i].size(); ++k)
            if (seq_out[i][k] != pipe_out[i][k]) {
                std::fprintf(stderr,
                             "FAIL: pipelined output diverges at sample "
                             "%zu element %zu\n",
                             i, k);
                return 1;
            }

    // Modeled throughput: a batch drains at one image per bottleneck-
    // stage interval instead of one per whole-network traversal.
    sim::PrimeModel model(pipelineTech());
    const std::vector<Ns> stage_costs = model.stageCosts(topo, plan);
    Ns total_ns = 0.0, bottleneck_ns = 0.0;
    for (Ns c : stage_costs) {
        total_ns += c;
        bottleneck_ns = std::max(bottleneck_ns, c);
    }
    // Fill the pipeline, then one image per interval.
    const double pipe_batch_ns =
        total_ns + (batch - 1) * bottleneck_ns;
    const double seq_batch_ns = batch * total_ns;
    const double speedup = seq_batch_ns / pipe_batch_ns;
    std::printf("modeled sequential: %9.2f us/batch (%7.0f Kimages/s)\n",
                seq_batch_ns / 1e3, batch / (seq_batch_ns / 1e9) / 1e3);
    std::printf("modeled pipelined:  %9.2f us/batch (%7.0f Kimages/s)\n",
                pipe_batch_ns / 1e3, batch / (pipe_batch_ns / 1e9) / 1e3);
    std::printf("modeled speedup:    %9.2fx (ideal %.2fx at this "
                "balance)\n",
                speedup, total_ns / bottleneck_ns);

    // Cross-check the analytic bottleneck against the executor's
    // measured per-stage wall-clock: the heaviest stage should claim a
    // similar share of the total in both domains.
    std::vector<StageSnapshot> timed(n_stages);
    double busy_total = 0.0, busy_max = 0.0;
    std::size_t busiest = 0;
    for (std::size_t s = 0; s < n_stages; ++s) {
        const StageSnapshot after = snapshotStage(prime.stats(), s);
        timed[s].busyNs = after.busyNs - before[s].busyNs;
        timed[s].items = after.items - before[s].items;
        timed[s].stallUpNs = after.stallUpNs - before[s].stallUpNs;
        timed[s].stallDownNs =
            after.stallDownNs - before[s].stallDownNs;
        timed[s].idleNs = after.idleNs - before[s].idleNs;
        timed[s].wallNs = after.wallNs - before[s].wallNs;
        busy_total += timed[s].busyNs;
        if (timed[s].busyNs > busy_max) {
            busy_max = timed[s].busyNs;
            busiest = s;
        }
    }
    // Each batch adds its bottleneck: the mean over the repeats.
    const double measured_bottleneck_ns =
        (prime.stats().get("pipeline.measured_bottleneck_ns").sum() -
         bottleneck_before) /
        kRepeats;
    const double measured_share =
        busy_total > 0.0 ? busy_max / busy_total : 0.0;
    std::printf("measured stage wall: bottleneck %.1f us/image, share "
                "%.2f of stage work (analytic %.2f)\n",
                measured_bottleneck_ns / 1e3, measured_share,
                bottleneck_ns / total_ns);

    const std::array<double, 3> seq_q = quartiles(seq_runs);
    const std::array<double, 3> pipe_q = quartiles(pipe_runs);
    const std::array<double, 3> speedup_q = quartiles(ratios);
    const double seq_ns = seq_q[1];
    const double pipe_ns = pipe_q[1];
    const double host_speedup = speedup_q[1];
    std::printf("host wall-clock, median [quartiles] of %d interleaved "
                "repeats on %u hardware threads:\n"
                "  sequential %.2f ms [%.2f-%.2f], pipelined %.2f ms "
                "[%.2f-%.2f], speedup %.2fx [%.2f-%.2f]\n",
                kRepeats, std::thread::hardware_concurrency(),
                seq_q[1] / 1e6, seq_q[0] / 1e6, seq_q[2] / 1e6,
                pipe_q[1] / 1e6, pipe_q[0] / 1e6, pipe_q[2] / 1e6,
                speedup_q[1], speedup_q[0], speedup_q[2]);

    // Flight-recorder bottleneck report: where each stage's share of
    // the timed batches' wall time went.  Stall-up is the fill before
    // the stage's first chunk, stall-down the drain after its last,
    // and idle the barrier wait in its own steps: the time the step's
    // slowest stage, and the step's own overhead, kept it waiting.
    std::printf("\nbottleneck report (%d timed pipelined batches):\n",
                kRepeats);
    for (std::size_t s = 0; s < n_stages; ++s) {
        const StageSnapshot &t = timed[s];
        const double wall = t.wallNs > 0.0 ? t.wallNs : 1.0;
        std::printf("  stage %zu: busy %5.1f%% | stall-up %5.1f%% | "
                    "stall-down %5.1f%% | idle %5.1f%%  "
                    "(busy %.3f ms, %llu items)\n",
                    s, 100.0 * t.busyNs / wall,
                    100.0 * t.stallUpNs / wall,
                    100.0 * t.stallDownNs / wall,
                    100.0 * t.idleNs / wall, t.busyNs / 1e6,
                    static_cast<unsigned long long>(t.items));
    }
    const telemetry::Histogram &e2e =
        prime.stats().histogram("pipeline.e2e_latency_ns");
    const double e2e_p50 = e2e.quantile(0.50);
    const double e2e_p95 = e2e.quantile(0.95);
    const double e2e_p99 = e2e.quantile(0.99);
    std::printf("  bottleneck: stage %zu (%.2f of stage work); e2e "
                "latency p50 %.1f us, p95 %.1f us, p99 %.1f us over "
                "%llu samples\n",
                busiest,
                busy_total > 0.0 ? busy_max / busy_total : 0.0,
                e2e_p50 / 1e3, e2e_p95 / 1e3, e2e_p99 / 1e3,
                static_cast<unsigned long long>(e2e.count()));
    if (host_speedup < 1.0)
        std::printf("WARN: host speedup %.2fx below 1.0x (spare host "
                    "cores needed; see the bottleneck report)\n",
                    host_speedup);

    // Headline metrics as top-level JSON fields (CI gates read these).
    run.topLevel("pipeline.speedup", speedup);
    run.topLevel("pipeline.host_speedup", host_speedup);
    run.topLevel("pipeline.host_speedup_q1", speedup_q[0]);
    run.topLevel("pipeline.host_speedup_q3", speedup_q[2]);
    run.topLevel("pipeline.host_repeats", kRepeats);
    run.topLevel("pipeline.measured_bottleneck_ns",
                 measured_bottleneck_ns);
    run.topLevel("pipeline.host_sequential_ms", seq_ns / 1e6);
    run.topLevel("pipeline.host_pipelined_ms", pipe_ns / 1e6);
    run.topLevel("pipeline.e2e_p50_ns", e2e_p50);
    run.topLevel("pipeline.e2e_p95_ns", e2e_p95);
    run.topLevel("pipeline.e2e_p99_ns", e2e_p99);

    StatGroup &stats = run.stats();
    // The timed batches' attribution diff, as a pipeline.attribution
    // child of the bench stats (mirrors the system-side section).
    StatGroup &attr = stats.child("pipeline.attribution");
    for (std::size_t s = 0; s < n_stages; ++s) {
        const std::string stage = "stage" + std::to_string(s);
        attr.get(stage + ".busy_ns").add(timed[s].busyNs);
        attr.get(stage + ".stall_upstream_ns").add(timed[s].stallUpNs);
        attr.get(stage + ".stall_downstream_ns")
            .add(timed[s].stallDownNs);
        attr.get(stage + ".idle_ns").add(timed[s].idleNs);
        attr.get(stage + ".wall_ns").add(timed[s].wallNs);
    }
    stats.get("pipeline.batch").add(batch);
    stats.get("pipeline.stages").add(static_cast<double>(n_stages));
    stats.get("pipeline.sequential_ns").add(seq_batch_ns);
    stats.get("pipeline.pipelined_ns").add(pipe_batch_ns);
    stats.get("pipeline.speedup").add(speedup);
    stats.get("pipeline.sequential_images_per_s")
        .add(batch / (seq_batch_ns / 1e9));
    stats.get("pipeline.pipelined_images_per_s")
        .add(batch / (pipe_batch_ns / 1e9));
    stats.get("pipeline.analytic_total_ns").add(total_ns);
    stats.get("pipeline.analytic_bottleneck_ns").add(bottleneck_ns);
    stats.get("pipeline.measured_bottleneck_ns")
        .add(measured_bottleneck_ns);
    stats.get("pipeline.host_sequential_ns").add(seq_ns);
    stats.get("pipeline.host_pipelined_ns").add(pipe_ns);
    stats.get("pipeline.host_speedup").add(host_speedup);

    if (speedup < 2.0) {
        std::printf("FAIL: modeled pipeline speedup %.2fx below the 2x "
                    "target\n",
                    speedup);
        run.finish();
        return 1;
    }
    run.finish();
    return 0;
}
