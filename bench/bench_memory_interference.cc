/**
 * @file
 * CPU co-run memory-interference bench (the Section VI co-run story
 * behind Fig 8's speedup claims): PRIME's Fetch/Commit and morph
 * traffic and a synthetic CPU stream arbitrate at the same per-channel
 * FR-FCFS controllers, and this bench sweeps the CPU's offered load to
 * measure how both sides degrade.
 *
 * Method: each sweep point builds a fresh multi-channel PrimeSystem
 * (monotonic channel cursors make reuse conflate points), runs one
 * warm-up batch, resets the memory stats, then co-runs a pipelined
 * batch against a seeded CPU traffic stream attached to the memory:
 * the batch's timing pass issues, before each PRIME transfer, every
 * CPU request arriving within paceLeadNs of PRIME's progress, so the
 * two streams interleave in modeled time and every run prints the
 * same modeled numbers.  The CPU's offered load is sized against the
 * *solo* batch's modeled channel window (standard offered-load
 * methodology: intensity 1.0 offers the aggregate peak bandwidth for
 * the window the PRIME batch needed alone).
 * Per-point metrics: the PRIME-side memory makespan (the modeled
 * window from the post-warm-up reset to the last PRIME completion,
 * mem.prime.last_ready_ns -- the Fig 8-style throughput signal), mean/
 * p99 PRIME service time (mem.prime.service_ns), CPU-side p99 both
 * co-run and solo (a fresh memory, same request count and seed), and
 * the per-channel row-buffer hit rates showing the CPU's row
 * pollution.
 *
 * Headline JSON fields (CI gates read these):
 *   interference.ff_slowdown_at_max_cpu -- PRIME memory-makespan
 *       ratio, max-intensity co-run vs solo
 *   interference.cpu_p99_degradation -- worst CPU p99 ratio, co-run
 *       vs solo, across the sweep (at saturation the CPU's own queue
 *       dominates both sides, so the worst case sits mid-sweep)
 *   interference.sweep_points -- CPU-intensity points measured (>= 4)
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "memory/cpu_traffic.hh"
#include "nn/topology.hh"
#include "prime/prime_system.hh"

using namespace prime;

namespace {

/**
 * Four channels, four banks each, one FF mat per bank: the 4-layer MLP
 * maps across banks while the memory side exercises real multi-channel
 * routing (consecutive 64B lines rotate across all four controllers).
 */
nvmodel::TechParams
interferenceTech()
{
    nvmodel::TechParams tech = nvmodel::defaultTechParams();
    tech.geometry.channels = 4;
    tech.geometry.chipsPerRank = 2;
    tech.geometry.banksPerChip = 2;
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

/** One sweep point's measurements. */
struct Point
{
    double intensity = 0.0;
    std::uint64_t cpuRequests = 0;
    std::uint64_t cpuDelivered = 0;
    double ffWindowNs = 0.0;
    double ffMeanNs = 0.0;
    double ffP99Ns = 0.0;
    double ffSlowdown = 1.0;
    double cpuCorunP99Ns = 0.0;
    double cpuSoloP99Ns = 0.0;
    double cpuP99Degradation = 1.0;
    double rowHitRate = 0.0;
    double hostMs = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchRun run("memory_interference", argc, argv);
    bench::header("CPU co-run memory interference");

    const nvmodel::TechParams tech = interferenceTech();
    nn::Topology topo = nn::parseTopology(
        "mlp-interference", "64-256-256-256-256", 1, 8, 8);
    Rng rng(7);
    nn::Network net = nn::buildNetwork(topo, rng);

    const int batch = 24;
    Rng input_rng(11);
    std::vector<nn::Tensor> inputs;
    for (int i = 0; i < batch; ++i) {
        nn::Tensor t({1, 8, 8});
        for (std::size_t k = 0; k < t.size(); ++k)
            t[k] = input_rng.uniform(0.0, 1.0);
        inputs.push_back(std::move(t));
    }

    ThreadPool::setGlobalThreadCount(8);

    // Intensity 0 must come first: it calibrates the solo modeled
    // window every later point's offered load is sized against.
    const std::vector<double> intensities = {0.0, 0.25, 0.5, 1.0, 2.0};
    std::vector<Point> points;
    double solo_window_ns = 0.0;

    for (double intensity : intensities) {
        core::PrimeSystem prime(tech);
        prime.mapTopology(topo);
        prime.programWeight(net);
        prime.configDatapath();
        (void)prime.runBatch(std::span<const nn::Tensor>(inputs));
        memory::MainMemory &mem = prime.mainMemory();
        mem.resetStats();
        const Ns window_start = mem.channelFree();

        memory::CpuTrafficOptions copt;
        copt.pattern = memory::CpuPattern::Random;
        copt.intensity = intensity;
        copt.writeFraction = 0.3;
        copt.seed = 17;
        // Interleave in modeled time: without pacing the CPU stream
        // would deliver its whole modeled window before PRIME issues
        // anything.
        copt.paceLeadNs = 512.0;

        Point pt;
        pt.intensity = intensity;
        if (intensity > 0.0) {
            const double peak = tech.timing.channelBandwidth() *
                                static_cast<double>(mem.channels());
            pt.cpuRequests = static_cast<std::uint64_t>(std::ceil(
                intensity * peak * solo_window_ns / copt.bytes));
        }

        memory::CpuTrafficGenerator gen(mem, copt, pt.cpuRequests);
        mem.setCoRun(&gen);
        const auto t0 = std::chrono::steady_clock::now();
        (void)prime.runBatch(std::span<const nn::Tensor>(inputs));
        pt.hostMs = elapsedNs(t0) / 1e6;
        // Requests still beyond PRIME's final progress are not issued.
        mem.setCoRun(nullptr);
        const memory::CpuRunStats &corun = gen.stats();
        pt.cpuDelivered = corun.requests;

        StatGroup &stats = mem.stats();
        const telemetry::Histogram &ff =
            stats.histogram("mem.prime.service_ns");
        pt.ffMeanNs = ff.mean();
        pt.ffP99Ns = ff.quantile(0.99);
        pt.rowHitRate = mem.rowHitRate();
        // PRIME's memory makespan for this batch: last PRIME
        // completion relative to the post-reset horizon.
        double prime_last_ready_ns = 0.0;
        PRIME_FATAL_IF(!stats.evalFormula("mem.prime.last_ready_ns",
                                          prime_last_ready_ns),
                       "mem.prime.last_ready_ns is not published");
        pt.ffWindowNs = prime_last_ready_ns - window_start;
        if (intensity == 0.0)
            solo_window_ns = pt.ffWindowNs;
        pt.ffSlowdown = solo_window_ns > 0.0
                            ? pt.ffWindowNs / solo_window_ns
                            : 1.0;

        if (pt.cpuDelivered > 0) {
            pt.cpuCorunP99Ns = corun.serviceNs.quantile(0.99);
            // CPU solo baseline: the same stream (count, seed,
            // pattern) against a fresh, PRIME-free memory, all of it.
            memory::MainMemory solo_mem(tech);
            memory::CpuTrafficGenerator solo_gen(solo_mem, copt,
                                                 pt.cpuDelivered);
            solo_gen.issueUntil(std::numeric_limits<Ns>::infinity());
            pt.cpuSoloP99Ns = solo_gen.stats().serviceNs.quantile(0.99);
            pt.cpuP99Degradation = pt.cpuSoloP99Ns > 0.0
                                       ? pt.cpuCorunP99Ns / pt.cpuSoloP99Ns
                                       : 1.0;
        }

        // Per-point stats tree, keyed by intensity in percent.
        const std::string p =
            "interference.i" +
            std::to_string(static_cast<int>(intensity * 100)) + ".";
        StatGroup &out = run.stats();
        out.get(p + "cpu_requests")
            .add(static_cast<double>(pt.cpuRequests));
        out.get(p + "cpu_requests_delivered")
            .add(static_cast<double>(pt.cpuDelivered));
        out.get(p + "ff_window_ns").add(pt.ffWindowNs);
        out.get(p + "ff_service_mean_ns").add(pt.ffMeanNs);
        out.get(p + "ff_service_p99_ns").add(pt.ffP99Ns);
        out.get(p + "ff_slowdown").add(pt.ffSlowdown);
        out.get(p + "cpu_p99_corun_ns").add(pt.cpuCorunP99Ns);
        out.get(p + "cpu_p99_solo_ns").add(pt.cpuSoloP99Ns);
        out.get(p + "cpu_p99_degradation").add(pt.cpuP99Degradation);
        out.get(p + "row_hit_rate").add(pt.rowHitRate);
        out.get(p + "host_ms").add(pt.hostMs);
        for (int ch = 0; ch < mem.channels(); ++ch)
            out.get(p + "ch" + std::to_string(ch) + ".row_hit_rate")
                .add(mem.controller(ch).rowHitRate());

        points.push_back(pt);
    }
    ThreadPool::setGlobalThreadCount(0);

    std::printf("CPU intensity sweep (offered load vs %.0f ns solo "
                "window, %d-image pipelined batches):\n",
                solo_window_ns, batch);
    std::printf("  %-9s %10s %14s %10s %14s %14s %8s\n", "intensity",
                "cpu reqs", "ff window", "ff slow", "cpu p99 (ns)",
                "cpu solo p99", "row hit");
    for (const Point &pt : points)
        std::printf("  %8.2fx %10llu %11.1f us %9.2fx %14.1f %14.1f"
                    " %7.1f%%\n",
                    pt.intensity,
                    static_cast<unsigned long long>(pt.cpuDelivered),
                    pt.ffWindowNs / 1e3, pt.ffSlowdown,
                    pt.cpuCorunP99Ns, pt.cpuSoloP99Ns,
                    100.0 * pt.rowHitRate);

    const Point &max_pt = points.back();
    double worst_cpu_degradation = 1.0;
    for (const Point &pt : points)
        worst_cpu_degradation =
            std::max(worst_cpu_degradation, pt.cpuP99Degradation);
    std::printf("\nat max CPU intensity %.2fx: FF slowdown %.2fx; worst "
                "CPU p99 degradation %.2fx\n",
                max_pt.intensity, max_pt.ffSlowdown,
                worst_cpu_degradation);

    run.topLevel("interference.ff_slowdown_at_max_cpu",
                 max_pt.ffSlowdown);
    run.topLevel("interference.cpu_p99_degradation",
                 worst_cpu_degradation);
    run.topLevel("interference.sweep_points",
                 static_cast<double>(points.size()));
    run.topLevel("interference.max_cpu_intensity", max_pt.intensity);
    run.topLevel("interference.solo_window_ns", solo_window_ns);

    if (points.size() < 4) {
        std::printf("FAIL: only %zu sweep points (need >= 4)\n",
                    points.size());
        run.finish();
        return 1;
    }
    if (!(max_pt.ffSlowdown >= 1.0) ||
        !std::isfinite(max_pt.ffSlowdown) ||
        !std::isfinite(worst_cpu_degradation)) {
        std::printf("FAIL: degenerate interference metrics (ff %.3f, "
                    "cpu %.3f)\n",
                    max_pt.ffSlowdown, worst_cpu_degradation);
        run.finish();
        return 1;
    }
    run.finish();
    return 0;
}
