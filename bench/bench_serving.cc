/**
 * @file
 * Sustained-QPS serving bench: the ServingEngine over the 4-bank MLP
 * pipeline config, driven by the open-loop Poisson load generator
 * across a sweep of offered loads.
 *
 * The sweep first measures the system's closed-loop batch throughput
 * (base QPS: the median of nine timed pipelined runBatch calls), then
 * offers multiples of it (0.25x .. 4x), each for the same fixed
 * duration.  Below the knee the engine achieves what is offered with
 * small batches and low latency; past it achieved QPS saturates at
 * the service capacity, batches grow to the max batch, the bounded
 * queue fills and admission control sheds the overflow -- the
 * open-loop generator does not slow down, so the curve shows the
 * saturation plateau instead of hiding it.
 *
 * Steady state: achieved QPS counts only the completions between the
 * end of a point's ramp (its first fifth) and the end of its offered
 * load, so neither the start-up nor the drain of the queue after the
 * generator stops enters the rate.  p95/p99 are printed and recorded
 * only for points with at least 1000 completed requests; fewer samples
 * cannot tell those percentiles apart.
 *
 * Headline numbers land as top-level fields of BENCH_serving.json:
 * serving.peak_qps (best achieved rate across the sweep),
 * serving.p99_ms_at_peak, serving.base_qps,
 * serving.shed_rate_at_max_load (shed fraction at the highest offered
 * load) and the batched-vs-single comparison (the same offered load
 * served with a max batch of 16 versus one request per batch).  The
 * per-point curve is recorded under serving.sweep.pointN.* in the
 * stats section, and the sweep runs under an enabled MetricsRegistry
 * so the live queue-depth gauge is summarized in the "metrics"
 * section.
 *
 * Flags: --warmup N (untimed warm-up batches, default 1), --seconds S
 * (offered-load duration of each sweep point, default 1), plus the
 * BenchRun standards (--stats-json, --trace).
 *
 * Host caveat: batched-vs-single superiority needs no spare cores (it
 * amortizes per-dispatch engine setup), but it is still a host-domain
 * measurement, so a shortfall WARNs here and CI only hard-gates it on
 * hosts with >= 4 cores (the bench_pipeline host_speedup precedent).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "common/thread_pool.hh"
#include "nn/topology.hh"
#include "prime/prime_system.hh"
#include "serve/load_generator.hh"
#include "serve/serving_engine.hh"

using namespace prime;

namespace {

/** Requests a point must complete before its p95/p99 are reported. */
constexpr std::uint64_t kMinTailSamples = 1000;
/** Share of a point's duration left out of its achieved rate. */
constexpr double kRampFraction = 0.2;
/** Queue capacity of every point: sixteen full batches. */
constexpr std::size_t kQueueCapacity = 256;

/** One FF mat per bank: the 4-layer MLP maps across four banks. */
nvmodel::TechParams
servingTech()
{
    nvmodel::TechParams tech = nvmodel::defaultTechParams();
    tech.geometry.ffSubarraysPerBank = 1;
    tech.geometry.matsPerSubarray = 1;
    return tech;
}

/** What one offered-load point measured. */
struct SweepPoint
{
    double offeredQps = 0.0;
    double achievedQps = 0.0;
    double shedRate = 0.0;
    std::uint64_t completed = 0;
    double p50Ms = 0.0;
    /** Valid only when hasTail(). */
    double p95Ms = 0.0;
    double p99Ms = 0.0;
    double meanBatch = 0.0;

    bool hasTail() const { return completed >= kMinTailSamples; }
};

/**
 * Offer @p offered_qps for @p seconds through a fresh engine and
 * measure what it sustained.  Achieved QPS is the completion rate
 * between the end of the ramp and the end of the offered load; the
 * latency percentiles cover every request the point completed.
 */
SweepPoint
servePoint(core::PrimeSystem &prime, std::span<const nn::Tensor> inputs,
           double offered_qps, double seconds, int max_batch,
           telemetry::MetricsRegistry *registry)
{
    serve::ServingOptions sopt;
    sopt.queueCapacity = kQueueCapacity;
    sopt.maxBatch = max_batch;
    serve::ServingEngine engine(prime, sopt);
    if (registry)
        registry->watch(engine.stats());

    serve::LoadGenOptions lopt;
    lopt.targetQps = offered_qps;
    lopt.requests = static_cast<std::size_t>(
        std::max(1.0, std::ceil(offered_qps * seconds)));

    using clock = std::chrono::steady_clock;
    const std::chrono::duration<double> ramp(kRampFraction * seconds);
    const std::chrono::duration<double> span(seconds);
    engine.start();
    const clock::time_point t0 = clock::now();
    std::thread generator([&] {
        (void)serve::runOpenLoopLoad(engine, inputs, lopt);
    });
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<clock::duration>(ramp));
    const std::uint64_t ramp_done = engine.completed();
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<clock::duration>(span));
    const std::uint64_t span_done = engine.completed();
    generator.join();
    engine.stop();

    SweepPoint point;
    point.offeredQps = offered_qps;
    point.achievedQps = static_cast<double>(span_done - ramp_done) /
                        (span - ramp).count();
    const double offered_n = static_cast<double>(engine.accepted() +
                                                 engine.rejected());
    point.shedRate = offered_n > 0.0
                         ? static_cast<double>(engine.rejected()) /
                               offered_n
                         : 0.0;
    point.completed = engine.completed();
    const telemetry::Histogram &e2e =
        engine.stats().histogram("serving.e2e_latency_ns");
    point.p50Ms = e2e.quantile(0.50) / 1e6;
    point.p95Ms = e2e.quantile(0.95) / 1e6;
    point.p99Ms = e2e.quantile(0.99) / 1e6;
    point.meanBatch =
        engine.stats().histogram("serving.batch_size").mean();
    if (registry)
        registry->unwatch(engine.stats());
    return point;
}

/** A tail percentile column: the value, or "-" without the samples. */
std::string
tailCell(const SweepPoint &p, double ms)
{
    char cell[32];
    if (p.hasTail())
        std::snprintf(cell, sizeof cell, "%9.3f", ms);
    else
        std::snprintf(cell, sizeof cell, "%9s", "-");
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchRun run("serving", argc, argv);
    bench::header("dynamic-batching serving throughput");

    int warmup = 1;
    double seconds = 1.0;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--warmup") && i + 1 < argc)
            warmup = std::atoi(argv[++i]);
        else if (!std::strcmp(argv[i], "--seconds") && i + 1 < argc)
            seconds = std::max(0.01, std::atof(argv[++i]));
    }

    nn::Topology topo = nn::parseTopology(
        "mlp-pipeline", "64-256-256-256-256", 1, 8, 8);
    Rng rng(7);
    nn::Network net = nn::buildNetwork(topo, rng);

    core::PrimeSystem prime(servingTech());
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

    for (int i = 0; i < warmup; ++i)
        (void)prime.runBatch(std::span<const nn::Tensor>(inputs));

    // Closed-loop capacity estimate: the median of kBaseRepeats timed
    // pipelined batches (one batch's time spreads several-fold on a
    // shared host).  The sweep offers multiples of this base rate.
    constexpr int kBaseRepeats = 9;
    std::vector<double> batch_s;
    for (int i = 0; i < kBaseRepeats; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        (void)prime.runBatch(std::span<const nn::Tensor>(inputs));
        batch_s.push_back(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
    }
    std::nth_element(batch_s.begin(), batch_s.begin() + kBaseRepeats / 2,
                     batch_s.end());
    const double base_s = batch_s[kBaseRepeats / 2];
    const double base_qps = batch / base_s;
    std::printf("closed-loop base: %.1f images/s (median batch of %d "
                "in %.2f ms over %d)\n\n",
                base_qps, batch, base_s * 1e3, kBaseRepeats);

    // The whole sweep runs observed: each point's engine watched while
    // it lives (same names, so each series spans the sweep), the
    // system's stats and memory occupancy throughout.
    telemetry::MetricsRegistry registry;
    registry.enable();
    registry.watch(prime.stats());
    registry.watch(prime.mainMemory().occupancy());
    registry.startSampler(1);

    const double multipliers[] = {0.25, 0.5, 1.0, 2.0, 4.0};
    std::vector<SweepPoint> points;
    std::printf("%.2f s per point; achieved over the last %.0f%%, "
                "p95/p99 from %llu completions\n",
                seconds, 100.0 * (1.0 - kRampFraction),
                static_cast<unsigned long long>(kMinTailSamples));
    std::printf("%10s %10s %8s %9s %9s %9s %9s %7s\n", "offered/s",
                "achieved/s", "shed", "completed", "p50 ms", "p95 ms",
                "p99 ms", "batch");
    for (double m : multipliers) {
        SweepPoint p = servePoint(prime, inputs, m * base_qps, seconds,
                                  16, &registry);
        std::printf("%10.1f %10.1f %7.1f%% %9llu %9.3f %s %s %7.2f\n",
                    p.offeredQps, p.achievedQps, 100.0 * p.shedRate,
                    static_cast<unsigned long long>(p.completed),
                    p.p50Ms, tailCell(p, p.p95Ms).c_str(),
                    tailCell(p, p.p99Ms).c_str(), p.meanBatch);
        points.push_back(p);
    }

    // Batched vs one-request-at-a-time at heavy load: same offered
    // rate, --max-batch 16 against a degenerate max batch of 1.
    const double pressure_qps = 2.0 * base_qps;
    const SweepPoint batched = servePoint(prime, inputs, pressure_qps,
                                          seconds, 16, &registry);
    const SweepPoint single = servePoint(prime, inputs, pressure_qps,
                                         seconds, 1, &registry);
    const double batched_speedup =
        single.achievedQps > 0.0
            ? batched.achievedQps / single.achievedQps
            : 0.0;
    std::printf("\nbatched vs single dispatch at %.0f offered/s: "
                "%.1f vs %.1f achieved/s (%.2fx)\n",
                pressure_qps, batched.achievedQps, single.achievedQps,
                batched_speedup);
    if (batched_speedup <= 1.0)
        std::printf("WARN: dynamic batching below 1.0x over single "
                    "dispatch (host-domain measurement; needs cores)\n");

    registry.stopSampler();
    run.metrics(registry);
    ThreadPool::setGlobalThreadCount(0);

    // Peak = best achieved rate anywhere on the curve.
    std::size_t peak = 0;
    for (std::size_t i = 1; i < points.size(); ++i)
        if (points[i].achievedQps > points[peak].achievedQps)
            peak = i;
    std::printf("peak sustained: %.1f req/s at %.1f offered/s, p99 "
                "%s ms\n",
                points[peak].achievedQps, points[peak].offeredQps,
                tailCell(points[peak], points[peak].p99Ms).c_str());

    run.topLevel("serving.peak_qps", points[peak].achievedQps);
    if (points[peak].hasTail())
        run.topLevel("serving.p99_ms_at_peak", points[peak].p99Ms);
    run.topLevel("serving.base_qps", base_qps);
    run.topLevel("serving.shed_rate_at_max_load", points.back().shedRate);
    run.topLevel("serving.sweep_points",
                 static_cast<double>(points.size()));
    run.topLevel("serving.batched_qps", batched.achievedQps);
    run.topLevel("serving.single_qps", single.achievedQps);
    run.topLevel("serving.batched_vs_single_speedup", batched_speedup);

    StatGroup &stats = run.stats();
    stats.get("serving.base_qps").add(base_qps);
    stats.get("serving.seconds_per_point").add(seconds);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPoint &p = points[i];
        const std::string prefix =
            "serving.sweep.point" + std::to_string(i);
        stats.get(prefix + ".offered_qps").add(p.offeredQps);
        stats.get(prefix + ".achieved_qps").add(p.achievedQps);
        stats.get(prefix + ".shed_rate").add(p.shedRate);
        stats.get(prefix + ".completed")
            .add(static_cast<double>(p.completed));
        stats.get(prefix + ".p50_ms").add(p.p50Ms);
        if (p.hasTail()) {
            stats.get(prefix + ".p95_ms").add(p.p95Ms);
            stats.get(prefix + ".p99_ms").add(p.p99Ms);
        }
        stats.get(prefix + ".mean_batch").add(p.meanBatch);
    }
    stats.get("serving.batched_vs_single_speedup").add(batched_speedup);

    if (points[peak].achievedQps <= 0.0) {
        std::printf("FAIL: serving sustained zero throughput\n");
        run.finish();
        return 1;
    }
    run.finish();
    return 0;
}
