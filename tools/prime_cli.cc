/**
 * @file
 * prime_cli: command-line front end to the PRIME model.
 *
 *   prime_cli map <spec> [CxHxW]    compile-time mapping plan for a
 *                                   topology string (e.g. 784-500-10,
 *                                   conv5x5-pool-720-70-10)
 *   prime_cli bench <name>          evaluate one MlBench benchmark on
 *                                   every platform (CNN-1, MLP-S, ...)
 *   prime_cli suite                 the full Figure 8/10 matrix
 *   prime_cli run <name>            functional end-to-end inference:
 *                                   train on the synthetic digit task,
 *                                   execute on the full PrimeSystem
 *   prime_cli serve <name>          long-running serving engine fed by
 *                                   a synthetic open-loop Poisson load
 *                                   generator (one scheduler thread
 *                                   runs whatever is queued as the next
 *                                   batch; admission control, latency
 *                                   stats)
 *   prime_cli area                  the Figure 12 area report
 *   prime_cli help
 *
 * All commands accept `--set key=value` TechParams overrides (see
 * nvmodel::applyConfig for the key list), e.g.
 *   prime_cli bench MLP-S --set geometry.ff_subarrays=4
 * Every option takes one value.  An unknown option, or an option
 * missing its value, prints the usage text and exits 2.
 *
 * Observability options (every command):
 *   --stats-json <file>   write the versioned JSON stats document
 *   --trace <file>        record a Chrome trace_event JSON file of the
 *                         run (open in Perfetto / chrome://tracing)
 * `run` options: --images N (test set), --train N, --epochs N,
 *   --batch N (run inference through runBatch in batches of N, as
 *   the inter-bank pipeline's wavefront steps; without --batch every
 *   image goes through run(), one at a time),
 *   --warmup N (untimed warm-up inference passes before the measured
 *   loop so cold plane-cache rebuilds don't skew host wall-clock stats;
 *   default 1, 0 disables), --metrics-out <file> (sampled JSONL
 *   time-series: one snapshot per line, fed to
 *   tools/metrics_report.py), --metrics-prom <file> (Prometheus text
 *   exposition of the final snapshot), --metrics-interval-ms N
 *   (sampler period, default 10).
 * `serve` options (plus the run training/metrics/warm-up ones):
 *   --qps N (offered load), --requests N (total submissions),
 *   --max-batch N (largest batch the scheduler takes from the queue),
 *   --queue-cap N (requests the engine's one queue holds; overflow
 *   sheds load), --producers N (load-generator threads).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/telemetry/metrics.hh"
#include "common/telemetry/trace_session.hh"
#include "nn/dataset.hh"
#include "nn/network.hh"
#include "nvmodel/area_model.hh"
#include "prime/prime_system.hh"
#include "serve/load_generator.hh"
#include "serve/serving_engine.hh"
#include "sim/evaluator.hh"

using namespace prime;

namespace {

/** Options shared by every subcommand. */
struct CliOptions
{
    std::string statsJson;    ///< --stats-json <file>
    std::string traceFile;    ///< --trace <file>
    std::string metricsOut;   ///< --metrics-out <file> (JSONL series)
    std::string metricsProm;  ///< --metrics-prom <file> (exposition)
    int metricsIntervalMs = 10;  ///< --metrics-interval-ms
    int images = 50;          ///< run: test images
    int train = 400;          ///< run: training images
    int epochs = 1;           ///< run: training epochs
    int batch = 0;            ///< run: batch size (0 = per-image run())
    int warmup = 1;           ///< untimed warm-up passes before timing

    // serve: load generation + dynamic batching
    double qps = 2000.0;      ///< serve: offered load (req/s)
    int requests = 2000;      ///< serve: total submissions
    int maxBatch = 16;        ///< serve: dynamic batch ceiling
    int queueCap = 1024;      ///< serve: queue capacity
    int producers = 1;        ///< serve: load-generator threads

    bool metricsRequested() const
    {
        return !metricsOut.empty() || !metricsProm.empty();
    }
};

/** Parsed --set overrides applied to the default TechParams. */
nvmodel::TechParams
techFromArgs(int argc, char **argv)
{
    Config config;
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--set") == 0 && i + 1 < argc)
            config.set(argv[++i]);
    }
    nvmodel::TechParams tech = nvmodel::defaultTechParams();
    applyConfig(config, tech);
    return tech;
}

/** Where an option's value lands (--set: applied by techFromArgs). */
using OptionField =
    std::variant<std::monostate, std::string CliOptions::*,
                 int CliOptions::*, double CliOptions::*>;

/** Every option of every subcommand; each takes exactly one value. */
const std::map<std::string_view, OptionField> &
optionFields()
{
    static const std::map<std::string_view, OptionField> fields = {
        {"--set", std::monostate{}},
        {"--stats-json", &CliOptions::statsJson},
        {"--trace", &CliOptions::traceFile},
        {"--metrics-out", &CliOptions::metricsOut},
        {"--metrics-prom", &CliOptions::metricsProm},
        {"--metrics-interval-ms", &CliOptions::metricsIntervalMs},
        {"--images", &CliOptions::images},
        {"--train", &CliOptions::train},
        {"--epochs", &CliOptions::epochs},
        {"--batch", &CliOptions::batch},
        {"--warmup", &CliOptions::warmup},
        {"--qps", &CliOptions::qps},
        {"--requests", &CliOptions::requests},
        {"--max-batch", &CliOptions::maxBatch},
        {"--queue-cap", &CliOptions::queueCap},
        {"--producers", &CliOptions::producers},
    };
    return fields;
}

/**
 * The options after the subcommand.  Positional arguments (<name>,
 * [CxHxW]) pass through; an unknown option or an option missing its
 * value is reported on stderr and yields nullopt, so a typo never
 * silently runs a different experiment.
 */
std::optional<CliOptions>
optionsFromArgs(int argc, char **argv)
{
    CliOptions opt;
    for (int i = 2; i < argc; ++i) {
        if (argv[i][0] != '-')
            continue;
        const auto it = optionFields().find(argv[i]);
        if (it == optionFields().end()) {
            std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
            return std::nullopt;
        }
        if (i + 1 >= argc) {
            std::fprintf(stderr, "option '%s' needs a value\n", argv[i]);
            return std::nullopt;
        }
        const char *value = argv[++i];
        std::visit(
            [&](auto field) {
                using Field = decltype(field);
                if constexpr (std::is_same_v<Field, std::string CliOptions::*>)
                    opt.*field = value;
                else if constexpr (std::is_same_v<Field, int CliOptions::*>)
                    opt.*field = std::atoi(value);
                else if constexpr (std::is_same_v<Field,
                                                  double CliOptions::*>)
                    opt.*field = std::atof(value);
            },
            it->second);
    }
    return opt;
}

/** Write one versioned stats document to opt.statsJson (if requested). */
void
writeStats(const CliOptions &opt,
           const std::vector<std::pair<std::string, const StatGroup *>>
               &groups)
{
    if (opt.statsJson.empty())
        return;
    std::ofstream os(opt.statsJson);
    if (!os) {
        PRIME_WARN("cannot open stats file ", opt.statsJson);
        return;
    }
    writeStatsDocument(os, groups);
    PRIME_INFORM("stats: wrote ", opt.statsJson);
}

/** Export the sampled time-series as requested by --metrics-*. */
void
writeMetrics(const CliOptions &opt,
             const telemetry::MetricsRegistry &metrics)
{
    if (!opt.metricsOut.empty()) {
        std::ofstream os(opt.metricsOut);
        if (os) {
            metrics.writeJsonl(os);
            PRIME_INFORM("metrics: wrote ", metrics.snapshotCount(),
                         " snapshot(s) to ", opt.metricsOut,
                         metrics.droppedSnapshots()
                             ? " (ring overflowed; oldest dropped)"
                             : "");
        } else {
            PRIME_WARN("cannot open metrics file ", opt.metricsOut);
        }
    }
    if (!opt.metricsProm.empty()) {
        std::ofstream os(opt.metricsProm);
        if (os) {
            metrics.writePrometheus(os);
            PRIME_INFORM("metrics: wrote exposition to ",
                         opt.metricsProm);
        } else {
            PRIME_WARN("cannot open metrics file ", opt.metricsProm);
        }
    }
}

int
usage()
{
    std::printf(
        "usage:\n"
        "  prime_cli map <spec> [CxHxW]   mapping plan for a topology\n"
        "  prime_cli bench <name>         one MlBench benchmark\n"
        "  prime_cli suite                full platform matrix\n"
        "  prime_cli run <name>           functional PrimeSystem "
        "inference\n"
        "  prime_cli serve <name>         dynamic-batching serving "
        "engine under synthetic load\n"
        "  prime_cli area                 Figure 12 area report\n"
        "options: --set key=value         override TechParams\n"
        "         --stats-json <file>     write JSON stats document\n"
        "         --trace <file>          write Chrome trace JSON\n"
        "run:     --images N --train N --epochs N\n"
        "         --batch N               runBatch in batches of N\n"
        "         --warmup N              untimed warm-up passes "
        "(default 1)\n"
        "         --metrics-out <file>    sampled JSONL time-series\n"
        "         --metrics-prom <file>   Prometheus text exposition\n"
        "         --metrics-interval-ms N sampler period (default "
        "10)\n"
        "serve:   --qps N --requests N --producers N   offered load\n"
        "         --max-batch N                        largest "
        "batch\n"
        "         --queue-cap N                        queue "
        "capacity (full = shed)\n");
    return 2;
}

void
printPlan(const nn::Topology &topo, const mapping::MappingPlan &plan)
{
    std::printf("%s: %lld synapses, %lld MACs/image\n",
                topo.name.c_str(), topo.totalSynapses(),
                topo.totalMacs());
    std::printf("scale %s | %lld mats | %d bank(s) | %d bank replicas | "
                "%d copies/bank | util %.1f%% -> %.1f%%\n\n",
                mapping::nnScaleName(plan.scale), plan.totalMats(),
                plan.banksUsed, plan.bankReplicas, plan.copiesPerBank,
                100.0 * plan.utilizationBefore,
                100.0 * plan.utilizationAfter);
    Table t({"layer", "mvm", "tiles", "in-mat", "replicas", "rounds"});
    for (const mapping::LayerMapping &m : plan.layers) {
        std::ostringstream mvm, tiles;
        mvm << m.info.rows << "x" << m.info.cols;
        tiles << m.rowTiles << "x" << m.colTiles;
        t.row()
            .cell(topo.layers[static_cast<std::size_t>(m.info.layerIndex)]
                      .describe())
            .cell(mvm.str())
            .cell(tiles.str())
            .cell(static_cast<long long>(m.inMatReplicas))
            .cell(static_cast<long long>(m.crossMatReplicas))
            .cell(m.serialRounds());
    }
    t.print(std::cout);
}

int
cmdMap(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    int c = 1, h = 28, w = 28;
    if (argc >= 4 && argv[3][0] != '-') {
        if (std::sscanf(argv[3], "%dx%dx%d", &c, &h, &w) != 3) {
            std::fprintf(stderr, "bad input shape '%s' (want CxHxW)\n",
                         argv[3]);
            return 2;
        }
    }
    nn::Topology topo = nn::parseTopology("cli", argv[2], c, h, w);
    mapping::Mapper mapper(techFromArgs(argc, argv).geometry,
                           mapping::MapperOptions{});
    printPlan(topo, mapper.map(topo));
    return 0;
}

void
printEvaluation(const sim::BenchmarkEvaluation &e)
{
    std::printf("%s:\n", e.topology.name.c_str());
    Table t({"platform", "time/image", "speedup", "energy/image",
             "energy saving"});
    for (const sim::PlatformResult *r :
         {&e.cpu, &e.npuCo, &e.npuPimX1, &e.npuPimX64, &e.prime}) {
        t.row()
            .cell(r->platform)
            .cell(formatCompact(r->timePerImage / 1e3, 3) + " us")
            .speedupCell(r->speedupOver(e.cpu))
            .cell(formatCompact(r->energy.total() / 1e3, 3) + " nJ")
            .speedupCell(r->energySavingOver(e.cpu));
    }
    t.print(std::cout);
}

int
cmdBench(int argc, char **argv, const CliOptions &opt)
{
    if (argc < 3)
        return usage();
    sim::Evaluator ev(techFromArgs(argc, argv));
    printEvaluation(ev.evaluate(nn::mlBenchByName(argv[2])));
    writeStats(opt, {{"evaluator", &ev.stats()}});
    return 0;
}

int
cmdSuite(int argc, char **argv, const CliOptions &opt)
{
    sim::Evaluator ev(techFromArgs(argc, argv));
    for (const auto &e : ev.evaluateMlBench()) {
        printEvaluation(e);
        std::printf("\n");
    }
    writeStats(opt, {{"evaluator", &ev.stats()}});
    return 0;
}

/** A trained, programmed, calibrated system plus its test set --
 *  everything `run` and `serve` share before their traffic loops. */
struct PreparedRun
{
    nn::Topology topo;
    std::vector<nn::Sample> test;
    std::unique_ptr<core::PrimeSystem> prime;
    std::size_t trained = 0;
    int epochs = 1;
};

PreparedRun
prepareSystem(int argc, char **argv, const CliOptions &opt)
{
    PreparedRun prep;
    prep.topo = nn::mlBenchByName(argv[2]);

    nn::SyntheticMnist gen;
    const std::size_t train_n =
        static_cast<std::size_t>(opt.train > 0 ? opt.train : 1);
    const std::size_t test_n =
        static_cast<std::size_t>(opt.images > 0 ? opt.images : 1);
    std::vector<nn::Sample> train = gen.generate(train_n);
    prep.test = gen.generate(test_n);

    Rng rng(7);
    nn::Network net = nn::buildNetwork(prep.topo, rng);
    nn::Trainer::Options topt;
    topt.epochs = opt.epochs > 0 ? opt.epochs : 1;
    topt.learningRate = 0.05;
    nn::Trainer::train(net, train, topt);
    prep.trained = train.size();
    prep.epochs = topt.epochs;

    prep.prime =
        std::make_unique<core::PrimeSystem>(techFromArgs(argc, argv));
    prep.prime->mapTopology(prep.topo);
    prep.prime->programWeight(net);
    prep.prime->configDatapath();
    const std::size_t calib_n = train.size() < 30 ? train.size() : 30;
    prep.prime->calibrate(std::vector<nn::Sample>(
        train.begin(), train.begin() + calib_n));
    return prep;
}

/**
 * Untimed warm-up passes before any measured section: the first
 * inference after programming runs on cold caches and pages, and
 * letting that land in host wall-clock stats skews every host_*
 * number.  Resets the system and memory stat groups afterwards so the
 * measured loop starts clean.
 */
void
warmUp(core::PrimeSystem &prime, std::span<const nn::Sample> test,
       const CliOptions &opt)
{
    if (opt.warmup <= 0 || test.empty())
        return;
    const std::size_t n =
        opt.batch > 0
            ? std::min<std::size_t>(
                  static_cast<std::size_t>(opt.batch), test.size())
            : 1;
    for (int pass = 0; pass < opt.warmup; ++pass) {
        if (opt.batch > 0) {
            std::vector<nn::Tensor> inputs;
            for (std::size_t k = 0; k < n; ++k)
                inputs.push_back(test[k].input);
            prime.runBatch(std::span<const nn::Tensor>(inputs));
        } else {
            prime.run(test[0].input);
        }
    }
    prime.stats().resetAll();
    prime.mainMemory().stats().resetAll();
}

/**
 * Functional end-to-end run (the digit-recognition example as a
 * command): train the named MlBench network on the synthetic digit
 * task, execute the test set on the full PrimeSystem (mats, controller,
 * Table I commands), then report accuracy and the telemetry the run
 * produced.  Small training defaults keep it fast; scale with
 * --train/--epochs/--images.
 */
int
cmdRun(int argc, char **argv, const CliOptions &opt)
{
    if (argc < 3)
        return usage();
    PreparedRun prep = prepareSystem(argc, argv, opt);
    core::PrimeSystem &prime = *prep.prime;
    std::vector<nn::Sample> &test = prep.test;

    warmUp(prime, test, opt);

    // Metrics cover the inference phase only: enable after programming,
    // calibration and warm-up so the time-series starts at the run
    // loop, then sample on a background thread until the loop ends.
    telemetry::MetricsRegistry metrics;
    if (opt.metricsRequested()) {
        metrics.enable();
        metrics.watch(prime.stats());
        metrics.watch(prime.mainMemory().occupancy());
        metrics.startSampler(
            opt.metricsIntervalMs > 0 ? opt.metricsIntervalMs : 10);
    }

    int correct = 0;
    if (opt.batch > 0) {
        const std::size_t batch = static_cast<std::size_t>(opt.batch);
        for (std::size_t i = 0; i < test.size(); i += batch) {
            const std::size_t n = std::min(batch, test.size() - i);
            std::vector<nn::Tensor> inputs;
            for (std::size_t k = 0; k < n; ++k)
                inputs.push_back(test[i + k].input);
            std::vector<nn::Tensor> outputs =
                prime.runBatch(std::span<const nn::Tensor>(inputs));
            for (std::size_t k = 0; k < n; ++k)
                if (static_cast<int>(outputs[k].argmax()) ==
                    test[i + k].label)
                    ++correct;
        }
    } else {
        for (const nn::Sample &s : test)
            if (static_cast<int>(prime.run(s.input).argmax()) == s.label)
                ++correct;
    }

    if (opt.metricsRequested()) {
        metrics.stopSampler();
        writeMetrics(opt, metrics);
    }
    prime.release();

    std::printf("%s on PrimeSystem: %d/%zu correct (%.1f%%), trained "
                "%zu images x %d epoch(s)\n",
                prep.topo.name.c_str(), correct, test.size(),
                100.0 * correct / test.size(), prep.trained,
                prep.epochs);
    if (opt.batch > 0)
        std::printf("batched front end: batch %d, %zu pipeline stage(s), "
                    "%s execution\n",
                    opt.batch, prime.stages().size(),
                    prime.stages().size() > 1 ? "pipelined"
                                              : "sequential");
    std::printf("\n");
    prime.stats().dump(std::cout);
    std::printf("\n");
    prime.mainMemory().stats().dump(std::cout);

    writeStats(opt, {{"system", &prime.stats()},
                     {"memory", &prime.mainMemory().stats()}});
    return 0;
}

/**
 * Long-running serving loop: the trained system behind the dynamic-
 * batching ServingEngine, fed by the synthetic open-loop Poisson load
 * generator.  Reports admission counters, achieved QPS and the
 * end-to-end latency percentiles; --stats-json adds a "serving" group
 * to the document and --metrics-out samples the live serving gauges.
 */
int
cmdServe(int argc, char **argv, const CliOptions &opt)
{
    if (argc < 3)
        return usage();
    PreparedRun prep = prepareSystem(argc, argv, opt);
    core::PrimeSystem &prime = *prep.prime;

    // Warm the caches through the same runBatch path serving
    // uses; --warmup 0 disables.
    CliOptions wopt = opt;
    wopt.batch = std::max(1, opt.maxBatch);
    warmUp(prime, prep.test, wopt);

    serve::ServingOptions sopt;
    sopt.queueCapacity =
        static_cast<std::size_t>(std::max(1, opt.queueCap));
    sopt.maxBatch = opt.maxBatch;
    serve::ServingEngine engine(prime, sopt);

    telemetry::MetricsRegistry metrics;
    if (opt.metricsRequested()) {
        metrics.enable();
        metrics.watch(prime.stats());
        metrics.watch(prime.mainMemory().occupancy());
        metrics.watch(engine.stats());
        metrics.startSampler(
            opt.metricsIntervalMs > 0 ? opt.metricsIntervalMs : 10);
    }

    std::vector<nn::Tensor> inputs;
    inputs.reserve(prep.test.size());
    for (const nn::Sample &s : prep.test)
        inputs.push_back(s.input);

    serve::LoadGenOptions lopt;
    lopt.targetQps = opt.qps > 0.0 ? opt.qps : 1.0;
    lopt.requests =
        static_cast<std::size_t>(std::max(1, opt.requests));
    lopt.producerThreads = std::max(1, opt.producers);

    const auto wall_start = std::chrono::steady_clock::now();
    engine.start();
    const serve::LoadGenResult load = serve::runOpenLoopLoad(
        engine, std::span<const nn::Tensor>(inputs), lopt);
    engine.stop();  // drain: every accepted request completes
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    if (opt.metricsRequested()) {
        metrics.stopSampler();
        writeMetrics(opt, metrics);
    }

    const telemetry::Histogram &e2e =
        engine.stats().histogram("serving.e2e_latency_ns");
    std::printf(
        "%s serving: offered %zu @ %.0f req/s -> accepted %llu, "
        "shed %llu, completed %llu in %llu batch(es)\n",
        prep.topo.name.c_str(), load.offered, lopt.targetQps,
        static_cast<unsigned long long>(engine.accepted()),
        static_cast<unsigned long long>(engine.rejected()),
        static_cast<unsigned long long>(engine.completed()),
        static_cast<unsigned long long>(engine.batches()));
    std::printf(
        "achieved %.1f req/s (incl. drain) | e2e latency p50 %.3f ms, "
        "p95 %.3f ms, p99 %.3f ms | max-batch %d, queue %zu\n\n",
        wall_s > 0.0 ? engine.completed() / wall_s : 0.0,
        e2e.quantile(0.50) / 1e6, e2e.quantile(0.95) / 1e6,
        e2e.quantile(0.99) / 1e6, engine.options().maxBatch,
        engine.options().queueCapacity);
    engine.stats().dump(std::cout);
    std::printf("\n");
    prime.stats().dump(std::cout);
    prime.release();

    writeStats(opt, {{"system", &prime.stats()},
                     {"memory", &prime.mainMemory().stats()},
                     {"serving", &engine.stats()}});
    return 0;
}

int
cmdArea(int argc, char **argv)
{
    nvmodel::AreaModel model(techFromArgs(argc, argv));
    auto r = model.report();
    Table t({"addition", "% of standard mat"});
    for (const auto &item : r.ffAdditions)
        t.row().cell(item.name).percentCell(item.fractionOfReference);
    t.print(std::cout, "FF-mat additions");
    std::printf("FF mat increase: %.1f%%, chip overhead: %.2f%%\n",
                100.0 * r.ffMatIncrease, 100.0 * r.chipOverhead);
    return 0;
}

int
dispatch(int argc, char **argv, const CliOptions &opt)
{
    if (std::strcmp(argv[1], "map") == 0)
        return cmdMap(argc, argv);
    if (std::strcmp(argv[1], "bench") == 0)
        return cmdBench(argc, argv, opt);
    if (std::strcmp(argv[1], "suite") == 0)
        return cmdSuite(argc, argv, opt);
    if (std::strcmp(argv[1], "run") == 0)
        return cmdRun(argc, argv, opt);
    if (std::strcmp(argv[1], "serve") == 0)
        return cmdServe(argc, argv, opt);
    if (std::strcmp(argv[1], "area") == 0)
        return cmdArea(argc, argv);
    return usage();
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::optional<CliOptions> parsed = optionsFromArgs(argc, argv);
    if (!parsed)
        return usage();
    const CliOptions &opt = *parsed;

    telemetry::TraceSession trace;
    if (!opt.traceFile.empty()) {
        trace.enable();
        telemetry::setGlobalTrace(&trace);
    }

    int rc = 1;
    try {
        rc = dispatch(argc, argv, opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
    }

    if (!opt.traceFile.empty()) {
        telemetry::setGlobalTrace(nullptr);
        trace.disable();
        std::ofstream os(opt.traceFile);
        if (os) {
            trace.writeChromeTrace(os);
            PRIME_INFORM("trace: wrote ", trace.eventCount(),
                         " events on ", trace.laneCount(),
                         " lane(s) to ", opt.traceFile);
        } else {
            PRIME_WARN("cannot open trace file ", opt.traceFile);
        }
    }
    return rc;
}
