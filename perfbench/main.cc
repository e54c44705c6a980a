/**
 * @file
 * perfbench: one run of one benchmark workload.
 *
 *   perfbench --workload <cnn_seq|mlp_pipe|analog_mc>
 *             --seed <n> --seconds <s> --trace <0|1> [--trace-out <prefix>]
 *
 * Prints human-readable lines, then one JSON object as the last line:
 * correct / attempted / failed / base / metrics, where metrics are the
 * end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
 * Exits 1 when an output check failed.  run.py builds this binary,
 * adds the span-derived per-layer metrics and prints the final line.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/thread_pool.hh"
#include "workloads.hh"

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed "
                 "<n> --seconds <s> --trace <0|1> [--trace-out <prefix>]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunConfig cfg;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (i + 1 >= argc)
            return usage("missing value");
        const char *value = argv[++i];
        if (!std::strcmp(arg, "--workload"))
            cfg.workload = value;
        else if (!std::strcmp(arg, "--seed"))
            cfg.seed = std::strtoull(value, nullptr, 10);
        else if (!std::strcmp(arg, "--seconds"))
            cfg.seconds = std::atof(value);
        else if (!std::strcmp(arg, "--trace"))
            cfg.trace = std::atoi(value) != 0;
        else if (!std::strcmp(arg, "--trace-out"))
            cfg.traceOut = value;
        else
            return usage("unknown option");
    }
    if (cfg.workload.empty() || !(cfg.seconds > 0.0))
        return usage("--workload and a positive --seconds are required");
    if (cfg.trace && cfg.traceOut.empty())
        return usage("--trace 1 needs --trace-out");

    // Fixed worker count, so runs on different hosts do the same work.
    prime::ThreadPool::setGlobalThreadCount(4);
    const perfbench::Report r = perfbench::runWorkload(cfg);

    std::printf("workload %s seed %llu%s\n", cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed),
                cfg.trace ? " (traced run: per-layer metrics)" : "");
    for (const std::string &line : r.lines)
        std::printf("  %s\n", line.c_str());
    for (const auto &[name, m] : r.metrics)
        std::printf("  %-28s %.6g %s\n", name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  failed/attempted: %llu/%llu %s\n",
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted), r.base.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"base\": \"%s\", \"traced_images\": %llu, \"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), r.base.c_str(),
                static_cast<unsigned long long>(r.tracedImages));
    bool first = true;
    for (const auto &[name, m] : r.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), m.value,
                    m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
    prime::ThreadPool::setGlobalThreadCount(0);
    return r.correct ? 0 : 1;
}
