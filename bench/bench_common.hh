/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 */

#ifndef PRIME_BENCH_BENCH_COMMON_HH
#define PRIME_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/telemetry/json.hh"
#include "common/telemetry/metrics.hh"
#include "common/telemetry/trace_session.hh"
#include "sim/evaluator.hh"

namespace prime::bench {

/**
 * Per-bench observability: owns a stats group and a trace session, and
 * writes both when the bench finishes.
 *
 *   --stats-json <file>   stats destination (default BENCH_<name>.json)
 *   --trace <file>        also record a Chrome trace of the run
 *
 * The stats document is
 * {"version":N,"bench":"<name>",<top-level fields...>,
 *  ["metrics":{...},]"stats":{...}},
 * so every reproduction run leaves a machine-readable data point next
 * to the human-readable tables.  Headline metrics a CI gate or a
 * dashboard should not have to dig out of the stats tree (speedups,
 * wall-clock totals) are promoted to top-level numeric fields via
 * topLevel().  A bench that sampled a MetricsRegistry during the run
 * attaches the per-series summaries with metrics(): each series emits
 * {"samples":N,"min":..,"max":..,"mean":..,"last":..} under its name,
 * so any BENCH_*.json can embed time-series evidence without
 * hand-rolling JSON.  A series whose samples are all 0 (an idle bank's
 * counters) is left out of the summary.
 */
class BenchRun
{
  public:
    BenchRun(std::string name, int argc, char **argv)
        : name_(std::move(name)), statsPath_("BENCH_" + name_ + ".json")
    {
        for (int i = 1; i < argc; ++i) {
            if (!std::strcmp(argv[i], "--stats-json") && i + 1 < argc)
                statsPath_ = argv[++i];
            else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc)
                tracePath_ = argv[++i];
        }
        if (!tracePath_.empty()) {
            trace_.enable();
            telemetry::setGlobalTrace(&trace_);
        }
    }

    ~BenchRun()
    {
        if (!finished_)
            finish();
    }

    BenchRun(const BenchRun &) = delete;
    BenchRun &operator=(const BenchRun &) = delete;

    StatGroup &stats() { return stats_; }

    /**
     * Promote a headline metric to a top-level field of the JSON
     * document: {"<name>":<value>} next to "bench", before "stats".
     * Re-setting a name overwrites its value; emission keeps the
     * first-set order.
     */
    void
    topLevel(const std::string &name, double value)
    {
        for (auto &[existing, v] : topLevel_) {
            if (existing == name) {
                v = value;
                return;
            }
        }
        topLevel_.emplace_back(name, value);
    }

    /**
     * Attach the sampled time-series summaries of @p registry to the
     * document's "metrics" section (replacing any previous set),
     * omitting series that only ever sampled 0.  Call after the sampler
     * stopped; summarize() snapshots at call time.
     */
    void
    metrics(const telemetry::MetricsRegistry &registry)
    {
        metricsSummaries_ = registry.summarize();
        std::erase_if(metricsSummaries_, [](const auto &s) {
            return s.min == 0.0 && s.max == 0.0;
        });
    }

    /** Write the stats document (and trace, if enabled). */
    void finish()
    {
        finished_ = true;
        if (!tracePath_.empty()) {
            telemetry::setGlobalTrace(nullptr);
            trace_.disable();
            std::ofstream os(tracePath_);
            if (os)
                trace_.writeChromeTrace(os);
        }
        if (!statsPath_.empty()) {
            std::ofstream os(statsPath_);
            if (!os)
                return;
            os << "{\"version\":" << StatGroup::kJsonVersion
               << ",\"bench\":\"" << name_ << "\"";
            for (const auto &[name, value] : topLevel_)
                os << ",\"" << name << "\":" << value;
            if (!metricsSummaries_.empty()) {
                os << ",\"metrics\":{";
                bool first = true;
                for (const auto &s : metricsSummaries_) {
                    if (!first)
                        os << ",";
                    first = false;
                    telemetry::jsonString(os, s.name);
                    os << ":{\"samples\":" << s.samples << ",\"min\":";
                    telemetry::jsonNumber(os, s.min);
                    os << ",\"max\":";
                    telemetry::jsonNumber(os, s.max);
                    os << ",\"mean\":";
                    telemetry::jsonNumber(os, s.mean);
                    os << ",\"last\":";
                    telemetry::jsonNumber(os, s.last);
                    os << "}";
                }
                os << "}";
            }
            os << ",\"stats\":";
            stats_.dumpJsonObject(os);
            os << "}\n";
        }
    }

  private:
    std::string name_;
    std::string statsPath_;
    std::string tracePath_;
    std::vector<std::pair<std::string, double>> topLevel_;
    std::vector<telemetry::MetricsRegistry::SeriesSummary>
        metricsSummaries_;
    StatGroup stats_;
    telemetry::TraceSession trace_;
    bool finished_ = false;
};

/** Print the standard header naming the experiment. */
inline void
header(const std::string &what)
{
    std::cout << "\n=== PRIME reproduction: " << what << " ===\n"
              << "paper: PRIME (ISCA'16), DOI 10.1109/ISCA.2016.13\n"
              << "config: 16GB ReRAM, 8 chips x 8 banks, 2 FF + 1 Buffer"
                 " subarrays/bank, 256x256 mats,\n"
              << "        3-bit inputs + 4-bit cells + 6-bit SA composed"
                 " to 6b/8b/6b (Section III-D)\n\n";
}

/** Evaluate the whole MlBench suite once. */
inline std::vector<sim::BenchmarkEvaluation>
evaluateSuite(bool replication = true)
{
    sim::EvaluatorOptions opt;
    opt.mapper.enableReplication = replication;
    sim::Evaluator ev(nvmodel::defaultTechParams(), opt);
    return ev.evaluateMlBench();
}

} // namespace prime::bench

#endif // PRIME_BENCH_BENCH_COMMON_HH
