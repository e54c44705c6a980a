/**
 * @file
 * The evaluation harness: runs every MlBench benchmark on every platform
 * (CPU-only, pNPU-co, pNPU-pim-x1, pNPU-pim-x64, PRIME) and derives the
 * quantities plotted in Figures 8-11.
 */

#ifndef PRIME_SIM_EVALUATOR_HH
#define PRIME_SIM_EVALUATOR_HH

#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "mapping/mapper.hh"
#include "sim/cpu_model.hh"
#include "sim/npu_model.hh"
#include "sim/prime_model.hh"

namespace prime::sim {

/** All platform results for one benchmark. */
struct BenchmarkEvaluation
{
    nn::Topology topology;
    mapping::MappingPlan plan;
    PlatformResult cpu;
    PlatformResult npuCo;
    PlatformResult npuPimX1;
    PlatformResult npuPimX64;
    PlatformResult prime;
    /** PRIME restricted to one bank, no replication (Figure 9 variant). */
    PlatformResult primeSingleBank;
};

/** Evaluator configuration. */
struct EvaluatorOptions
{
    CpuParams cpu;
    NpuParams npu;
    mapping::MapperOptions mapper;
    /** Skip VGG-D (used by quick tests). */
    bool includeVgg = true;
};

/** Runs the full evaluation matrix. */
class Evaluator
{
  public:
    Evaluator(const nvmodel::TechParams &tech,
              const EvaluatorOptions &options = {});

    /** Evaluate one topology on all platforms. */
    BenchmarkEvaluation evaluate(const nn::Topology &topology) const;

    /** Evaluate the whole MlBench suite (Table III), one benchmark per
     *  job on ThreadPool::global(); the results do not depend on its
     *  size (each benchmark is evaluated independently). */
    std::vector<BenchmarkEvaluation> evaluateMlBench() const;

    const nvmodel::TechParams &tech() const { return tech_; }
    const EvaluatorOptions &options() const { return options_; }

    /**
     * Suite-level telemetry: per-benchmark PRIME speedup/energy-saving
     * samples and evaluation counters, recorded by evaluateMlBench
     * after the (parallel) fan-out completes.
     */
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  private:
    nvmodel::TechParams tech_;
    EvaluatorOptions options_;
    /** Written only from the serial post-pass of evaluateMlBench. */
    mutable StatGroup stats_;
};

/** Geometric mean of a series (Figure 8/10 "gmean" columns). */
double geometricMean(const std::vector<double> &values);

} // namespace prime::sim

#endif // PRIME_SIM_EVALUATOR_HH
