#include "sim/evaluator.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/telemetry/trace_session.hh"
#include "common/thread_pool.hh"

namespace prime::sim {

double
geometricMean(const std::vector<double> &values)
{
    PRIME_ASSERT(!values.empty(), "gmean of nothing");
    double log_sum = 0.0;
    for (double v : values) {
        PRIME_ASSERT(v > 0.0, "gmean needs positive values, got ", v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / values.size());
}

Evaluator::Evaluator(const nvmodel::TechParams &tech,
                     const EvaluatorOptions &options)
    : tech_(tech), options_(options)
{
}

BenchmarkEvaluation
Evaluator::evaluate(const nn::Topology &topology) const
{
    // Runs on a pool worker's lane when fanned out by evaluateMlBench.
    PRIME_SPAN(telemetry::globalTrace(), "eval." + topology.name,
               "phase");
    BenchmarkEvaluation e;
    e.topology = topology;

    mapping::Mapper mapper(tech_.geometry, options_.mapper);
    e.plan = mapper.map(topology);

    CpuModel cpu(options_.cpu, tech_);
    e.cpu = cpu.evaluate(topology);

    NpuModel co(options_.npu, tech_, NpuPlacement::CoProcessor, 1);
    e.npuCo = co.evaluate(topology);

    NpuModel pim1(options_.npu, tech_, NpuPlacement::PimSingle, 1);
    e.npuPimX1 = pim1.evaluate(topology);

    NpuModel pim64(options_.npu, tech_, NpuPlacement::PimPerBank,
                   tech_.geometry.totalBanks());
    e.npuPimX64 = pim64.evaluate(topology);

    PrimeModel prime(tech_);
    e.prime = prime.evaluate(topology, e.plan);

    // Figure 9 variant: "PRIME without leveraging bank parallelism for
    // computation" -- replication inside the bank stays on.
    mapping::MapperOptions single = options_.mapper;
    single.enableBankParallelism = false;
    mapping::Mapper single_mapper(tech_.geometry, single);
    mapping::MappingPlan single_plan = single_mapper.map(topology);
    e.primeSingleBank = prime.evaluate(topology, single_plan);
    e.primeSingleBank.platform = "PRIME-1bank";
    return e;
}

std::vector<BenchmarkEvaluation>
Evaluator::evaluateMlBench() const
{
    std::vector<nn::Topology> suite;
    for (const nn::Topology &t : nn::mlBench()) {
        if (!options_.includeVgg && t.name == "VGG-D")
            continue;
        suite.push_back(t);
    }

    // Each benchmark builds its own mapper and platform models, so the
    // evaluations are independent: fan them out and fill the result
    // vector by index (deterministic order for any pool size).
    std::vector<BenchmarkEvaluation> out(suite.size());
    ThreadPool::global().parallelFor(
        suite.size(), [&](std::size_t i) { out[i] = evaluate(suite[i]); });

    // Serial post-pass: the stats map must not be touched by the
    // parallel fan-out above.
    for (const BenchmarkEvaluation &e : out) {
        stats_.get("eval.benchmarks").increment();
        stats_.get("eval.prime_speedup")
            .sample(e.prime.speedupOver(e.cpu));
        stats_.get("eval.prime_energy_saving")
            .sample(e.prime.energySavingOver(e.cpu));
        stats_.get("eval.util_after").sample(e.plan.utilizationAfter);
    }
    return out;
}

} // namespace prime::sim
