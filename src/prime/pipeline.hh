/**
 * @file
 * The functional inter-bank pipeline executor (paper Section IV-B).
 *
 * A Large MappingPlan assigns consecutive layer groups to disjoint
 * banks; runPipelined executes a batch of inputs as a free-running
 * pipeline over those stages: one dedicated long-lived worker per
 * stage (a prime::WorkerGroup, one trace lane each), connected by
 * bounded SPSC ring queues (prime::SpscRing) that carry *batches* of
 * tiles per handoff, so the per-sample synchronization cost is two
 * atomic operations amortized over RunBatchOptions::handoffBatch
 * samples.  No global round barrier exists: a stage runs as long as
 * its input ring has work and its output ring has room, which is what
 * turns the modeled bank concurrency into host wall-clock speedup
 * (the event-driven controller/interconnect idiom of McSim's
 * PTSMemoryController/PTSXbar, decoupled stages communicating through
 * queues).
 *
 * Determinism contract: each sample passes through the stages in
 * order, and each stage's hardware (its banks, staging windows and
 * StatGroup) is touched only by that stage's worker, in sample-index
 * order -- so the output tensors are bit-identical to sequential
 * PrimeSystem::run() calls at any thread count, ring capacity and
 * handoff batch size.  Timing-derived stats (pipeline.stage_ns,
 * mem.queue_ns under concurrency) are schedule-dependent.
 *
 * Stats are sampled without any lock on the tile path: every worker
 * accumulates into its own stage-indexed slot (histogram + counters,
 * pre-resolved Stat references -- no string-keyed map lookups in the
 * loop) and the coordinator merges the slots into pipeline.* after the
 * workers join.
 *
 * Lock contract: this executor owns no mutex at all -- its shared
 * state is rings and atomics, every one with an explicitly spelled
 * memory_order (prime_lint rule `atomic-order` enforces that), and
 * the shard locks it reaches through MainMemory are the annotated
 * capabilities in memory/main_memory.hh, machine-checked under the
 * clang-tsa preset.
 */

#ifndef PRIME_PRIME_PIPELINE_HH
#define PRIME_PRIME_PIPELINE_HH

#include <span>
#include <vector>

#include "prime/prime_system.hh"

namespace prime::core {

/**
 * Stream @p inputs through @p system's bank stages as one pipelined
 * batch; results in input order.
 */
std::vector<nn::Tensor>
runPipelined(PrimeSystem &system, std::span<const nn::Tensor> inputs,
             const PrimeSystem::RunBatchOptions &options);

} // namespace prime::core

#endif // PRIME_PRIME_PIPELINE_HH
