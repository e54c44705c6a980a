/**
 * @file
 * The functional inter-bank pipeline executor (paper Section IV-B).
 *
 * A Large MappingPlan assigns consecutive layer groups to disjoint
 * banks; Pipeline::run executes a batch of inputs as a free-running
 * pipeline over those stages.  The stages run as
 * pool.parallelFor(n_stages, stage_loop) on the pipeline's own
 * ThreadPool, sized to the stage count: the calling thread works as one
 * stage, and between batches the workers park on the pool's condvar,
 * as the paper's banks stay in place while images stream through.
 * Stages are connected by bounded SPSC ring queues (prime::SpscRing)
 * that carry *batches* of kHandoffBatch tiles per handoff, so the
 * per-sample synchronization cost is two atomic operations amortized
 * over the batch.  No global round barrier exists: a stage runs as long
 * as its input ring has work and its output ring has room, which is
 * what turns the modeled bank concurrency into host wall-clock speedup
 * (the event-driven controller/interconnect idiom of McSim's
 * PTSMemoryController/PTSXbar, decoupled stages communicating through
 * queues).  Each stage's run over one batch is one "pipe.stageN" trace
 * span; which pool thread carries it may change from batch to batch.
 *
 * Live state: the rings and a per-stage state word persist across
 * batches and are only ever grown, so the pipeline declares its live
 * values once, in the system's StatGroup, as stages first appear:
 * pipeline.ringN.depth and pipeline.stageN.state gauge formulas, and
 * the pipeline.stageN.items Stat its stage thread bumps per handoff.
 *
 * Determinism contract: each sample passes through the stages in
 * order, and within a batch each stage's hardware (its banks, staging
 * windows and StatGroup) is touched only by the thread running that
 * stage, in sample-index order -- so the output tensors are
 * bit-identical to sequential PrimeSystem::run() calls at any thread
 * count.  Across batches a stage may move to another pool thread; the
 * pool's job handoff (its mutex) orders one batch's writes before the
 * next batch's reads.  Timing-derived stats (pipeline.stage_ns,
 * mem.queue_ns under concurrency) are schedule-dependent.
 *
 * Stats are sampled without any lock on the tile path: every stage
 * accumulates into its own stage-indexed slot (histogram + counters,
 * pre-resolved Stat references -- no string-keyed map lookups in the
 * loop) and the calling thread merges the slots into pipeline.* after
 * parallelFor returns; only the items Stat is bumped live.
 *
 * Lock contract: this executor owns no mutex at all -- its shared
 * state is rings and atomics, every one with an explicitly spelled
 * memory_order (prime_lint rule `atomic-order` enforces that).  The
 * StatGroup map lock is taken only off the tile path (declaring a new
 * stage, the post-batch merge), and the shard locks it reaches
 * through MainMemory are the annotated capabilities in
 * memory/main_memory.hh, machine-checked under the clang-tsa preset.
 */

#ifndef PRIME_PRIME_PIPELINE_HH
#define PRIME_PRIME_PIPELINE_HH

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "nn/tensor.hh"

namespace prime::core {

class PrimeSystem;

/** Samples per inter-stage handoff (one ring slot). */
inline constexpr std::size_t kHandoffBatch = 4;

/**
 * Depth of each inter-stage ring, in handoff batches: a slow stage
 * stalls its producer after kRingSlots * kHandoffBatch buffered samples.
 */
inline constexpr std::size_t kRingSlots = 2;

/** The inter-bank pipeline of one PrimeSystem, kept across batches. */
class Pipeline
{
  public:
    /**
     * A pipeline declaring its live values in @p stats (the system's
     * root group), which must outlive it.
     */
    explicit Pipeline(StatGroup &stats);
    ~Pipeline();

    Pipeline(const Pipeline &) = delete;
    Pipeline &operator=(const Pipeline &) = delete;

    /**
     * Stream @p inputs through @p system's bank stages as one
     * pipelined batch, one pool thread per stage (the pool is rebuilt
     * when the stage count changes); results in input order.  Must
     * not be called from inside a parallelFor body, where the stages
     * would run one after another and stage 0 would block forever on
     * a full ring.
     */
    std::vector<nn::Tensor> run(PrimeSystem &system,
                                std::span<const nn::Tensor> inputs);

  private:
    /** One stage's persistent state and its output ring. */
    struct Stage;

    /** Grow to @p n stages, declaring each new stage's live values. */
    void grow(std::size_t n);

    StatGroup &stats_;
    std::unique_ptr<ThreadPool> pool_;
    /** Only ever grown: the formulas capture the stages. */
    std::vector<std::unique_ptr<Stage>> stages_;
};

} // namespace prime::core

#endif // PRIME_PRIME_PIPELINE_HH
