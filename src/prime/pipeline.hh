/**
 * @file
 * The functional inter-bank pipeline executor (paper Section IV-B).
 *
 * A Large MappingPlan assigns consecutive layer groups to disjoint
 * banks; Pipeline::run executes a batch of inputs through those stages
 * as lockstep wavefront steps on ThreadPool::global().  The batch is
 * cut into chunks of kHandoffBatch images; step t runs every active
 * stage s on chunk t - s, the stages as one global().parallelFor, so
 * while stage 1's banks work on chunk c, stage 0's banks already work
 * on chunk c + 1.  This is the order the timing pass replays a
 * pipelined batch in (PrimeSystem::replayWavefront), and, like
 * FPSA's spatial pipeline, it is fixed by the mapping: no queues
 * between stages, no thread of the pipeline's own, no waiting loop.
 * Each stage's chunk in one step is one "pipe.stageN" trace span.
 *
 * Images are updated in place in one results vector.  The return of
 * each step's parallelFor orders that step's writes before the next
 * step reads them, and within a step every stage touches only its own
 * banks, ExecContext (staging windows, StatGroup, timing log) and
 * accumulators, in image order.  So the outputs are bit-identical to
 * sequential PrimeSystem::run() calls at any pool size, a pool smaller
 * than the stage count included.  Called from inside a pool job, each
 * step's parallelFor runs inline: the steps then run one after
 * another on the calling thread, still in wavefront order.
 * Timing-derived stats (pipeline.stage_ns and the attribution) are
 * schedule-dependent.
 *
 * Live state: a per-stage state word persists across batches and is
 * only ever grown, so the pipeline declares its live values once, in
 * the system's StatGroup, as stages first appear: the
 * pipeline.stageN.state gauge formula and the pipeline.stageN.items
 * Stat a stage bumps per chunk.  Its other stats are bound at the
 * same time and merged from the stages' batch accumulators after the
 * last step.
 *
 * Lock contract: this executor owns no mutex; its only shared
 * atomics are the state words, stored and sampled relaxed.
 */

#ifndef PRIME_PRIME_PIPELINE_HH
#define PRIME_PRIME_PIPELINE_HH

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/stats.hh"
#include "nn/tensor.hh"

namespace prime::core {

class PrimeSystem;

/** Images one stage runs per wavefront step (one chunk). */
inline constexpr std::size_t kHandoffBatch = 4;

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
     * Run @p inputs through @p system's bank stages as one pipelined
     * batch of wavefront steps on the global pool; results in input
     * order.
     */
    std::vector<nn::Tensor> run(PrimeSystem &system,
                                std::span<const nn::Tensor> inputs);

  private:
    /** One stage's persistent state and batch accumulators. */
    struct Stage;

    /** Grow to @p n stages, declaring each new stage's live values. */
    void grow(std::size_t n);

    StatGroup &stats_;
    /** Only ever grown: the formulas capture the stages. */
    std::vector<std::unique_ptr<Stage>> stages_;
};

} // namespace prime::core

#endif // PRIME_PRIME_PIPELINE_HH
