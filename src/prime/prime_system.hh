/**
 * @file
 * PrimeSystem: the top-level software/hardware interface of PRIME
 * (paper Figure 7).  The five API steps map one-to-one onto methods:
 *
 *   Map_Topology    -> mapTopology()      compile-time mapping (IV-B)
 *   Program_Weight  -> programWeight()    morph FF mats + program cells
 *   Config_Datapath -> configDatapath()   Table I configuration commands
 *   Run             -> run()              functional inference through
 *                                         the mapped crossbar engines,
 *                                         data moved by Table I commands
 *   Post_Proc       -> postProc()         softmax over the logits
 *
 * The functional path instantiates one bank unit (FF subarrays + Buffer
 * subarray + controller) per bank the plan places tiles into, so Large
 * plans execute across real bank boundaries.  runBatch() drives those
 * banks as the paper's inter-bank pipeline (Section IV-B: one stage per
 * bank-disjoint layer group) via a per-system Pipeline that runs them
 * as lockstep wavefront steps on the global ThreadPool; run() executes
 * the same stages sequentially.  Bank-level parallelism (identical copies
 * of a small/medium NN across banks) still needs only bank 0 for
 * functional fidelity.  Performance and energy are estimated by the
 * analytic PrimeModel over the same MappingPlan.
 */

#ifndef PRIME_PRIME_PRIME_SYSTEM_HH
#define PRIME_PRIME_PRIME_SYSTEM_HH

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/fixed_point.hh"
#include "common/thread_pool.hh"
#include "mapping/mapper.hh"
#include "memory/main_memory.hh"
#include "nn/quantized.hh"
#include "prime/controller.hh"
#include "prime/pipeline.hh"
#include "sim/prime_model.hh"

namespace prime::core {

/** The full PRIME machine (functional + analytic). */
class PrimeSystem
{
  public:
    explicit PrimeSystem(
        const nvmodel::TechParams &tech = nvmodel::defaultTechParams(),
        const mapping::MapperOptions &mapper_options = {});

    // ------------------------------------------------ Figure 7 API --

    /** Compile-time mapping of the NN topology onto FF resources. */
    const mapping::MappingPlan &mapTopology(const nn::Topology &topology);

    /**
     * Quantize the trained weights to the composing format, morph the
     * planned FF mats to computation mode (migrating their resident data
     * into Mem subarrays) and program the crossbar cells.  The mats are
     * programmed in parallel on the global thread pool; with @p rng,
     * one base seed is drawn from it and each mat takes its programming
     * variation from its own stream, streamSeed(base, global mat
     * address), so the cells are identical at any thread count.  The
     * migration traffic and the configuration commands follow in global
     * tile order.
     */
    void programWeight(const nn::Network &trained, Rng *rng = nullptr);

    /** Issue and execute the Table I datapath-configuration commands. */
    void configDatapath();

    /**
     * Profile the reconfigurable-SA windows on sample inputs: tracks
     * each mat's peak integer dot product and programs the SA shift
     * with 2x headroom (part of the compile-time optimization; without
     * it the SA defaults to the conservative worst-case-weight window).
     */
    void calibrate(const std::vector<nn::Sample> &samples);

    /**
     * Compute through the analog conductance path instead of the ideal
     * integer datapath: programming variation (if weights were
     * programmed with an Rng) then reaches the results.  With
     * @p noise_rng, one base seed is drawn from it;
     * bank b's controller seeds its local mat m's read-noise stream
     * with streamSeed(streamSeed(base, b), m).  The caller's Rng is not
     * kept, and each call restarts the streams.  The FF mats' crossbars
     * model no read noise today (CrossbarParams::readNoiseSigma stays
     * 0), so the streams draw nothing and only programming variation
     * reaches the results.
     */
    void setAnalogCompute(bool analog, Rng *noise_rng = nullptr);

    /** One inference through the mapped crossbars. */
    nn::Tensor run(const nn::Tensor &input);

    /**
     * Batched inference, the one batch entry point.  A multi-stage plan
     * runs the batch through the inter-bank pipeline (Pipeline::run:
     * lockstep wavefront steps, each step one parallelFor over the
     * active stages on ThreadPool::global()); a one-stage plan runs the
     * samples through run().  Callers that want sequential execution
     * of a multi-stage plan loop over run() themselves.  Results are
     * bit-identical to per-sample run() calls at any pool size,
     * noisy analog compute included: every mat draws read noise from
     * its own stream and sees the images in order on every executor.
     *
     * The pipeline's live values are declared in stats() as stages
     * first run.  Call from one thread at a time.  Called from inside a
     * parallelFor body, the steps run inline on the calling thread,
     * with the same results.
     */
    std::vector<nn::Tensor> runBatch(std::span<const nn::Tensor> inputs);

    /** Softmax post-processing on the CPU side. */
    std::vector<double> postProc(const nn::Tensor &logits) const;

    // ------------------------------------------------ pipeline view --

    /**
     * Execution context of one pipeline stage (or the sequential
     * default path): the StatGroup its run.* stats land in, the
     * main-memory staging windows its Fetch/Commit traffic uses, the
     * working buffers of its weighted layers and its timing log.
     * Concurrent stages get disjoint windows, StatGroups, buffers and
     * logs, which is what makes the pipeline rounds race-free.
     */
    struct ExecContext
    {
        StatGroup *stats = nullptr;
        std::uint64_t inputStageAddr = 0;
        std::uint64_t outputStageAddr = 0;
        /**
         * &stats->get("run.tiled_mvms"), bound by buildStages: tiledMvm
         * bumps it directly, with no string-keyed lookup per MVM
         * (StatGroup map nodes are address-stable).
         */
        Stat *tiledMvms = nullptr;
        /**
         * A layer's input codes, a conv layer's gathered windows
         * (row-tile-major, see tiledMvm) and their tiled-MVM outputs,
         * and one bank's per-mat input views: sized by buildStages for
         * every layer.
         */
        std::vector<std::uint8_t> codes;
        std::vector<std::uint8_t> windows;
        std::vector<double> mvm;
        std::vector<std::span<const std::uint8_t>> matInputs;
        /**
         * The bursts of every tape Fetch/Commit this context can issue,
         * recorded once by buildStages at this context's staging
         * windows and indexed by TapeBank::fetchTransfer /
         * commitTransfer (empty for a layer the context never runs).
         */
        std::vector<memory::Transfer> transfers;
        /** Transfer ids issued since the last timing pass, in program
         *  order; capacity reserved up front, so appending allocates
         *  nothing. */
        std::vector<std::uint32_t> log;
        /** During a pipelined batch: log.size() after each image. */
        std::vector<std::size_t> imageEnds;
        /** Log entries one image appends in this stage. */
        std::size_t transfersPerImage = 0;
    };

    /** The plan's pipeline stages (valid after programWeight). */
    const std::vector<mapping::PipelineStage> &stages() const
    {
        return stages_;
    }

    /** The prebuilt context of one stage (valid after programWeight). */
    ExecContext &stageContext(std::size_t stage);

    /**
     * Execute one stage's topology-layer slice on @p x inside @p ctx
     * (the pipeline engine's worker entry point; emits a
     * "pipeline.stage" span).  Inside a pipelined runBatch the stage's
     * Fetch/Commit transfers stay in ctx's log for the batch's
     * wavefront timing pass; called on its own, it times them before
     * returning, as run() does.
     */
    nn::Tensor runStage(const nn::Tensor &x, std::size_t stage,
                        ExecContext &ctx);

    // ------------------------------------------------- morphing / OS --

    /** Wrap-up: all compute mats morph back to memory mode. */
    void release();

    /** FF bytes currently serving as normal memory. */
    std::size_t availableFfMemoryBytes() const;

    // ------------------------------------------------- accounting ----

    /** Analytic performance/energy for the configured NN. */
    sim::PlatformResult estimatePerformance() const;

    /** One-time reconfiguration cost (paper excludes it from per-image
     *  results; reported separately). */
    Ns configurationTime() const;
    PicoJoule configurationEnergy() const;

    const mapping::MappingPlan &plan() const;
    const nn::Topology &topology() const;
    StatGroup &stats() { return stats_; }
    /** Number of instantiated bank units. */
    int bankCount() const { return static_cast<int>(banks_.size()); }
    /** Bank @p bank's controller / Buffer subarray (default: bank 0). */
    PrimeController &controller(int bank = 0);
    BufferSubarray &buffer(int bank = 0);
    memory::MainMemory &mainMemory() { return mem_; }

    /** The datapath-configuration command stream (for inspection). */
    const std::vector<mapping::Command> &configCommands() const
    {
        return configCommands_;
    }

  private:
    /** One bank's functional hardware: FF subarrays, Buffer subarray
     *  and the per-bank controller, all reporting into one StatGroup
     *  (bank 0 -> the system root, bank N -> the "bankN" child). */
    struct BankUnit
    {
        std::vector<FfSubarray> ff;
        BufferSubarray buffer;
        PrimeController controller;
        BankUnit(const nvmodel::TechParams &tech, memory::MainMemory *mem,
                 StatGroup *stats);
    };

    /** One replica-0 tile of a lowered layer. */
    struct TapeTile
    {
        PrimeController *controller = nullptr;
        BufferSubarray *buffer = nullptr;
        /** The tile mat's engine (SA shift of the merge, calibration). */
        reram::ComposedMatrixEngine *engine = nullptr;
        /** The tile's mat within its bank (whose codes the merge
         *  reads). */
        int mat = 0;
        /** Buffer -> input latch, and output registers -> the tile's
         *  Buffer output slot (which the merge reads back). */
        mapping::Command load;
        mapping::Command store;
        /** First input row / output column of the layer MVM the tile
         *  covers, and its extent. */
        int rowBase = 0;
        int rows = 0;
        int colBase = 0;
        int cols = 0;
        /** The tile's entry in calibrationPeaks_. */
        std::size_t peakSlot = 0;
    };

    /** One bank hosting tiles of a lowered layer. */
    struct TapeBank
    {
        PrimeController *controller = nullptr;
        /** Memory -> Buffer input codes; src is relative to the
         *  context's input window. */
        mapping::Command fetch;
        /** The bank's mats in tile order: one computeMats fan-out. */
        std::vector<int> mats;
        /** Each mat's index in LayerTape::tiles. */
        std::vector<std::size_t> tiles;
        /** Buffer output slots -> memory; dst is relative to the
         *  context's output window. */
        mapping::Command commit;
        /** The Fetch's / Commit's ids in ExecContext::transfers. */
        std::uint32_t fetchTransfer = 0;
        std::uint32_t commitTransfer = 0;
    };

    /**
     * A weighted layer's Table I data-flow stream, lowered once by
     * programWeight with every address, size and pointer resolved.
     * tiledMvm replays it per layer call over M input vectors: Fetch
     * per bank, Load per tile, computeMats per bank, Store per tile,
     * Commit per bank, then the merge over the tiles.  The pointers
     * stay valid until release() or the next mapTopology/programWeight
     * discards the tape: bank units are heap-pinned, and engines live
     * until their mats morph back to memory.
     */
    struct LayerTape
    {
        /** Banks hosting replica-0 tiles, in first-tile order. */
        std::vector<TapeBank> banks;
        /** Replica-0 tiles in global (rowTile-major) order. */
        std::vector<TapeTile> tiles;
        /** The timing-log entries of one MVM: every bank's Fetch, then
         *  every bank's Commit. */
        std::vector<std::uint32_t> mvmLog;
        /** Whether the layer's rows span more than one row tile. */
        bool rowTiled = false;
    };

    /** Per weighted layer: quantization scales, digital-side bias and
     *  the lowered command tape. */
    struct LayerProgram
    {
        const mapping::LayerMapping *mapping = nullptr;
        nn::LayerSpec spec;
        int weightFrac = 0;
        std::vector<double> bias;
        LayerTape tape;
    };

    /** The bank unit hosting @p bank (instantiated by programWeight). */
    BankUnit &unit(int bank);

    /** Instantiate bank units (and their stat children) up to @p bank. */
    void ensureBank(int bank);

    /** Mat index of a tile within its bank. */
    int matInBank(const mapping::MatTile &tile) const;

    /** FF mats per bank (the stride of global mat addresses). */
    int matsPerBank() const;

    /** Seed of @p bank's read-noise streams (none: no noise). */
    std::optional<std::uint64_t> bankNoiseSeed(int bank) const;

    /** Input vectors of one layer call: a conv layer's windows, or 1. */
    static std::size_t layerVectors(const nn::LayerSpec &spec);

    /**
     * The MVMs of one layer call over M input vectors through the
     * layer's mapped tiles (split-merge): replays the layer's tape and
     * merges the tiles into @p out (M x cols, vector-major), allocating
     * nothing.  @p codes is row-tile-major: row tile k's slice of every
     * vector, vector after vector, at M x its first row (for M = 1, or
     * one row tile, simply the vectors one after another).  Every
     * vector's commands are counted and its Fetch/Commit logged, in
     * vector order, but only the last vector's data moves through
     * memory, Buffer, latch and registers (controller.hh).  While
     * calibrating, the tiles' untruncated dot products are merged
     * instead and no command is issued.
     */
    void tiledMvm(const LayerProgram &lp, std::span<const std::uint8_t> codes,
                  int in_frac, std::span<double> out, ExecContext &ctx);

    nn::Tensor runFc(const LayerProgram &lp, const nn::Tensor &x,
                     ExecContext &ctx);
    nn::Tensor runConv(const LayerProgram &lp, const nn::Tensor &x,
                       ExecContext &ctx);

    /** runStage without the span (run()'s sequential loop body). */
    nn::Tensor runStageImpl(const nn::Tensor &x, std::size_t stage,
                            ExecContext &ctx);

    /** Build stages_ + stageContexts_ from the plan, size the
     *  contexts' buffers, record their transfers, reserve their logs
     *  and bind the run counters (programWeight). */
    void buildStages();

    /** Timing pass of run() / a lone runStage: @p ctx's logged
     *  transfers in program order; clears the log. */
    void replayLog(ExecContext &ctx);

    /** Timing pass of a pipelined batch of @p images: step t, stage
     *  s, image t - s (ARCHITECTURE.md, "Timing pass"); clears the
     *  logs. */
    void replayWavefront(std::size_t images);

    nvmodel::TechParams tech_;
    mapping::MapperOptions mapperOptions_;
    StatGroup stats_;
    memory::MainMemory mem_;
    /** Bank units indexed by bank; banks_[0] always exists. */
    std::vector<std::unique_ptr<BankUnit>> banks_;
    bool analog_ = false;
    /** Base seed of the per-mat read-noise streams (none: no noise). */
    std::optional<std::uint64_t> analogNoiseSeed_;

    std::optional<nn::Topology> topology_;
    std::optional<mapping::MappingPlan> plan_;
    std::vector<LayerProgram> programs_;
    std::vector<mapping::Command> configCommands_;
    std::vector<mapping::PipelineStage> stages_;
    std::vector<ExecContext> stageContexts_;
    /** run.inferences, bound by buildStages. */
    Stat *inferences_ = nullptr;
    /** The inter-bank pipeline, kept across runBatch calls. */
    Pipeline pipeline_;
    /** Transfer ids handed out to the tapes' Fetch/Commit commands. */
    std::uint32_t transferCount_ = 0;
    /** True while a pipelined batch runs its stages (set and cleared
     *  around Pipeline::run, whose first step's pool handoff publishes
     *  it). */
    bool pipelining_ = false;
    bool programmed_ = false;
    bool configured_ = false;
    /** True while calibrate() drives inferences. */
    bool calibrating_ = false;
    /** Peak |integer dot product| per tape tile during calibration
     *  (-1: no sample reached the tile). */
    std::vector<std::int64_t> calibrationPeaks_;
    /** A calibrated tile's untruncated dot products, sized by
     *  calibrate() for the largest tile's layer call (M x its cols);
     *  calibration runs single-threaded through run(), so one buffer
     *  serves every tile. */
    std::vector<std::int64_t> calibrationFull_;
    /** Cursor for migrating FF-resident data into Mem space. */
    std::uint64_t migrationAddr_ = 0;
    /** Memory staging window for per-inference input codes (the CPU
     *  side writes here; Fetch moves it into the Buffer subarray). */
    std::uint64_t inputStageAddr_ = 0;
    /** Memory staging window results Commit back to. */
    std::uint64_t outputStageAddr_ = 0;
};

} // namespace prime::core

#endif // PRIME_PRIME_PRIME_SYSTEM_HH
