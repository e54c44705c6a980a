/**
 * @file
 * PrimeSystem: the top-level software/hardware interface of PRIME
 * (paper Figure 7).  The five API steps map one-to-one onto methods:
 *
 *   Map_Topology    -> mapTopology()      compile-time mapping (IV-B)
 *   Program_Weight  -> programWeight()    morph FF mats + program cells
 *   Config_Datapath -> configDatapath()   Table I configuration commands
 *   Run             -> run()/runBatch()   functional inference through
 *                                         the mapped crossbar engines,
 *                                         data moved by Table I commands
 *   Post_Proc       -> postProc()         softmax over the logits
 *
 * The functional path instantiates one bank unit (FF subarrays + Buffer
 * subarray + controller) per bank the plan places tiles into, so Large
 * plans execute across real bank boundaries.  The plan's bank-disjoint
 * layer groups are the inter-bank pipeline's stages (Section IV-B), and
 * each stage has one ExecContext: its staging windows, buffers, timing
 * log and executor record.  Every entry point -- run(), runBatch(),
 * runStage(), calibrate() and the served batches -- runs stage s in
 * stage s's context through one step and times the logged traffic with
 * one wavefront replay.  runBatch() runs the stages as lockstep
 * wavefront steps on the global ThreadPool (pipeline.cc); run() is the
 * one-image case, its stages in order.  Bank-level parallelism
 * (identical copies of a small/medium NN across banks) still needs only
 * bank 0 for functional fidelity.  Performance and energy are estimated
 * by the analytic PrimeModel over the same MappingPlan.
 */

#ifndef PRIME_PRIME_PRIME_SYSTEM_HH
#define PRIME_PRIME_PRIME_SYSTEM_HH

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/fixed_point.hh"
#include "common/stats.hh"
#include "common/telemetry/histogram.hh"
#include "common/thread_pool.hh"
#include "mapping/mapper.hh"
#include "memory/main_memory.hh"
#include "nn/quantized.hh"
#include "prime/controller.hh"
#include "sim/prime_model.hh"

namespace prime::core {

/** Images one stage runs per wavefront step of runBatch (one chunk). */
inline constexpr std::size_t kHandoffBatch = 4;

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

    /**
     * One inference through the mapped crossbars: every stage in order,
     * each in its own context, then the one timing replay.  It times
     * exactly as a one-image runBatch.
     */
    nn::Tensor run(const nn::Tensor &input);

    /**
     * Batched inference, the one batch entry point: the batch runs
     * through the inter-bank pipeline as lockstep wavefront steps, each
     * step one parallelFor over the active stages on
     * ThreadPool::global() (pipeline.cc), whatever the stage count.
     * A one-stage plan's steps are parallelFors of one, which run on
     * the caller, so each layer still fans its mats out over the pool.
     * Results are bit-identical to per-sample run() calls at any pool
     * size, noisy analog compute included: every mat draws read noise
     * from its own stream and sees the images in order on every
     * executor.
     *
     * The pipeline's live values and batch stats are declared in
     * stats() as stages first run a batch.  Call from one thread at a
     * time.  Called from inside a parallelFor body, the steps run
     * inline on the calling thread, with the same results.
     */
    std::vector<nn::Tensor> runBatch(std::span<const nn::Tensor> inputs);

    /** Softmax post-processing on the CPU side. */
    std::vector<double> postProc(const nn::Tensor &logits) const;

    // ------------------------------------------------ pipeline view --

    /**
     * Execution context of one pipeline stage, the one per-stage record
     * of every run path: the StatGroup its run.* stats land in, the
     * main-memory staging windows its Fetch/Commit traffic uses, the
     * working buffers of its weighted layers, its timing log and its
     * executor record.  Concurrent stages get disjoint windows,
     * StatGroups, buffers and logs, which is what makes the pipeline
     * rounds race-free.
     *
     * Contexts are heap-pinned and only ever grown: the
     * pipeline.stageN.state formula captures the state word's address,
     * and the metrics sampler may read it at any time, across remaps
     * too.  buildStages resets the per-plan fields in place.
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
         * the stage's own layers.
         */
        std::vector<std::uint8_t> codes;
        std::vector<std::uint8_t> windows;
        std::vector<double> mvm;
        std::vector<std::span<const std::uint8_t>> matInputs;
        /**
         * The bursts of the stage's own tape Fetch/Commit commands,
         * recorded once by buildStages at this context's staging
         * windows and indexed by TapeBank::fetchTransfer /
         * commitTransfer (empty for the other stages' layers).
         */
        std::vector<memory::Transfer> transfers;
        /** Transfer ids issued since the last timing pass, in program
         *  order; capacity reserved up front, so appending allocates
         *  nothing. */
        std::vector<std::uint32_t> log;
        /** log.size() after each image since the last timing pass. */
        std::vector<std::size_t> imageEnds;
        /** Log entries one image appends in this stage. */
        std::size_t transfersPerImage = 0;

        // Executor record, kept across remaps; runBatch binds the stats
        // the first time the stage runs a batch.
        /** What the stage is doing (pipeline.cc's StageState), stored
         *  by whoever runs its step and sampled relaxed. */
        std::atomic<int> state{0};
        /** "pipe.stageN": the stage's trace span per wavefront step. */
        std::string spanName;
        /** pipeline.stageN.items, bumped per chunk, and
         *  pipeline.stageN.service_ns. */
        Stat *items = nullptr;
        telemetry::Histogram *service = nullptr;
        /** pipeline.attribution.stageN.*_ns: where the batch wall
         *  went. */
        Stat *attrBusy = nullptr;
        Stat *attrFill = nullptr;     ///< .stall_upstream_ns
        Stat *attrDrain = nullptr;    ///< .stall_downstream_ns
        Stat *attrBarrier = nullptr;  ///< .idle_ns
        Stat *attrWall = nullptr;     ///< .wall_ns
        /** This batch, touched only by the thread running the stage's
         *  step, and merged into the stats after the last step. */
        telemetry::Histogram serviceNs;  ///< wall ns per image
        telemetry::Histogram e2eNs;      ///< admit -> complete (last)
    };

    /** The plan's pipeline stages (valid after programWeight). */
    const std::vector<mapping::PipelineStage> &stages() const
    {
        return stages_;
    }

    /** The prebuilt context of one stage (valid after programWeight). */
    ExecContext &stageContext(std::size_t stage);

    /**
     * Execute one stage's topology-layer slice on @p x, on its own:
     * the step every run path takes (one "pipeline.stage" span), then
     * the timing replay of the stage's Fetch/Commit transfers.
     * @p ctx must be stageContext(@p stage).
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

    /**
     * The one stage step of every run path: stage @p stage's layers on
     * @p x in stageContext(@p stage), then the image's end in its log.
     * An image leaving the last stage counts as an inference (unless
     * calibrating).
     */
    nn::Tensor stageStep(nn::Tensor x, std::size_t stage);

    /** Build stages_ from the plan and reset their contexts in place:
     *  size the buffers, record the transfers, reserve the logs and
     *  bind the run counters (programWeight). */
    void buildStages();

    /** Bind the batch stats, and each active stage's executor record,
     *  the first time they run a batch (runBatch). */
    void bindBatchStats();

    /**
     * The timing pass of every run path: each context's logged images
     * in wavefront order -- step t, stage s, image t - s
     * (ARCHITECTURE.md, "Timing pass") -- then clears the logs.
     */
    void replay();

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
    /** One per stage of the largest plan so far: grow-only, so the
     *  state formulas' captured addresses stay valid. */
    std::vector<std::unique_ptr<ExecContext>> stageContexts_;
    /** run.inferences, bound by buildStages. */
    Stat *inferences_ = nullptr;
    /** The batch-wide pipeline.* stats, bound by bindBatchStats. */
    struct BatchStats
    {
        telemetry::Histogram *stageNs = nullptr;
        telemetry::Histogram *e2eNs = nullptr;
        Stat *batches = nullptr;
        Stat *samples = nullptr;
        Stat *bottleneckNs = nullptr;
    } batchStats_;
    /** Transfer ids handed out to the tapes' Fetch/Commit commands. */
    std::uint32_t transferCount_ = 0;
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
