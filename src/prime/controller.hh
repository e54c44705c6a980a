/**
 * @file
 * The PRIME controller (paper Figure 4 E, Table I): decodes commands,
 * drives the datapath-configuration multiplexers of the FF mats, and
 * moves data between Mem subarrays, the Buffer subarray and the FF
 * input latches / output registers.
 *
 * FF address space convention: each mat owns a window of
 * kFfMatStride bytes; offset 0 is the input latch (one byte per
 * wordline code), offset kFfOutputOffset the output registers (two
 * bytes, little endian, per bitline code).
 *
 * Every mat's input latch is allocated with the controller, its output
 * codes and MVM scratch on its first fire over as many input vectors,
 * and the stats are bound at construction: executing or counting a
 * data-flow command or firing a mat after that allocates nothing and
 * does no string-keyed lookup.
 *
 * A conv layer fires its mats once over all of its windows
 * (computeMats with M input vectors per mat).  The data path moves the
 * last window only: every earlier window would write the same staging
 * bytes, Buffer bytes, latch and registers and read back only what it
 * wrote itself, so the caller counts those windows' commands
 * (count) instead of executing them, and the final state is the same.
 *
 * Fetch and Commit move data only (MainMemory::readData/writeData);
 * their bank/channel timing is not the controller's business.  The
 * caller that issues them from a lowered tape logs the command's
 * pre-decoded transfer, and PrimeSystem replays the log through the
 * timed memory model in one pass per public call (ARCHITECTURE.md,
 * "Timing pass").
 *
 * Thread safety: a controller belongs to one bank, and one thread at a
 * time drives it -- the caller of run(), or the pipeline stage that
 * owns the bank.  Its data-flow commands touch the bank's own Buffer
 * subarray and mats plus the functional memory store, which takes its
 * own page locks, so controllers of different banks run concurrently.
 * computeMats fans one bank's mats out over the global thread pool;
 * each mat's latch, outputs, scratch and noise stream are its own.
 */

#ifndef PRIME_PRIME_CONTROLLER_HH
#define PRIME_PRIME_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "mapping/commands.hh"
#include "memory/main_memory.hh"
#include "prime/buffer_subarray.hh"
#include "prime/ff_subarray.hh"

namespace prime::core {

/** Per-bank controller executing the Table I command set. */
class PrimeController
{
  public:
    /** Bytes of FF address space per mat. */
    static constexpr std::size_t kFfMatStride = 4096;
    /** Offset of the output registers within a mat window. */
    static constexpr std::size_t kFfOutputOffset = 2048;

    /** Every pointer is required; @p stats receives the controller.*
     *  stats. */
    PrimeController(const nvmodel::TechParams &tech,
                    memory::MainMemory *mem,
                    std::vector<FfSubarray> *ff_subarrays,
                    BufferSubarray *buffer, StatGroup *stats);


    /** Execute one decoded command. */
    void execute(const mapping::Command &command);

    /**
     * Fire the crossbars of one mat on its input latch: interpret the
     * latch as wordline codes, run the composed MVM, and capture the
     * target codes in the output registers.  (The Run step of the
     * Figure 7 API; not a Table I command -- computation is triggered
     * by the datapath once inputs are latched.)
     */
    void computeMat(int global_mat);

    /**
     * Fire several mats at once (the replica/tile fan-out of the Run
     * step), each over the M input vectors of inputs[i] (M x rows
     * codes, one vector after another, as latched in turn; the last
     * must be what the mat's latch holds), on the global thread pool;
     * a single mat fires on the calling thread.  controller.mat_mvms
     * grows by every mat's M.  Each mat owns disjoint latches,
     * outputs, crossbars, MVM scratch and read-noise stream, and sees
     * its vectors in order, so results -- analog noise included -- are
     * identical at any thread count and equal M single fires.
     */
    void computeMats(std::span<const int> global_mats,
                     std::span<const std::span<const std::uint8_t>> inputs);

    /**
     * Account @p times executions of the data-flow @p command without
     * moving its data: the command count, its controller.*_bytes and
     * the Buffer traffic it would cause.  The tiled MVM counts a conv
     * layer's earlier windows this way (see the file comment).
     */
    void count(const mapping::Command &command, std::uint64_t times);

    /** Input latch of a mat (kFfOutputOffset bytes; byte r is
     *  wordline r's code). */
    std::span<const std::uint8_t> latch(int global_mat) const;

    /** The signed target codes of a mat's last fire, one row of cols
     *  codes per input vector in order (the output registers hold the
     *  last row): a view valid until the mat's next fire. */
    std::span<const std::int64_t> outputCodes(int global_mat) const;

    /** Number of commands executed. */
    std::uint64_t commandCount() const { return commandsStat_->count(); }

    /** Resolve a global mat index to its FfMat. */
    FfMat &mat(int global_mat);

    /**
     * Select analog computation: computeMat() drives the crossbars
     * through the conductance path (programming variation baked into
     * the cells) instead of the ideal integer datapath.  With a
     * @p bank_seed, local mat m also draws read noise from its own Rng,
     * seeded by streamSeed(*bank_seed, m) -- so a mat's noise depends
     * only on the inputs it saw since this call, never on the order
     * other mats run in.
     */
    void setAnalogCompute(bool analog,
                          std::optional<std::uint64_t> bank_seed);
    bool analogCompute() const { return analog_; }

  private:
    /** One mat's datapath state. */
    struct MatWork
    {
        /** Input latch: byte r is wordline r's code. */
        std::array<std::uint8_t, kFfOutputOffset> latch{};
        /** The last fire's target codes, cols per input vector; the
         *  output registers are the last cols (Store drains them as
         *  int16). */
        std::vector<std::int64_t> outputs;
        std::size_t cols = 0;
        reram::ComposedMatrixEngine::MvmScratch scratch;
    };

    /** One mat's fire of computeMats, without the stats bookkeeping. */
    void computeMatImpl(int global_mat,
                        std::span<const std::uint8_t> inputs);

    /** A mat's engine, asserting the mat computes. */
    const reram::ComposedMatrixEngine &computeEngine(int global_mat);

    /** The mat a data-flow command's FF address falls into. */
    MatWork &matAt(std::uint64_t ff_addr);

    nvmodel::TechParams tech_;
    memory::MainMemory *mem_;
    std::vector<FfSubarray> *ff_;
    BufferSubarray *buffer_;
    bool analog_ = false;
    /** Per-mat read-noise streams; empty when read noise is off. */
    std::vector<Rng> noise_;
    std::vector<MatWork> work_;

    /** The controller.* stats, bound at construction. */
    Stat *commandsStat_;
    Stat *cfgFunction_;
    Stat *fetchBytes_;
    Stat *commitBytes_;
    Stat *loadBytes_;
    Stat *storeBytes_;
    Stat *matMvms_;
};

} // namespace prime::core

#endif // PRIME_PRIME_CONTROLLER_HH
