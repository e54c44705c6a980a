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
 * registers and MVM scratch on its first MVM after programming, and the
 * stats are bound at construction: executing a data-flow command or
 * firing a mat after that allocates nothing and does no string-keyed
 * lookup.
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
     * Fire the crossbars of one mat: interpret its input latch as
     * wordline codes, run the composed MVM, and capture the target codes
     * in the output registers.  (The Run step of the Figure 7 API; not a
     * Table I command -- computation is triggered by the datapath once
     * inputs are latched.)
     */
    void computeMat(int global_mat);

    /**
     * Fire several mats at once (the replica/tile fan-out of the Run
     * step) on the global thread pool; a single mat fires on the
     * calling thread.  Each mat owns disjoint latches, outputs, crossbars,
     * MVM scratch and read-noise stream, so results -- analog noise
     * included -- are identical at any thread count.
     */
    void computeMats(std::span<const int> global_mats);

    /** Input latch of a mat (kFfOutputOffset bytes; byte r is
     *  wordline r's code). */
    std::span<const std::uint8_t> latch(int global_mat) const;

    /** Output register contents of a mat as signed codes: a view valid
     *  until the mat's next MVM. */
    std::span<const std::int64_t> outputCodes(int global_mat) const;

    /** Number of commands executed. */
    std::uint64_t commandCount() const { return commands_; }

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
        /** Output registers: the last MVM's target codes (Store drains
         *  them as int16). */
        std::vector<std::int64_t> outputs;
        reram::ComposedMatrixEngine::MvmScratch scratch;
    };

    /** The MVM of computeMat without the stats bookkeeping. */
    void computeMatImpl(int global_mat);

    /** The mat a data-flow command's FF address falls into. */
    MatWork &matAt(std::uint64_t ff_addr);

    nvmodel::TechParams tech_;
    memory::MainMemory *mem_;
    std::vector<FfSubarray> *ff_;
    BufferSubarray *buffer_;
    bool analog_ = false;
    /** Per-mat read-noise streams; empty when read noise is off. */
    std::vector<Rng> noise_;
    std::uint64_t commands_ = 0;
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
