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
 */

#ifndef PRIME_PRIME_CONTROLLER_HH
#define PRIME_PRIME_CONTROLLER_HH

#include <cstdint>
#include <vector>

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
     * step).  In the ideal integer mode the per-mat MVMs run on the
     * global thread pool -- each mat owns disjoint latches, outputs and
     * crossbars, and integer results are thread-count independent.  In
     * analog mode the mats run sequentially in the given order so the
     * shared noise Rng's draw sequence matches per-mat computeMat calls
     * (the RNG-ordering contract).
     */
    void computeMats(const std::vector<int> &global_mats);

    /** Input latch contents of a mat. */
    const std::vector<std::uint8_t> &latch(int global_mat) const;

    /** Output register contents of a mat as signed codes. */
    std::vector<std::int64_t> outputCodes(int global_mat) const;

    /** Number of commands executed. */
    std::uint64_t commandCount() const { return commands_; }

    /** Resolve a global mat index to its FfMat. */
    FfMat &mat(int global_mat);

    /**
     * Select analog computation: computeMat() drives the crossbars
     * through the conductance path (programming variation baked into
     * the cells; read noise drawn from @p rng when non-null) instead of
     * the ideal integer datapath.
     */
    void setAnalogCompute(bool analog, Rng *rng = nullptr)
    {
        analog_ = analog;
        noiseRng_ = rng;
    }
    bool analogCompute() const { return analog_; }

  private:
    /** The MVM of computeMat without the stats bookkeeping. */
    void computeMatImpl(int global_mat);

    nvmodel::TechParams tech_;
    memory::MainMemory *mem_;
    std::vector<FfSubarray> *ff_;
    BufferSubarray *buffer_;
    StatGroup *stats_;
    bool analog_ = false;
    Rng *noiseRng_ = nullptr;
    std::uint64_t commands_ = 0;
    /** Per-mat input latches and output registers. */
    std::vector<std::vector<std::uint8_t>> latches_;
    std::vector<std::vector<std::int64_t>> outputs_;
};

} // namespace prime::core

#endif // PRIME_PRIME_CONTROLLER_HH
