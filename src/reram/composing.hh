/**
 * @file
 * Input and synapse composing scheme (paper Section III-D, Eq. 2-9).
 *
 * Device reality: wordline drivers provide only 3-bit input voltages,
 * cells hold only 4-bit conductance levels, and the reconfigurable SA
 * senses at most 6 output bits.  PRIME composes
 *
 *   - one 6-bit input from two 3-bit input phases fed sequentially
 *     (high-bit part then low-bit part), and
 *   - one 8-bit synaptic weight from two 4-bit cells in adjacent bitlines,
 *
 * and assembles the Po-bit target output from the partial products:
 *
 *   Rfull = 2^((Pin+Pw)/2) RHH + 2^(Pw/2) RHL + 2^(Pin/2) RLH + RLL
 *   Rtarget = Rfull >> (Pin + Pw + PN - Po)
 *           ~ hi_Po(RHH) + hi_{Po-Pin/2}(RHL) + hi_{Po-Pw/2}(RLH)
 *             [+ hi_{Po-(Pin+Pw)/2}(RLL), empty with default parameters]
 *
 * where hi_k(x) keeps the highest k bits of the (Pin/2+Pw/2+PN)-bit
 * component result, i.e. an arithmetic right shift implemented by
 * reconfiguring the SA to k-bit precision (with the customary half-LSB
 * reference offset, so conversions round to nearest).  Each component
 * contributes at most half a target-scale ULP of rounding error and the
 * dropped LL part less than one, so |composed - exact shifted| <= 4 ULP.
 *
 * The LL term is always part of the assembly; "empty" above refers only
 * to its window under the defaults (Po=6 full-scale shift leaves hi_0).
 * At Po = 8, or under a calibrated (smaller) SA shift, LL carries real
 * bits -- see the OutputBits8KeepsLlTerm regression test.
 */

#ifndef PRIME_RERAM_COMPOSING_HH
#define PRIME_RERAM_COMPOSING_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "reram/crossbar.hh"

namespace prime::reram {

/** Bit-width configuration of the composing scheme. */
struct ComposingParams
{
    /** Logical input precision Pin (paper: 6). */
    int inputBits = 6;
    /** Physical input-phase precision Pin/2 (paper: 3). */
    int inputPhaseBits = 3;
    /** Logical weight precision Pw (paper: 8, magnitude; sign via arrays). */
    int weightBits = 8;
    /** Physical cell precision Pw/2 (paper: 4). */
    int cellBits = 4;
    /** SA output precision Po (paper: 6). */
    int outputBits = 6;

    /** Validity: phases must exactly tile the logical widths. */
    bool
    consistent() const
    {
        return inputPhaseBits * 2 == inputBits && cellBits * 2 == weightBits &&
               outputBits >= 1 && outputBits <= 8;
    }
};

/**
 * Rows up to which the exact MVM assembles its component dot products
 * in int32: with the widest legal parts (4-bit input phases, 7-bit
 * cells) a component is below 2^25 there, which leaves the SA window's
 * rounding offset room below 2^31.  Taller engines assemble in int64.
 */
inline constexpr int kInt32AssemblyRows = 16384;

/** Smallest pn with 2^pn >= n (the paper's PN for an n-input array). */
int pnForInputCount(int n);

/** Split a Pin-bit unsigned input into (high, low) Pin/2-bit phases. */
std::pair<int, int> splitInput(int value, const ComposingParams &p);

/** Split a signed weight into (high, low) signed cell parts sharing sign. */
std::pair<int, int> splitWeight(int value, const ComposingParams &p);

/** floor(x / 2^shift): the SA's "take the highest bits" operation. */
std::int64_t takeHighBits(std::int64_t x, int shift);

/**
 * Reference semantics: the exact Po-bit target code for one output column,
 * Rtarget = floor(sum_i in_i * w_i / 2^(Pin + Pw + PN - Po)), with PN
 * derived from the input count (next power of two).
 */
std::int64_t composedTargetExact(std::span<const int> inputs,
                                 std::span<const int> weights,
                                 const ComposingParams &p);

/**
 * Pure-integer model of the composed computation: splits inputs and
 * weights, computes the HH/HL/LH(/LL) partial dot products, truncates each
 * with the SA rule and accumulates with the precision-control adder.
 * This is what the hardware datapath produces when devices are ideal.
 */
std::int64_t composedApprox(std::span<const int> inputs,
                            std::span<const int> weights,
                            const ComposingParams &p);

/** The paper's default output shift: Pin + Pw + PN - Po. */
int defaultOutputShift(const ComposingParams &p, int input_count);

/**
 * Composed computation with an explicitly configured output shift
 * (reconfigurable-SA range selection): Rtarget ~ Rfull >> total_shift.
 * In practice the full-scale shift wastes the SA's dynamic range --
 * trained layers produce dot products far below the theoretical
 * maximum -- so PRIME configures the SA window per layer from the
 * programmed weights (see calibratedOutputShift).  Each component
 * conversion saturates at the SA's (Po+1)-bit signed register.
 */
std::int64_t composedApproxShifted(std::span<const int> inputs,
                                   std::span<const int> weights,
                                   const ComposingParams &p,
                                   int total_shift);

/** The SA window for |dot products| up to @p bound: the smallest
 *  shift s >= 0 with 2^(s + Po) > @p bound. */
int outputShiftForBound(std::int64_t bound, int output_bits);

/**
 * Static per-layer SA-range calibration: the smallest shift whose
 * window covers the worst-case |dot product| of the programmed weight
 * columns with any input vector (sum of 63 * |w| per column).
 * @p weights holds the rows x @p cols weights row-major.
 */
int calibratedOutputShift(std::span<const int> weights, int cols,
                          const ComposingParams &p);

/** Assemble one output from the four component dot products under a
 *  configured SA window (exposed for the quantized runtime). */
std::int64_t composedAssemble(std::int64_t hh, std::int64_t hl,
                              std::int64_t lh, std::int64_t ll,
                              const ComposingParams &p, int total_shift);

/**
 * A matrix engine realizing the composing scheme on crossbar hardware:
 * a positive/negative crossbar pair whose adjacent bitlines hold the
 * high and low 4-bit halves of each logical 8-bit weight column.
 *
 * Computation runs in two analog passes (high input phase, low input
 * phase); the high pass yields the HH and LH components, the low pass the
 * HL and LL components, and the precision-control register+adder
 * (Figure 4 C) accumulates the truncated parts.  The exact (ideal
 * device) MVM computes both passes in one sweep of the pair's signed
 * level plane; the analog MVM drives the two arrays per phase.
 */
class ComposedMatrixEngine
{
  public:
    /**
     * @param rows logical input count (crossbar wordlines)
     * @param cols logical output count (uses 2*cols physical bitlines)
     */
    ComposedMatrixEngine(int rows, int cols, const ComposingParams &p,
                         const CrossbarParams &array_params);

    /**
     * Working memory of the span MVMs: the two input phases and the
     * per-pass component results of every input vector, and the analog
     * bitline currents.  Each MVM sizes it for this engine and its
     * vector count on first use; reusing one scratch across calls of
     * that size keeps the MVMs allocation-free.  One scratch per
     * concurrent caller (the engine itself holds no MVM state).
     */
    struct MvmScratch
    {
        std::vector<std::uint8_t> phases;
        std::vector<std::int64_t> passes;
        std::vector<double> currents;
    };

    /**
     * Program logical signed weights in (-2^Pw, 2^Pw), rows x cols
     * row-major; each splits into its high and low halves on adjacent
     * bitlines as its cells are written.
     */
    void programWeights(std::span<const int> weights, Rng *rng = nullptr);

    /**
     * Composed MVM with ideal devices (integer datapath) of M input
     * vectors: @p inputs holds M x rows codes (vector m at m * rows),
     * @p out receives M x cols target codes (vector m at m * cols).
     * One kernel pass over the quad plane serves all M vectors; a
     * single vector is the M = 1 case.
     */
    void mvmExact(std::span<const std::uint8_t> inputs,
                  std::span<std::int64_t> out, MvmScratch &scratch) const;

    /**
     * Composed MVM through the analog arrays, M vectors laid out as for
     * mvmExact (programming variation baked into conductances; read
     * noise when @p rng set).  Component results are quantized by the
     * SA before truncation, as in hardware.  The vectors run in order,
     * and per vector the high input phase's noise draws (positive array
     * then negative) precede the low phase's: a batch draws what M
     * single calls draw.
     */
    void mvmAnalog(std::span<const std::uint8_t> inputs,
                   std::span<std::int64_t> out, MvmScratch &scratch,
                   Rng *rng = nullptr) const;

    /** Reference target codes for the currently programmed weights. */
    std::vector<std::int64_t>
    targetExact(std::span<const std::uint8_t> inputs) const;

    /** Untruncated integer dot products of M input vectors (laid out
     *  as for mvmExact) into @p out (M x cols entries; for SA-window
     *  calibration). */
    void mvmFull(std::span<const std::uint8_t> inputs,
                 std::span<std::int64_t> out) const;

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    const ComposingParams &composing() const { return composing_; }

    /** Configured SA-window shift (defaults to the paper's full-scale
     *  Pin + Pw + PN - Po). */
    int outputShift() const { return outputShift_; }
    void setOutputShift(int shift);
    /** Set the shift from the programmed weights' worst-case range. */
    void calibrateOutputShift();

    /** The positive/negative crossbar pair holding the weights. */
    const DifferentialPair &arrays() const { return arrays_; }

    /** Total cell-write events across both arrays (endurance). */
    std::uint64_t totalCellWrites() const
    {
        return arrays_.positive().totalWear() +
               arrays_.negative().totalWear();
    }

    /** Worst single-cell wear across both arrays. */
    std::uint64_t maxCellWear() const
    {
        return std::max(arrays_.positive().maxWear(),
                        arrays_.negative().maxWear());
    }

  private:
    /** The vector count M of @p inputs (M x rows codes), checked
     *  against @p out (M x cols). */
    std::size_t vectorCount(std::span<const std::uint8_t> inputs,
                            std::span<const std::int64_t> out) const;

    /** Split M input vectors into @p scratch's 2M phase vectors: vector
     *  m's high phase is phase vector m, its low phase M + m. */
    void splitPhases(std::span<const std::uint8_t> inputs,
                     MvmScratch &scratch) const;

    /**
     * Assemble target codes into @p out (M x cols) from @p passes,
     * vector m's two passes at m and M + m (2 x cols bitlines each, the
     * splitPhases order): even bitlines of the high pass give HH, odd
     * LH; of the low pass, HL and LL.  The @p exact path's components
     * are bounded dot products, assembled in int32 when that provably
     * fits (at most kInt32AssemblyRows rows); otherwise int64.
     */
    void assemble(std::span<const std::int64_t> passes,
                  std::span<std::int64_t> out, bool exact) const;

    int rows_;
    int cols_;
    ComposingParams composing_;
    int outputShift_;
    /** Whether the exact assembly at outputShift_ fits int32, kept in
     *  step with every write of outputShift_. */
    bool assembleInt32_ = false;
    DifferentialPair arrays_;
    /** The programmed logical weights, rows x cols row-major. */
    std::vector<int> logicalWeights_;
};

} // namespace prime::reram

#endif // PRIME_RERAM_COMPOSING_HH
