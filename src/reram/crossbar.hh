/**
 * @file
 * ReRAM crossbar array model (paper Section II, Figures 1(c) and 2(b)).
 *
 * In computation mode the crossbar performs an analog matrix-vector
 * multiplication: input data are encoded as wordline voltages, synaptic
 * weights as cell conductances, and each bitline accumulates the current
 * sum_i V_i * G_ij.  PRIME stores positive and negative weights in two
 * crossbar arrays sharing input ports; an analog subtraction unit takes
 * their difference, which also cancels the HRS conductance offset
 * (G = Gmin + level * Gstep, and the Gmin terms subtract out).
 *
 * In memory mode the same array stores one bit per cell (SLC).
 */

#ifndef PRIME_RERAM_CROSSBAR_HH
#define PRIME_RERAM_CROSSBAR_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/mutex.hh"
#include "common/rng.hh"
#include "common/thread_annotations.hh"
#include "reram/cell.hh"

namespace prime::reram {

/** Geometry and electrical configuration of one crossbar array. */
struct CrossbarParams
{
    /** Wordlines (inputs). */
    int rows = 256;
    /** Bitlines (outputs). */
    int cols = 256;
    /** MLC bits per cell in computation mode (paper: 4). */
    int cellBits = 4;
    /** Input voltage precision in bits (paper: 3, i.e. 8 levels). */
    int inputBits = 3;
    /** Device technology. */
    DeviceParams device;
    /**
     * Relative sigma of additive output-current read noise, on top of the
     * per-cell programming variation (Dot-Product Engine noise study [66]).
     */
    double readNoiseSigma = 0.0;
    /**
     * Interconnect resistance per cell pitch (Ohm); models first-order
     * IR drop along wordlines/bitlines (Liu et al. [74] compensate for
     * exactly this effect).  0 disables the wire model.
     */
    Ohm wireResistancePerCell = 0.0;

    /** Number of input voltage levels. */
    int inputLevels() const { return 1 << inputBits; }
    /** Number of conductance levels per cell. */
    int cellLevels() const { return 1 << cellBits; }
    /** Wordline voltage step between adjacent input levels. */
    Volt voltageStep() const
    {
        return device.readVoltage / (inputLevels() - 1);
    }
    /** Conductance step between adjacent MLC levels. */
    MicroSiemens conductanceStep() const
    {
        return (device.gMax() - device.gMin()) / (cellLevels() - 1);
    }
};

/**
 * One physical crossbar: a rows x cols grid of Cells with program, SLC
 * read/write, and analog/exact MVM operations.
 */
class Crossbar
{
  public:
    explicit Crossbar(const CrossbarParams &params);

    const CrossbarParams &params() const { return params_; }

    /** Program one cell to an MLC level (computation mode). */
    void programCell(int row, int col, int level, Rng *rng = nullptr);

    /** Program a full matrix of levels; levels[r][c] in [0, 2^cellBits). */
    void programLevels(const std::vector<std::vector<int>> &levels,
                       Rng *rng = nullptr);

    /** Level the write driver targeted for a cell. */
    int storedLevel(int row, int col) const;

    /** Actual programmed conductance of a cell. */
    MicroSiemens conductance(int row, int col) const;

    /**
     * Ideal integer MVM: out[j] = sum_i input[i] * level[i][j].  This is
     * the arithmetic the analog array implements when devices are perfect;
     * the composing scheme's correctness proofs are stated in these units.
     *
     * A plain loop over the Cell levels, kept as the reference the
     * fused DifferentialPair kernel is tested against; writes the cols
     * results to @p out without allocating.
     */
    void mvmExact(std::span<const std::uint8_t> input_levels,
                  std::span<std::int64_t> out) const;

    /**
     * Analog MVM through programmed conductances: writes the per-bitline
     * current in uA to @p current (cols entries), including programming
     * variation (already baked into the conductances) and optional read
     * noise when @p rng is non-null.
     *
     * Runs over the cached effective-conductance plane, which folds the
     * per-position wordline/bitline IR drop into each cell's value.
     *
     * RNG-ordering contract: read noise is drawn *after* the full
     * accumulation, one gaussian per bitline in ascending column order,
     * so a sequence of calls sharing one Rng is reproducible sample by
     * sample.
     */
    void mvmAnalog(std::span<const std::uint8_t> input_levels,
                   std::span<double> current, Rng *rng = nullptr) const;

    /**
     * Convert a differential bitline current (pos minus neg array) to
     * "level units", i.e. the value mvmExact would produce; the Gmin
     * offset is assumed cancelled by the subtraction unit.
     */
    double levelUnitsFromCurrent(double current_ua) const;

    /** Memory mode: SLC-write a row of bits. */
    void writeRowBits(int row, std::span<const std::uint8_t> bits,
                      Rng *rng = nullptr);

    /** Memory mode: SLC-read a row of bits. */
    std::vector<std::uint8_t> readRowBits(int row) const;

    /** Total writes absorbed by the most-worn cell (endurance proxy). */
    std::uint64_t maxWear() const;

    /** Sum of write events over all cells. */
    std::uint64_t totalWear() const;

  private:
    /** programSigned writes both arrays' cells in one interleaved loop
     *  and invalidates each plane once per call. */
    friend class DifferentialPair;

    /** Bounds-checked flat index of a cell. */
    std::size_t index(int row, int col) const;

    /** Read-only cell access. */
    const Cell &at(int row, int col) const { return cells_[index(row, col)]; }

    /**
     * Mutable cell access: the single funnel for every mutation path
     * (program, SLC write), so the cached planes are invalidated in
     * exactly one place.
     */
    Cell &mutableAt(int row, int col)
    {
        planesDirty_.store(true, std::memory_order_release);
        return cells_[index(row, col)];
    }

    /** Rebuild the SoA plane from the Cell array (takes planesMutex_;
     *  the EXCLUDES makes re-entry a compile-time error). */
    void rebuildPlanes() const PRIME_EXCLUDES(planesMutex_);

    /** Plane, rebuilt if a mutation invalidated it. */
    void ensurePlanes() const
    {
        if (planesDirty_.load(std::memory_order_acquire))
            rebuildPlanes();
    }

    CrossbarParams params_;
    std::vector<Cell> cells_;

    // Cached structure-of-arrays conductance plane for the analog MVM,
    // lazily (re)built from cells_ by the first analog MVM after a
    // mutation (an exact-only array never builds it); any mutation
    // flips planesDirty_.  The read path is safe to share across
    // threads: the first MVM after a mutation rebuilds under
    // planesMutex_ and publishes with a release store of planesDirty_,
    // which the acquire load in ensurePlanes pairs with.  Mutations
    // themselves must still be externally ordered against concurrent
    // MVMs (the evaluator's fan-out keeps whole engines thread-private,
    // and the controller programs cells only between compute phases).
    // The plane is deliberately NOT PRIME_GUARDED_BY(planesMutex_): the
    // MVM read path touches it lock-free after the release/acquire
    // publication above -- the protocol, not the rebuild lock, is the
    // read-side contract.
    mutable Mutex planesMutex_;               ///< serializes rebuilds
    mutable std::vector<double> gEffPlane_;   ///< rows x cols uS, IR folded
    mutable std::atomic<bool> planesDirty_{true};
};

/**
 * A positive/negative crossbar pair implementing signed weights, as in
 * paper Section III-E: the weight matrix is split into a positive-part
 * array and a negative-part array and the subtraction unit outputs their
 * difference.
 */
class DifferentialPair
{
  public:
    explicit DifferentialPair(const CrossbarParams &params);

    /**
     * Program signed weights, each sliced over @p slices adjacent
     * columns: @p weights holds rows x (cols / slices) values, row-major,
     * with |w| < 2^(slices * cellBits).  Weight (r, c) is cut into
     * cellBits-wide slices of |w|, most significant first, at columns
     * c * slices onward, each taking w's sign; a positive level goes to
     * the positive array, a negative one's magnitude to the negative
     * array.  One slice is plain signed levels; two are the composing
     * scheme's high and low weight halves.  Cells are written row by
     * row, column by column, the positive array's cell before the
     * negative one's, so a variation @p rng is drawn in that order.
     */
    void programSigned(std::span<const int> weights, int slices,
                       Rng *rng = nullptr);

    /**
     * Exact signed MVM of a batch of phase vectors in one fused pass:
     * @p phases holds V vectors of rows codes each, one after another,
     * and passes[v * cols + j] = sum_i phases[v * rows + i] * (pos -
     * neg)[i][j].  On the ideal datapath the subtraction unit is
     * linear, so this equals the crossbar passes pos.mvmExact -
     * neg.mvmExact per vector bit for bit; it runs the CPU-dispatched
     * u8 x s8 kernel (detail::dispatchedSignedPlaneKernel) over the
     * pair's quad plane (the Crossbar planes are left unbuilt) and does
     * not allocate.
     */
    void mvmExact(std::span<const std::uint8_t> phases,
                  std::span<std::int64_t> passes) const;

    /**
     * Analog signed MVM in level units into @p out: both arrays driven
     * by the same input voltages (the negative array's current lands in
     * @p neg), currents subtracted, then scaled to level units.  Per
     * call, the positive array's noise draws precede the negative
     * array's.
     */
    void mvmAnalog(std::span<const std::uint8_t> input_levels,
                   std::span<double> out, std::span<double> neg,
                   Rng *rng = nullptr) const;

    const Crossbar &positive() const { return pos_; }
    const Crossbar &negative() const { return neg_; }
    /** The signed quad plane the exact kernel reads (layout at
     *  quadPlane_). */
    std::span<const std::int8_t> quadPlane() const { return quadPlane_; }

  private:
    Crossbar pos_;
    Crossbar neg_;
    /**
     * Signed levels pos - neg, 4 rows per column: byte
     * ((r / 4) * stride + c) * 4 + r % 4 holds row r, column c, with
     * stride = detail::quadPlaneStride(cols); padding rows and columns
     * are 0.  Written in programSigned's cell loop -- the pair's only
     * mutation path, so it never goes stale.  int8: |level| <
     * 2^cellBits <= 128.
     */
    std::vector<std::int8_t> quadPlane_;
};

namespace detail {

/**
 * Row pitch, in columns, of a pair's quad plane: cols rounded up to
 * 16, so one 64-byte row quad of columns fills an AVX-512 register.
 */
constexpr int
quadPlaneStride(int cols)
{
    return (cols + 15) / 16 * 16;
}

/** One ISA's loop over a row chunk: rows rows of a quad plane (row
 *  pitch stride) times each of @p vectors phase vectors (the chunk's
 *  first row of vector v at phases[v * pitch]) written to passes[v *
 *  cols, (v + 1) * cols), or added there when @p accumulate. */
using SignedPlaneChunkFn = void (*)(const std::int8_t *plane, int rows,
                                    int stride, int cols, int vectors,
                                    const std::uint8_t *phases,
                                    std::size_t pitch, std::int64_t *passes,
                                    bool accumulate);

/** One ISA variant of the pair's exact kernel. */
struct SignedPlaneKernel
{
    /** "avx512vnni", "avx2" or "plain". */
    const char *name;
    /** The chunk loop while every phase of a chunk is below 128, and
     *  otherwise. */
    SignedPlaneChunkFn narrow;
    SignedPlaneChunkFn wide;
    /** Whether this CPU can execute it (CPUID). */
    bool supported;

    /**
     * passes (vectors x cols entries, overwritten) = each of the
     * @p vectors phase vectors (vectors x rows bytes, one after
     * another, read in place and never past the end) times the rows x
     * cols quad plane; exact for any byte phases.  Each plane register
     * is loaded once per block of vectors, not once per vector.
     */
    void run(const std::int8_t *plane, int rows, int cols, int vectors,
             const std::uint8_t *phases, std::int64_t *passes) const;
};

/** Every variant compiled into this build, fastest first; the plain
 *  loop comes last and is always supported. */
std::span<const SignedPlaneKernel> signedPlaneKernels();

/** The variant DifferentialPair::mvmExact runs: the first supported
 *  one, chosen once per process. */
const SignedPlaneKernel &dispatchedSignedPlaneKernel();

/** Asserts every code is below 2^@p bits: one or-reduction, the
 *  offending row looked up only on failure ("input level ..."). */
void checkInputCodes(std::span<const std::uint8_t> codes, int bits);

} // namespace detail

} // namespace prime::reram

#endif // PRIME_RERAM_CROSSBAR_HH
