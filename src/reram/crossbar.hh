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
 */

#ifndef PRIME_RERAM_CROSSBAR_HH
#define PRIME_RERAM_CROSSBAR_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <vector>

#include "common/rng.hh"
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

namespace detail {

/** Allocates on a 64-byte boundary: a pair's quad plane, so no 64-byte
 *  plane load of the exact kernel splits a cache line. */
template <typename T>
struct CacheLineAllocator
{
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};

    CacheLineAllocator() = default;
    template <typename U>
    CacheLineAllocator(const CacheLineAllocator<U> &)
    {
    }
    T *allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(n * sizeof(T), kAlign));
    }
    void deallocate(T *p, std::size_t) { ::operator delete(p, kAlign); }
    bool operator==(const CacheLineAllocator &) const = default;
};

} // namespace detail

/**
 * One physical crossbar: a rows x cols grid of MLC cells with program
 * and analog/exact MVM operations.
 *
 * The cells' state is three row-major planes, written eagerly by one
 * private write function: a level, the conductance the bitline sees
 * and a wear count per cell.  A fresh crossbar reads level 0,
 * conductance 0.0 and wear 0 everywhere.  No read changes any state,
 * so concurrent const MVMs on a programmed crossbar are plain reads;
 * they must be ordered after the last program call (the thread pool's
 * job handoff does that).
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

    /**
     * Conductance of a cell as its bitline sees it: the programmed
     * value, including programming error, in series with the cell's
     * wordline and bitline wire segments when wireResistancePerCell
     * is set.
     */
    MicroSiemens conductance(int row, int col) const;

    /**
     * Ideal integer MVM: out[j] = sum_i input[i] * level[i][j].  This is
     * the arithmetic the analog array implements when devices are perfect;
     * the composing scheme's correctness proofs are stated in these units.
     *
     * A plain loop over the level plane, kept as the reference the
     * fused DifferentialPair kernel is tested against; writes the cols
     * results to @p out without allocating.
     */
    void mvmExact(std::span<const std::uint8_t> input_levels,
                  std::span<std::int64_t> out) const;

    /**
     * Analog MVM through programmed conductances: writes the per-bitline
     * current in uA to @p current (cols entries), including programming
     * variation and IR drop (both already in the conductance plane) and
     * optional read noise when @p rng is non-null.
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

    /** Total writes absorbed by the most-worn cell (endurance proxy). */
    std::uint64_t maxWear() const;

    /** Sum of write events over all cells. */
    std::uint64_t totalWear() const;

  private:
    /** programSigned writes both arrays' cells in one interleaved loop
     *  through write(). */
    friend class DifferentialPair;

    /** Bounds-checked flat index of a cell. */
    std::size_t index(int row, int col) const;

    /**
     * The one write path: program cell @p i (flat index) to @p level,
     * whose ideal conductance is @p ideal.  Draws the programming
     * error from @p rng when non-null, folds the cell's IR drop into
     * the stored conductance, and counts a write when the cell is
     * first programmed or its level changes (write drivers verify
     * before pulsing).
     */
    void write(std::size_t i, int level, MicroSiemens ideal, Rng *rng);

    CrossbarParams params_;
    /** Per-cell planes, rows x cols row-major. */
    std::vector<std::uint8_t> levels_;     ///< below 2^cellBits, bits <= 8
    std::vector<double> conductance_;      ///< uS, IR drop folded in
    /** One program call adds at most 1 per cell, so no run reaches
     *  2^32 writes. */
    std::vector<std::uint32_t> wear_;
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
     * pair's quad plane (the Crossbar planes are not read) and does
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
    std::vector<std::int8_t, detail::CacheLineAllocator<std::int8_t>>
        quadPlane_;
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
