#include "reram/crossbar.hh"

#include <algorithm>

#include "common/logging.hh"

namespace prime::reram {

namespace {

// Runtime-dispatched SIMD clones of the two MVM inner loops (GCC/ELF
// x86-64 only; elsewhere the plain -O3 loop is used).  The integer
// kernel is exact under any ISA.  The double kernel deliberately stops
// at "avx2" (no FMA target): mul-then-add per element is identically
// rounded on every clone, keeping analog results bit-exact across
// machines.
//
// Disabled under sanitizers: target_clones emits GNU ifunc resolvers,
// which the dynamic linker runs during relocation -- before the
// ASan/TSan runtime has initialized -- crashing every binary that
// links this TU.  The PRIME_SANITIZE builds take the plain loop.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define PRIME_MVM_NO_CLONES 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PRIME_MVM_NO_CLONES 1
#endif
#endif

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    defined(__ELF__) && !defined(PRIME_MVM_NO_CLONES)
#define PRIME_MVM_INT_CLONES \
    __attribute__((target_clones("default", "avx2", "arch=x86-64-v4")))
#define PRIME_MVM_FP_CLONES \
    __attribute__((target_clones("default", "avx2")))
#else
#define PRIME_MVM_INT_CLONES
#define PRIME_MVM_FP_CLONES
#endif

// The fused exact kernel accumulates in 32 bits over bounded row
// chunks, widening to the 64-bit result between chunks: one product is
// at most 255 * 127 (8-bit input phases, int8 signed levels), so 16384
// rows stay under 2^31 with margin, and the int32 inner loops
// vectorize.  The int32 accumulators are stack blocks of columns, so
// the kernel never allocates (an FF mat's 2 x 256 bitlines are one
// block).
constexpr int kChunkRows = 16384;
constexpr int kBlockCols = 512;
/** Widest plane the fused kernel keeps in registers; also the pair
 *  plane's row-pitch granule. */
constexpr int kNarrowCols = 16;

/** acc[c] += v * geff[c] over one cached-plane row. */
PRIME_MVM_FP_CLONES void
accumulateCurrentRow(double *acc, const double *geff, double v, int cols)
{
    for (int c = 0; c < cols; ++c)
        acc[c] += v * geff[c];
}

/**
 * The differential pair's fused exact kernel: pass_h / pass_l = the
 * high / low phase times the signed rows x cols plane (row pitch
 * `stride`, a multiple of kNarrowCols, zero-padded).  Everything runs
 * inside this one function, so a composed MVM makes a single
 * dispatched call.  A plane of at most kNarrowCols columns (CNN-1's
 * 25 x 10 conv tile) keeps both accumulators in vector registers over
 * the padded row; wider planes stream each row into stack column
 * blocks.
 */
PRIME_MVM_INT_CLONES void
signedPhasesKernel(const std::int8_t *plane, int rows, int cols,
                   int stride, const int *high, const int *low,
                   std::int64_t *pass_h, std::int64_t *pass_l)
{
    if (cols <= kNarrowCols) {
        std::int64_t sum_h[kNarrowCols] = {};
        std::int64_t sum_l[kNarrowCols] = {};
        for (int r0 = 0; r0 < rows; r0 += kChunkRows) {
            const int r1 = std::min(rows, r0 + kChunkRows);
            std::int32_t acc_h[kNarrowCols] = {};
            std::int32_t acc_l[kNarrowCols] = {};
            for (int r = r0; r < r1; ++r) {
                const std::int32_t h = high[r];
                const std::int32_t l = low[r];
                const std::int8_t *w =
                    plane + static_cast<std::size_t>(r) * stride;
                for (int c = 0; c < kNarrowCols; ++c) {
                    const std::int32_t v = w[c];
                    acc_h[c] += h * v;
                    acc_l[c] += l * v;
                }
            }
            for (int c = 0; c < kNarrowCols; ++c) {
                sum_h[c] += acc_h[c];
                sum_l[c] += acc_l[c];
            }
        }
        std::copy(sum_h, sum_h + cols, pass_h);
        std::copy(sum_l, sum_l + cols, pass_l);
        return;
    }
    std::int32_t acc_h[kBlockCols];
    std::int32_t acc_l[kBlockCols];
    for (int c0 = 0; c0 < cols; c0 += kBlockCols) {
        const int width = std::min(kBlockCols, cols - c0);
        std::fill(pass_h + c0, pass_h + c0 + width, 0);
        std::fill(pass_l + c0, pass_l + c0 + width, 0);
        for (int r0 = 0; r0 < rows; r0 += kChunkRows) {
            const int r1 = std::min(rows, r0 + kChunkRows);
            std::fill(acc_h, acc_h + width, 0);
            std::fill(acc_l, acc_l + width, 0);
            for (int r = r0; r < r1; ++r) {
                const std::int32_t h = high[r];
                const std::int32_t l = low[r];
                if ((h | l) == 0)
                    continue;
                const std::int8_t *w =
                    plane + static_cast<std::size_t>(r) * stride + c0;
                for (int c = 0; c < width; ++c) {
                    const std::int32_t v = w[c];
                    acc_h[c] += h * v;
                    acc_l[c] += l * v;
                }
            }
            for (int c = 0; c < width; ++c) {
                pass_h[c0 + c] += acc_h[c];
                pass_l[c0 + c] += acc_l[c];
            }
        }
    }
}

} // namespace

Crossbar::Crossbar(const CrossbarParams &params)
    : params_(params),
      cells_(static_cast<std::size_t>(params.rows) * params.cols)
{
    PRIME_ASSERT(params.rows > 0 && params.cols > 0,
                 "bad geometry ", params.rows, "x", params.cols);
    PRIME_ASSERT(params.inputBits >= 1 && params.inputBits <= 8,
                 "inputBits=", params.inputBits);
}

std::size_t
Crossbar::index(int row, int col) const
{
    PRIME_ASSERT(row >= 0 && row < params_.rows, "row=", row);
    PRIME_ASSERT(col >= 0 && col < params_.cols, "col=", col);
    return static_cast<std::size_t>(row) * params_.cols + col;
}

void
Crossbar::rebuildPlanes() const
{
    MutexLock lock(planesMutex_);
    // Double-checked: a concurrent MVM may have rebuilt while this
    // thread waited for the lock.
    if (!planesDirty_.load(std::memory_order_acquire))
        return;
    gEffPlane_.resize(cells_.size());
    const bool ir_drop = params_.wireResistancePerCell > 0.0;
    for (int r = 0; r < params_.rows; ++r) {
        const std::size_t base = static_cast<std::size_t>(r) * params_.cols;
        for (int c = 0; c < params_.cols; ++c) {
            double g = cells_[base + c].conductance();
            if (ir_drop && g > 0.0) {
                // First-order IR drop: the wire segments from the driver
                // along the wordline (c+1 pitches) and down the bitline
                // to the SA (rows - r pitches) sit in series with the
                // cell.
                const Ohm r_wire =
                    params_.wireResistancePerCell *
                    static_cast<double>((c + 1) + (params_.rows - r));
                g = 1.0 / (1.0 / g + r_wire * 1.0e-6);  // uS vs Ohm
            }
            gEffPlane_[base + c] = g;
        }
    }
    planesDirty_.store(false, std::memory_order_release);
}

void
Crossbar::programCell(int row, int col, int level, Rng *rng)
{
    mutableAt(row, col).program(params_.device, level, params_.cellBits,
                                rng);
}

void
Crossbar::programLevels(const std::vector<std::vector<int>> &levels, Rng *rng)
{
    PRIME_ASSERT(static_cast<int>(levels.size()) == params_.rows,
                 "levels rows=", levels.size());
    for (int r = 0; r < params_.rows; ++r) {
        PRIME_ASSERT(static_cast<int>(levels[r].size()) == params_.cols,
                     "levels cols=", levels[r].size(), " at row ", r);
        for (int c = 0; c < params_.cols; ++c)
            programCell(r, c, levels[r][c], rng);
    }
}

int
Crossbar::storedLevel(int row, int col) const
{
    return at(row, col).level();
}

MicroSiemens
Crossbar::conductance(int row, int col) const
{
    return at(row, col).conductance();
}

void
Crossbar::mvmExact(std::span<const int> input_levels,
                   std::span<std::int64_t> out) const
{
    PRIME_ASSERT(static_cast<int>(input_levels.size()) == params_.rows,
                 "inputs=", input_levels.size());
    PRIME_ASSERT(static_cast<int>(out.size()) == params_.cols,
                 "outputs=", out.size());
    const int cols = params_.cols;
    std::fill(out.begin(), out.end(), 0);
    for (int r = 0; r < params_.rows; ++r) {
        const std::int64_t in = input_levels[r];
        PRIME_ASSERT(in >= 0 && in < params_.inputLevels(),
                     "input level ", in, " out of range at row ", r);
        const std::size_t base = static_cast<std::size_t>(r) * cols;
        for (int c = 0; c < cols; ++c)
            out[static_cast<std::size_t>(c)] += in * cells_[base + c].level();
    }
}

void
Crossbar::mvmAnalog(std::span<const int> input_levels,
                    std::span<double> current, Rng *rng) const
{
    PRIME_ASSERT(static_cast<int>(input_levels.size()) == params_.rows,
                 "inputs=", input_levels.size());
    PRIME_ASSERT(static_cast<int>(current.size()) == params_.cols,
                 "outputs=", current.size());
    ensurePlanes();
    const Volt v_step = params_.voltageStep();
    const int cols = params_.cols;
    std::fill(current.begin(), current.end(), 0.0);
    for (int r = 0; r < params_.rows; ++r) {
        const Volt v = v_step * input_levels[r];
        if (v == 0.0)
            continue;
        accumulateCurrentRow(current.data(),
                             gEffPlane_.data() +
                                 static_cast<std::size_t>(r) * cols,
                             v, cols);
    }
    if (rng && params_.readNoiseSigma > 0.0) {
        // Output-referred noise proportional to the array's full-scale
        // current, per column.  Drawn after accumulation, ascending
        // column order: the RNG contract every execution path keeps.
        const double full_scale = params_.device.readVoltage *
                                  params_.device.gMax() * params_.rows;
        for (double &i : current)
            i += rng->gaussian(0.0, params_.readNoiseSigma * full_scale);
    }
}

double
Crossbar::levelUnitsFromCurrent(double current_ua) const
{
    return current_ua / (params_.voltageStep() * params_.conductanceStep());
}

void
Crossbar::writeRowBits(int row, std::span<const std::uint8_t> bits, Rng *rng)
{
    PRIME_ASSERT(static_cast<int>(bits.size()) == params_.cols,
                 "bits=", bits.size());
    for (int c = 0; c < params_.cols; ++c) {
        if (bits[c])
            mutableAt(row, c).set(params_.device, rng);
        else
            mutableAt(row, c).reset(params_.device, rng);
    }
}

std::vector<std::uint8_t>
Crossbar::readRowBits(int row) const
{
    std::vector<std::uint8_t> bits(params_.cols);
    for (int c = 0; c < params_.cols; ++c)
        bits[c] = at(row, c).readBit(params_.device) ? 1 : 0;
    return bits;
}

std::uint64_t
Crossbar::maxWear() const
{
    std::uint64_t w = 0;
    for (const Cell &cell : cells_)
        w = std::max(w, cell.wear());
    return w;
}

std::uint64_t
Crossbar::totalWear() const
{
    std::uint64_t w = 0;
    for (const Cell &cell : cells_)
        w += cell.wear();
    return w;
}

DifferentialPair::DifferentialPair(const CrossbarParams &params)
    : pos_(params), neg_(params),
      planeStride_((params.cols + kNarrowCols - 1) / kNarrowCols *
                   kNarrowCols),
      signedPlane_(static_cast<std::size_t>(params.rows) * planeStride_, 0)
{
    PRIME_ASSERT(params.cellBits >= 1 && params.cellBits <= 7,
                 "cellBits=", params.cellBits, " overflows the int8 plane");
}

void
DifferentialPair::programSigned(const std::vector<std::vector<int>> &weights,
                                Rng *rng)
{
    const CrossbarParams &p = pos_.params();
    PRIME_ASSERT(static_cast<int>(weights.size()) == p.rows,
                 "weights rows=", weights.size());
    const int max_mag = p.cellLevels() - 1;
    for (int r = 0; r < p.rows; ++r) {
        PRIME_ASSERT(static_cast<int>(weights[r].size()) == p.cols,
                     "weights cols=", weights[r].size());
        for (int c = 0; c < p.cols; ++c) {
            const int w = weights[r][c];
            PRIME_ASSERT(w >= -max_mag && w <= max_mag,
                         "signed weight ", w, " exceeds ", max_mag);
            pos_.programCell(r, c, w > 0 ? w : 0, rng);
            neg_.programCell(r, c, w < 0 ? -w : 0, rng);
            signedPlane_[static_cast<std::size_t>(r) * planeStride_ + c] =
                static_cast<std::int8_t>(w);
        }
    }
}

void
DifferentialPair::mvmExact(std::span<const int> high_phase,
                           std::span<const int> low_phase,
                           std::span<std::int64_t> pass_h,
                           std::span<std::int64_t> pass_l) const
{
    const CrossbarParams &p = pos_.params();
    PRIME_ASSERT(static_cast<int>(high_phase.size()) == p.rows &&
                     static_cast<int>(low_phase.size()) == p.rows,
                 "inputs=", high_phase.size(), "/", low_phase.size());
    PRIME_ASSERT(static_cast<int>(pass_h.size()) == p.cols &&
                     static_cast<int>(pass_l.size()) == p.cols,
                 "outputs=", pass_h.size(), "/", pass_l.size());
    // inputLevels is a power of two, so both phases are in range
    // exactly when their bitwise or is.
    const unsigned levels = static_cast<unsigned>(p.inputLevels());
    for (int r = 0; r < p.rows; ++r)
        PRIME_ASSERT(static_cast<unsigned>(high_phase[r] | low_phase[r]) <
                         levels,
                     "input level ", high_phase[r], "/", low_phase[r],
                     " out of range at row ", r);
    signedPhasesKernel(signedPlane_.data(), p.rows, p.cols, planeStride_,
                       high_phase.data(), low_phase.data(), pass_h.data(),
                       pass_l.data());
}

void
DifferentialPair::mvmAnalog(std::span<const int> input_levels,
                            std::span<double> out, std::span<double> neg,
                            Rng *rng) const
{
    pos_.mvmAnalog(input_levels, out, rng);
    neg_.mvmAnalog(input_levels, neg, rng);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = pos_.levelUnitsFromCurrent(out[i] - neg[i]);
}

} // namespace prime::reram
