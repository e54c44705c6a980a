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

/** acc[c] += in * levels[c] over one cached-plane row. */
PRIME_MVM_INT_CLONES void
accumulateLevelRow(std::int32_t *acc, const int *levels, std::int32_t in,
                   int cols)
{
    for (int c = 0; c < cols; ++c)
        acc[c] += in * levels[c];
}

/** acc[c] += v * geff[c] over one cached-plane row. */
PRIME_MVM_FP_CLONES void
accumulateCurrentRow(double *acc, const double *geff, double v, int cols)
{
    for (int c = 0; c < cols; ++c)
        acc[c] += v * geff[c];
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
    const std::size_t n = cells_.size();
    levelPlane_.resize(n);
    gEffPlane_.resize(n);
    const bool ir_drop = params_.wireResistancePerCell > 0.0;
    for (int r = 0; r < params_.rows; ++r) {
        const std::size_t base = static_cast<std::size_t>(r) * params_.cols;
        for (int c = 0; c < params_.cols; ++c) {
            const Cell &cell = cells_[base + c];
            levelPlane_[base + c] = cell.level();
            double g = cell.conductance();
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
    ensurePlanes();
    const int cols = params_.cols;
    std::fill(out.begin(), out.end(), 0);
    // Accumulate in 32 bits over bounded row chunks, widening to the
    // 64-bit result between chunks: one product is at most 255 * 255
    // (8-bit inputs, 8-bit MLC levels), so 16384 rows stay under 2^31
    // with margin, and the int32 inner loop vectorizes.  The int32
    // accumulator is a stack block of columns, so the kernel never
    // allocates (an FF mat's 2 x 256 bitlines are one block).
    constexpr int kChunkRows = 16384;
    constexpr int kBlockCols = 512;
    std::int32_t acc[kBlockCols];
    for (int c0 = 0; c0 < cols; c0 += kBlockCols) {
        const int width = std::min(kBlockCols, cols - c0);
        for (int r0 = 0; r0 < params_.rows; r0 += kChunkRows) {
            const int r1 = std::min(params_.rows, r0 + kChunkRows);
            std::fill(acc, acc + width, 0);
            bool any = false;
            for (int r = r0; r < r1; ++r) {
                const std::int32_t in = input_levels[r];
                PRIME_ASSERT(in >= 0 && in < params_.inputLevels(),
                             "input level ", in, " out of range at row ",
                             r);
                if (in == 0)
                    continue;
                any = true;
                accumulateLevelRow(acc,
                                   levelPlane_.data() +
                                       static_cast<std::size_t>(r) * cols +
                                       c0,
                                   in, width);
            }
            if (any)
                for (int c = 0; c < width; ++c)
                    out[static_cast<std::size_t>(c0 + c)] += acc[c];
        }
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
    : pos_(params), neg_(params)
{
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
        }
    }
}

void
DifferentialPair::mvmExact(std::span<const int> input_levels,
                           std::span<std::int64_t> out,
                           std::span<std::int64_t> neg) const
{
    pos_.mvmExact(input_levels, out);
    neg_.mvmExact(input_levels, neg);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] -= neg[i];
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
