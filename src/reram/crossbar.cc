#include "reram/crossbar.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>

#ifdef __x86_64__
#include <immintrin.h>
#endif

#include "common/logging.hh"

namespace prime::reram {

namespace {

// Runtime-dispatched SIMD clones of the analog MVM's inner loop (GCC/ELF
// x86-64 only; elsewhere the plain -O3 loop is used).  It deliberately
// stops at "avx2" (no FMA target): mul-then-add per element is
// identically rounded on every clone, keeping analog results bit-exact
// across machines.
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
#define PRIME_MVM_FP_CLONES \
    __attribute__((target_clones("default", "avx2")))
#else
#define PRIME_MVM_FP_CLONES
#endif

// The exact kernel's ISA variants are plain functions with a target
// attribute, picked once by CPUID (no ifunc, so sanitizer builds run
// them too).
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PRIME_SIGNED_PLANE_X86 1
#define PRIME_TARGET_AVX2 __attribute__((target("avx2")))
#define PRIME_TARGET_VNNI \
    __attribute__((target("avx512f,avx512bw,avx512vnni")))
#endif

/** acc[c] += v * g[c] over one conductance-plane row. */
PRIME_MVM_FP_CLONES void
accumulateCurrentRow(double *acc, const double *g, double v, int cols)
{
    for (int c = 0; c < cols; ++c)
        acc[c] += v * g[c];
}

// The exact kernel sums u8 x s8 products in int32 over bounded row
// chunks, widening to the int64 result between chunks: one product is
// at most 255 * 127, so 16384 rows stay under 2^31 with margin.  The
// first chunk writes the result, later ones add to it.  The phases are
// read in place, so the kernel never allocates.
constexpr int kChunkRows = 16384;
static_assert(std::int64_t{kChunkRows} * 255 * 127 <
              (std::int64_t{1} << 31));
static_assert(kChunkRows % 4 == 0, "chunks start on a plane quad");

/** pass[0, n) = sums[0, n), or += when @p accumulate: one register's
 *  int32 column sums, widened. */
void
putSums(std::int64_t *pass, const std::int32_t *sums, int n, bool accumulate)
{
    if (accumulate)
        for (int c = 0; c < n; ++c)
            pass[c] += sums[c];
    else
        std::copy_n(sums, n, pass);
}

/**
 * The reference loop, 16 columns and VB phase vectors at a time.  A u8
 * x s8 product always fits int16 (255 * -128 = -32640), and computing
 * it there lets the baseline ISA vectorize the loop with 16-bit
 * multiplies.
 */
template <int VB>
void
plainBlock(const std::int8_t *plane, int rows, int stride, int cols,
           const std::uint8_t *phases, std::size_t pitch,
           std::int64_t *passes, bool accumulate)
{
    constexpr int kCols = 16;
    for (int c0 = 0; c0 < cols; c0 += kCols) {
        std::int32_t acc[VB][kCols] = {};
        const std::int8_t *w = plane + static_cast<std::size_t>(c0) * 4;
        for (int r = 0; r < rows;
             r += 4, w += static_cast<std::size_t>(stride) * 4) {
            std::int16_t in[VB][4] = {};
            for (int v = 0; v < VB; ++v)
                for (int k = 0; k < 4 && r + k < rows; ++k)
                    in[v][k] = phases[static_cast<std::size_t>(v) * pitch +
                                      static_cast<std::size_t>(r + k)];
            for (int c = 0; c < kCols; ++c) {
                const std::int8_t *q = w + std::size_t{4} * c;
                for (int v = 0; v < VB; ++v)
                    acc[v][c] += static_cast<std::int16_t>(in[v][0] * q[0]) +
                                 static_cast<std::int16_t>(in[v][1] * q[1]) +
                                 static_cast<std::int16_t>(in[v][2] * q[2]) +
                                 static_cast<std::int16_t>(in[v][3] * q[3]);
            }
        }
        const int width = std::min(kCols, cols - c0);
        for (int v = 0; v < VB; ++v)
            putSums(passes + static_cast<std::size_t>(v) * cols + c0, acc[v],
                    width, accumulate);
    }
}

/**
 * plainBlock<VB> over @p vectors phase vectors: blocks of VB, then the
 * remainder in halving blocks.  Every ISA's chunk loop has this shape
 * (an explicit recursion per ISA: each is compiled for its own target).
 */
template <int VB>
void
plainVectors(const std::int8_t *plane, int rows, int stride, int cols,
             int vectors, const std::uint8_t *phases, std::size_t pitch,
             std::int64_t *passes, bool accumulate)
{
    int v = 0;
    for (; v + VB <= vectors; v += VB)
        plainBlock<VB>(plane, rows, stride, cols,
                       phases + static_cast<std::size_t>(v) * pitch, pitch,
                       passes + static_cast<std::size_t>(v) * cols,
                       accumulate);
    if constexpr (VB > 1)
        if (v < vectors)
            plainVectors<VB / 2>(
                plane, rows, stride, cols, vectors - v,
                phases + static_cast<std::size_t>(v) * pitch, pitch,
                passes + static_cast<std::size_t>(v) * cols, accumulate);
}

void
plainChunk(const std::int8_t *plane, int rows, int stride, int cols,
           int vectors, const std::uint8_t *phases, std::size_t pitch,
           std::int64_t *passes, bool accumulate)
{
    plainVectors<2>(plane, rows, stride, cols, vectors, phases, pitch,
                    passes, accumulate);
}

#ifdef PRIME_SIGNED_PLANE_X86

/**
 * The next @p n <= 4 rows of a phase as one quad, byte k holding row k
 * (x86 is little-endian) and bytes past n zero: a whole quad is one
 * load in place, a last partial one is built from the rows left, so
 * no phase is read past its end.
 */
inline int
phaseQuad(const std::uint8_t *rows, int n)
{
    std::uint32_t quad = 0;
    if (n == 4)
        std::memcpy(&quad, rows, 4);
    else
        for (int k = 0; k < n; ++k)
            quad |= std::uint32_t{rows[k]} << (8 * k);
    return static_cast<int>(quad);
}

/**
 * AVX2, one quad of rows for NB registers of 8 columns times VB phase
 * vectors (n rows of the quad are real): vpmaddubsw sums row pairs of
 * u8 x s8 products into int16, vpmaddwd the two pairs into int32.  The
 * int16 step saturates above 32767, so it is exact only while every
 * phase is below 128 (2 * 127 * 127 = 32258): the avx2 kernel's wide
 * loop, for chunks with a phase of 128 or more, is the plain one.
 */
template <int NB, int VB>
PRIME_TARGET_AVX2 inline void
avx2Quad(__m256i (&acc)[VB][NB], const std::int8_t *w,
         const std::uint8_t *phases, std::size_t pitch, int n)
{
    const __m256i ones = _mm256_set1_epi16(1);
    __m256i q[NB];
    for (int j = 0; j < NB; ++j)
        q[j] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(w + std::size_t{32} * j));
    for (int v = 0; v < VB; ++v) {
        const __m256i in = _mm256_set1_epi32(
            phaseQuad(phases + static_cast<std::size_t>(v) * pitch, n));
        for (int j = 0; j < NB; ++j)
            acc[v][j] = _mm256_add_epi32(
                acc[v][j],
                _mm256_madd_epi16(_mm256_maddubs_epi16(in, q[j]), ones));
    }
}

template <int NB, int VB>
PRIME_TARGET_AVX2 void
avx2Block(const std::int8_t *plane, int rows, int stride, int cols, int c0,
          const std::uint8_t *phases, std::size_t pitch,
          std::int64_t *passes, bool accumulate)
{
    __m256i acc[VB][NB];
    for (int v = 0; v < VB; ++v)
        for (int j = 0; j < NB; ++j)
            acc[v][j] = _mm256_setzero_si256();
    const std::int8_t *w = plane + static_cast<std::size_t>(c0) * 4;
    const std::size_t quad_pitch = static_cast<std::size_t>(stride) * 4;
    int r = 0;
    for (; r + 4 <= rows; r += 4, w += quad_pitch)
        avx2Quad<NB, VB>(acc, w, phases + r, pitch, 4);
    if (r < rows)
        avx2Quad<NB, VB>(acc, w, phases + r, pitch, rows - r);
    for (int v = 0; v < VB; ++v)
        for (int j = 0; j < NB; ++j) {
            alignas(32) std::int32_t sum[8];
            _mm256_store_si256(reinterpret_cast<__m256i *>(sum), acc[v][j]);
            const int base = c0 + 8 * j;
            putSums(passes + static_cast<std::size_t>(v) * cols + base, sum,
                    std::min(8, cols - base), accumulate);
        }
}

/** avx2Block<NB, VB> over @p vectors phase vectors (plainVectors'
 *  shape). */
template <int NB, int VB>
PRIME_TARGET_AVX2 void
avx2Vectors(const std::int8_t *plane, int rows, int stride, int cols,
            int c0, int vectors, const std::uint8_t *phases,
            std::size_t pitch, std::int64_t *passes, bool accumulate)
{
    int v = 0;
    for (; v + VB <= vectors; v += VB)
        avx2Block<NB, VB>(plane, rows, stride, cols, c0,
                          phases + static_cast<std::size_t>(v) * pitch,
                          pitch, passes + static_cast<std::size_t>(v) * cols,
                          accumulate);
    if constexpr (VB > 1)
        if (v < vectors)
            avx2Vectors<NB, VB / 2>(
                plane, rows, stride, cols, c0, vectors - v,
                phases + static_cast<std::size_t>(v) * pitch, pitch,
                passes + static_cast<std::size_t>(v) * cols, accumulate);
}

PRIME_TARGET_AVX2 void
avx2Chunk(const std::int8_t *plane, int rows, int stride, int cols,
          int vectors, const std::uint8_t *phases, std::size_t pitch,
          std::int64_t *passes, bool accumulate)
{
    int c0 = 0;
    for (; c0 + 32 <= cols; c0 += 32)
        avx2Vectors<4, 2>(plane, rows, stride, cols, c0, vectors, phases,
                          pitch, passes, accumulate);
    for (; c0 < cols; c0 += 8)
        avx2Vectors<1, 8>(plane, rows, stride, cols, c0, vectors, phases,
                          pitch, passes, accumulate);
}

/** AVX-512 VNNI, one quad of rows for NB registers of 16 columns times
 *  VB phase vectors (n rows of the quad are real): one vpdpbusd adds
 *  four rows' u8 x s8 products into each int32 lane, exactly. */
template <int NB, int VB>
PRIME_TARGET_VNNI inline void
vnniQuad(__m512i (&acc)[VB][NB], const std::int8_t *w,
         const std::uint8_t *phases, std::size_t pitch, int n)
{
    __m512i q[NB];
    for (int j = 0; j < NB; ++j)
        q[j] = _mm512_loadu_si512(w + std::size_t{64} * j);
    for (int v = 0; v < VB; ++v) {
        const __m512i in = _mm512_set1_epi32(
            phaseQuad(phases + static_cast<std::size_t>(v) * pitch, n));
        for (int j = 0; j < NB; ++j)
            acc[v][j] = _mm512_dpbusd_epi32(acc[v][j], in, q[j]);
    }
}

template <int NB, int VB>
PRIME_TARGET_VNNI void
vnniBlock(const std::int8_t *plane, int rows, int stride, int cols, int c0,
          const std::uint8_t *phases, std::size_t pitch,
          std::int64_t *passes, bool accumulate)
{
    __m512i acc[VB][NB];
    for (int v = 0; v < VB; ++v)
        for (int j = 0; j < NB; ++j)
            acc[v][j] = _mm512_setzero_si512();
    const std::int8_t *w = plane + static_cast<std::size_t>(c0) * 4;
    const std::size_t quad_pitch = static_cast<std::size_t>(stride) * 4;
    int r = 0;
    for (; r + 4 <= rows; r += 4, w += quad_pitch)
        vnniQuad<NB, VB>(acc, w, phases + r, pitch, 4);
    if (r < rows)
        vnniQuad<NB, VB>(acc, w, phases + r, pitch, rows - r);
    for (int v = 0; v < VB; ++v)
        for (int j = 0; j < NB; ++j) {
            alignas(64) std::int32_t sum[16];
            _mm512_store_si512(sum, acc[v][j]);
            const int base = c0 + 16 * j;
            putSums(passes + static_cast<std::size_t>(v) * cols + base, sum,
                    std::min(16, cols - base), accumulate);
        }
}

/** vnniBlock<NB, VB> over @p vectors phase vectors (plainVectors'
 *  shape). */
template <int NB, int VB>
PRIME_TARGET_VNNI void
vnniVectors(const std::int8_t *plane, int rows, int stride, int cols,
            int c0, int vectors, const std::uint8_t *phases,
            std::size_t pitch, std::int64_t *passes, bool accumulate)
{
    int v = 0;
    for (; v + VB <= vectors; v += VB)
        vnniBlock<NB, VB>(plane, rows, stride, cols, c0,
                          phases + static_cast<std::size_t>(v) * pitch,
                          pitch, passes + static_cast<std::size_t>(v) * cols,
                          accumulate);
    if constexpr (VB > 1)
        if (v < vectors)
            vnniVectors<NB, VB / 2>(
                plane, rows, stride, cols, c0, vectors - v,
                phases + static_cast<std::size_t>(v) * pitch, pitch,
                passes + static_cast<std::size_t>(v) * cols, accumulate);
}

PRIME_TARGET_VNNI void
vnniChunk(const std::int8_t *plane, int rows, int stride, int cols,
          int vectors, const std::uint8_t *phases, std::size_t pitch,
          std::int64_t *passes, bool accumulate)
{
    int c0 = 0;
    for (; c0 + 64 <= cols; c0 += 64)
        vnniVectors<4, 4>(plane, rows, stride, cols, c0, vectors, phases,
                          pitch, passes, accumulate);
    for (; c0 < cols; c0 += 16)
        vnniVectors<1, 8>(plane, rows, stride, cols, c0, vectors, phases,
                          pitch, passes, accumulate);
}

#endif // PRIME_SIGNED_PLANE_X86

} // namespace

Crossbar::Crossbar(const CrossbarParams &params)
    : params_(params),
      levels_(static_cast<std::size_t>(params.rows) * params.cols, 0),
      conductance_(levels_.size(), 0.0), wear_(levels_.size(), 0)
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
Crossbar::write(std::size_t i, int level, MicroSiemens ideal, Rng *rng)
{
    const DeviceParams &device = params_.device;
    MicroSiemens g = rng ? variedConductance(ideal, device.gMin(),
                                             device.gMax(),
                                             device.programVariation, *rng)
                         : ideal;
    if (params_.wireResistancePerCell > 0.0) {
        // First-order IR drop: the wire segments from the driver along
        // the wordline (c+1 pitches) and down the bitline to the SA
        // (rows - r pitches) sit in series with the cell.
        const std::size_t cols = static_cast<std::size_t>(params_.cols);
        const std::size_t r = i / cols, c = i % cols;
        const Ohm r_wire = params_.wireResistancePerCell *
                           static_cast<double>((c + 1) + (params_.rows - r));
        g = 1.0 / (1.0 / g + r_wire * 1.0e-6);  // uS vs Ohm
    }
    if (wear_[i] == 0 || level != levels_[i])
        ++wear_[i];
    levels_[i] = static_cast<std::uint8_t>(level);
    conductance_[i] = g;
}

void
Crossbar::programCell(int row, int col, int level, Rng *rng)
{
    write(index(row, col), level,
          idealConductance(params_.device, level, params_.cellBits), rng);
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
    return levels_[index(row, col)];
}

MicroSiemens
Crossbar::conductance(int row, int col) const
{
    return conductance_[index(row, col)];
}

void
Crossbar::mvmExact(std::span<const std::uint8_t> input_levels,
                   std::span<std::int64_t> out) const
{
    PRIME_ASSERT(static_cast<int>(input_levels.size()) == params_.rows,
                 "inputs=", input_levels.size());
    PRIME_ASSERT(static_cast<int>(out.size()) == params_.cols,
                 "outputs=", out.size());
    detail::checkInputCodes(input_levels, params_.inputBits);
    const int cols = params_.cols;
    std::fill(out.begin(), out.end(), 0);
    for (int r = 0; r < params_.rows; ++r) {
        const std::int64_t in = input_levels[r];
        const std::size_t base = static_cast<std::size_t>(r) * cols;
        for (int c = 0; c < cols; ++c)
            out[static_cast<std::size_t>(c)] += in * levels_[base + c];
    }
}

void
Crossbar::mvmAnalog(std::span<const std::uint8_t> input_levels,
                    std::span<double> current, Rng *rng) const
{
    PRIME_ASSERT(static_cast<int>(input_levels.size()) == params_.rows,
                 "inputs=", input_levels.size());
    PRIME_ASSERT(static_cast<int>(current.size()) == params_.cols,
                 "outputs=", current.size());
    detail::checkInputCodes(input_levels, params_.inputBits);
    const Volt v_step = params_.voltageStep();
    const int cols = params_.cols;
    std::fill(current.begin(), current.end(), 0.0);
    for (int r = 0; r < params_.rows; ++r) {
        const Volt v = v_step * input_levels[r];
        if (v == 0.0)
            continue;
        accumulateCurrentRow(current.data(),
                             conductance_.data() +
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

std::uint64_t
Crossbar::maxWear() const
{
    return std::ranges::max(wear_);
}

std::uint64_t
Crossbar::totalWear() const
{
    return std::accumulate(wear_.begin(), wear_.end(), std::uint64_t{0});
}

DifferentialPair::DifferentialPair(const CrossbarParams &params)
    : pos_(params), neg_(params),
      quadPlane_(static_cast<std::size_t>((params.rows + 3) / 4) * 4 *
                     detail::quadPlaneStride(params.cols),
                 0)
{
    PRIME_ASSERT(params.cellBits >= 1 && params.cellBits <= 7,
                 "cellBits=", params.cellBits, " overflows the int8 plane");
}

void
DifferentialPair::programSigned(std::span<const int> weights, int slices,
                                Rng *rng)
{
    const CrossbarParams &p = pos_.params();
    PRIME_ASSERT(slices >= 1 && p.cols % slices == 0 &&
                     slices * p.cellBits < 31,
                 "slices=", slices, " for ", p.cols, " columns");
    const std::size_t cols = static_cast<std::size_t>(p.cols);
    const std::size_t weight_cols = cols / static_cast<std::size_t>(slices);
    PRIME_ASSERT(weights.size() ==
                     static_cast<std::size_t>(p.rows) * weight_cols,
                 "weights=", weights.size(), " for ", p.rows, " x ",
                 weight_cols);
    const int bits = p.cellBits;
    const int mask = p.cellLevels() - 1;
    const int max_mag = (1 << (slices * bits)) - 1;
    const std::size_t stride =
        static_cast<std::size_t>(detail::quadPlaneStride(p.cols));
    std::array<MicroSiemens, 128> ideal{};  // cellBits <= 7
    for (int level = 0; level <= mask; ++level)
        ideal[static_cast<std::size_t>(level)] =
            idealConductance(p.device, level, bits);
    for (std::size_t r = 0; r < static_cast<std::size_t>(p.rows); ++r) {
        std::int8_t *quad = quadPlane_.data() + (r / 4) * stride * 4 + r % 4;
        for (std::size_t c = 0; c < weight_cols; ++c) {
            const int w = weights[r * weight_cols + c];
            PRIME_ASSERT(w >= -max_mag && w <= max_mag,
                         "signed weight ", w, " exceeds ", max_mag);
            const int mag = w < 0 ? -w : w;
            for (int s = 0; s < slices; ++s) {
                const std::size_t col =
                    c * static_cast<std::size_t>(slices) +
                    static_cast<std::size_t>(s);
                const int level = (mag >> ((slices - 1 - s) * bits)) & mask;
                const int pos = w > 0 ? level : 0, neg = w < 0 ? level : 0;
                pos_.write(r * cols + col, pos,
                           ideal[static_cast<std::size_t>(pos)], rng);
                neg_.write(r * cols + col, neg,
                           ideal[static_cast<std::size_t>(neg)], rng);
                quad[col * 4] = static_cast<std::int8_t>(w < 0 ? -level
                                                               : level);
            }
        }
    }
}

void
DifferentialPair::mvmExact(std::span<const std::uint8_t> phases,
                           std::span<std::int64_t> passes) const
{
    const CrossbarParams &p = pos_.params();
    const std::size_t rows = static_cast<std::size_t>(p.rows);
    const std::size_t vectors = phases.size() / rows;
    PRIME_ASSERT(vectors > 0 && phases.size() == vectors * rows,
                 "inputs=", phases.size(), " for ", rows, " rows");
    PRIME_ASSERT(passes.size() == vectors * static_cast<std::size_t>(p.cols),
                 "outputs=", passes.size(), " for ", vectors, " vectors");
    detail::checkInputCodes(phases, p.inputBits);
    detail::dispatchedSignedPlaneKernel().run(
        quadPlane_.data(), p.rows, p.cols, static_cast<int>(vectors),
        phases.data(), passes.data());
}

void
DifferentialPair::mvmAnalog(std::span<const std::uint8_t> input_levels,
                            std::span<double> out, std::span<double> neg,
                            Rng *rng) const
{
    pos_.mvmAnalog(input_levels, out, rng);
    neg_.mvmAnalog(input_levels, neg, rng);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = pos_.levelUnitsFromCurrent(out[i] - neg[i]);
}

namespace detail {

void
SignedPlaneKernel::run(const std::int8_t *plane, int rows, int cols,
                       int vectors, const std::uint8_t *phases,
                       std::int64_t *passes) const
{
    const int stride = quadPlaneStride(cols);
    const std::size_t pitch = static_cast<std::size_t>(rows);
    for (int r0 = 0; r0 < rows; r0 += kChunkRows) {
        const int n = std::min(rows - r0, kChunkRows);
        unsigned any = 0;
        if (narrow != wide)
            for (int v = 0; v < vectors; ++v)
                for (int r = r0; r < r0 + n; ++r)
                    any |= phases[static_cast<std::size_t>(v) * pitch +
                                  static_cast<std::size_t>(r)];
        (any < 128 ? narrow : wide)(
            plane + static_cast<std::size_t>(r0) * stride, n, stride, cols,
            vectors, phases + r0, pitch, passes, r0 > 0);
    }
}

std::span<const SignedPlaneKernel>
signedPlaneKernels()
{
#ifdef PRIME_SIGNED_PLANE_X86
    __builtin_cpu_init();
#endif
    static const SignedPlaneKernel kernels[] = {
#ifdef PRIME_SIGNED_PLANE_X86
        {"avx512vnni", vnniChunk, vnniChunk,
         __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512vnni")},
        {"avx2", avx2Chunk, plainChunk, __builtin_cpu_supports("avx2") != 0},
#endif
        {"plain", plainChunk, plainChunk, true},
    };
    return kernels;
}

const SignedPlaneKernel &
dispatchedSignedPlaneKernel()
{
    // The plain loop is always supported, so the search always hits.
    static const SignedPlaneKernel &chosen = *std::ranges::find(
        signedPlaneKernels(), true, &SignedPlaneKernel::supported);
    return chosen;
}

void
checkInputCodes(std::span<const std::uint8_t> codes, int bits)
{
    std::uint8_t any = 0;
    for (const std::uint8_t v : codes)
        any |= v;
    if (any >> bits == 0)
        return;
    for (std::size_t r = 0; r < codes.size(); ++r)
        PRIME_ASSERT(codes[r] >> bits == 0, "input level ",
                     static_cast<int>(codes[r]), " out of ", bits,
                     "-bit range at row ", r);
}

} // namespace detail

} // namespace prime::reram
