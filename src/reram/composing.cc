#include "reram/composing.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace prime::reram {

int
pnForInputCount(int n)
{
    int pn = 0;
    while ((1 << pn) < n)
        ++pn;
    return pn;
}

std::pair<int, int>
splitInput(int value, const ComposingParams &p)
{
    PRIME_ASSERT(value >= 0 && value < (1 << p.inputBits),
                 "input ", value, " out of ", p.inputBits, "-bit range");
    const int mask = (1 << p.inputPhaseBits) - 1;
    return {value >> p.inputPhaseBits, value & mask};
}

std::pair<int, int>
splitWeight(int value, const ComposingParams &p)
{
    const int max_mag = (1 << p.weightBits) - 1;
    PRIME_ASSERT(value >= -max_mag && value <= max_mag,
                 "weight ", value, " out of ", p.weightBits, "-bit range");
    const int sign = value < 0 ? -1 : 1;
    const int mag = value < 0 ? -value : value;
    const int mask = (1 << p.cellBits) - 1;
    return {sign * (mag >> p.cellBits), sign * (mag & mask)};
}

std::int64_t
takeHighBits(std::int64_t x, int shift)
{
    if (shift <= 0)
        return x << -shift;
    // C++20 defines >> on a negative value as the arithmetic shift,
    // which is exactly floor division by 2^shift (and costs no divide on
    // the per-column assembly path).
    return x >> shift;
}

std::int64_t
composedTargetExact(std::span<const int> inputs, std::span<const int> weights,
                    const ComposingParams &p)
{
    PRIME_ASSERT(inputs.size() == weights.size(), "size mismatch");
    PRIME_ASSERT(p.consistent(), "inconsistent composing parameters");
    std::int64_t full = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i)
        full += static_cast<std::int64_t>(inputs[i]) * weights[i];
    const int pn = pnForInputCount(static_cast<int>(inputs.size()));
    return takeHighBits(full, p.inputBits + p.weightBits + pn - p.outputBits);
}

int
defaultOutputShift(const ComposingParams &p, int input_count)
{
    return p.inputBits + p.weightBits + pnForInputCount(input_count) -
           p.outputBits;
}

namespace {

/**
 * The precision-control adder under one SA window, its four per-part
 * shifts computed once.  Rfull = 2^((Pin+Pw)/2) HH + 2^(Pw/2) HL +
 * 2^(Pin/2) LH + LL, so component c's own shift is total_shift - m_c.
 * A non-negative shift places the SA window that many bits up: codes
 * below it vanish, and the reference ladder's half-LSB offset rounds to
 * nearest instead of biasing low.  A negative shift (a window finer
 * than one level unit) is not physical: the SA digitizes at natural
 * resolution and the adder applies the up-shift digitally.  Each part
 * then saturates at the SA's signed (Po+1)-bit register.
 *
 * Int is the arithmetic width: int64 always holds it; int32 does when
 * int32AssemblyFits says so, and lets the per-column loop vectorize
 * (the baseline ISA has no 64-bit arithmetic shift).
 */
template <typename Int>
class Assembler
{
  public:
    Assembler(const ComposingParams &p, int total_shift)
        : lo_(-(Int{1} << p.outputBits)), hi_((Int{1} << p.outputBits) - 1)
    {
        for (int i = 0; i < 4; ++i) {
            const int shift = total_shift - partMagnitude(p, i);
            Part &part = parts_[i];
            part.down = std::max(shift, 0);
            part.up = std::max(-shift, 0);
            part.half = shift > 0 ? Int{1} << (shift - 1) : 0;
        }
    }

    /** One output from its HH, HL, LH and LL component dot products. */
    Int
    operator()(Int hh, Int hl, Int lh, Int ll) const
    {
        return code(parts_[0], hh) + code(parts_[1], hl) +
               code(parts_[2], lh) + code(parts_[3], ll);
    }

    /** Bits component @p i sits above LL in Rfull (HH, HL, LH, LL). */
    static int
    partMagnitude(const ComposingParams &p, int i)
    {
        const int magnitude[4] = {(p.inputBits + p.weightBits) / 2,
                                  p.weightBits / 2, p.inputBits / 2, 0};
        return magnitude[i];
    }

  private:
    struct Part
    {
        Int half;
        int down;
        int up;
    };

    /** The SA code of one component, scaled to the target window.  An
     *  arithmetic >> is floor division by 2^down (C++20). */
    Int
    code(const Part &part, Int x) const
    {
        return std::clamp<Int>((x + part.half) >> part.down, lo_, hi_)
               << part.up;
    }

    Part parts_[4];
    Int lo_;
    Int hi_;
};

/**
 * Whether the exact path's assembly of a @p rows-row engine fits int32
 * at @p total_shift: a component dot product is at most rows x
 * (2^phase - 1) x (2^cell - 1) in magnitude, the rounding offset
 * below 2^30 keeps component + offset in range and the shift amounts
 * legal, and four saturated, up-shifted codes sum below 2^31.  With
 * the widest legal parts (4-bit phases, 7-bit cells) the component
 * bound holds up to kInt32AssemblyRows rows.
 */
bool
int32AssemblyFits(const ComposingParams &p, int rows, int total_shift)
{
    if (rows > kInt32AssemblyRows)
        return false;
    const std::int64_t component =
        static_cast<std::int64_t>(rows) *
        ((std::int64_t{1} << p.inputPhaseBits) - 1) *
        ((std::int64_t{1} << p.cellBits) - 1);
    for (int i = 0; i < 4; ++i) {
        const int shift =
            total_shift - Assembler<std::int64_t>::partMagnitude(p, i);
        if (shift > 30 || p.outputBits + std::max(-shift, 0) > 28)
            return false;
        const std::int64_t half =
            shift > 0 ? std::int64_t{1} << (shift - 1) : 0;
        if (component + half > std::numeric_limits<std::int32_t>::max())
            return false;
    }
    return true;
}

/**
 * The per-column assembly loop at width Int over a whole batch: the
 * high passes of all vectors lie back to back, then the low passes, so
 * output k (vector k / cols, column k % cols) reads bitlines 2k and
 * 2k + 1 of each half, one flat loop whatever the vector count.
 */
template <typename Int>
void
assembleColumns(const ComposingParams &p, int total_shift,
                std::span<const std::int64_t> passes,
                std::span<std::int64_t> out)
{
    const Assembler<Int> sa(p, total_shift);
    const std::int64_t *pass_h = passes.data();
    const std::int64_t *pass_l = pass_h + passes.size() / 2;
    for (std::size_t k = 0; k < out.size(); ++k)
        out[k] = sa(static_cast<Int>(pass_h[2 * k]),
                    static_cast<Int>(pass_l[2 * k]),
                    static_cast<Int>(pass_h[2 * k + 1]),
                    static_cast<Int>(pass_l[2 * k + 1]));
}

} // namespace

std::int64_t
composedAssemble(std::int64_t hh, std::int64_t hl, std::int64_t lh,
                 std::int64_t ll, const ComposingParams &p, int total_shift)
{
    return Assembler<std::int64_t>(p, total_shift)(hh, hl, lh, ll);
}

std::int64_t
composedApproxShifted(std::span<const int> inputs,
                      std::span<const int> weights,
                      const ComposingParams &p, int total_shift)
{
    PRIME_ASSERT(inputs.size() == weights.size(), "size mismatch");
    PRIME_ASSERT(p.consistent(), "inconsistent composing parameters");
    std::int64_t hh = 0, hl = 0, lh = 0, ll = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        auto [ih, il] = splitInput(inputs[i], p);
        auto [wh, wl] = splitWeight(weights[i], p);
        hh += static_cast<std::int64_t>(ih) * wh;
        hl += static_cast<std::int64_t>(il) * wh;
        lh += static_cast<std::int64_t>(ih) * wl;
        ll += static_cast<std::int64_t>(il) * wl;
    }
    return composedAssemble(hh, hl, lh, ll, p, total_shift);
}

std::int64_t
composedApprox(std::span<const int> inputs, std::span<const int> weights,
               const ComposingParams &p)
{
    return composedApproxShifted(
        inputs, weights, p,
        defaultOutputShift(p, static_cast<int>(inputs.size())));
}

int
outputShiftForBound(std::int64_t bound, int output_bits)
{
    int bits = 0;
    while ((std::int64_t{1} << bits) <= bound)
        ++bits;
    return std::max(0, bits - output_bits);
}

int
calibratedOutputShift(std::span<const int> weights, int cols,
                      const ComposingParams &p)
{
    PRIME_ASSERT(cols > 0 && !weights.empty() &&
                     weights.size() % static_cast<std::size_t>(cols) == 0,
                 "weights=", weights.size(), " for ", cols, " columns");
    const std::int64_t max_in = (std::int64_t{1} << p.inputBits) - 1;
    const std::size_t width = static_cast<std::size_t>(cols);
    std::vector<std::int64_t> bounds(width, 0);
    for (std::size_t base = 0; base < weights.size(); base += width)
        for (std::size_t c = 0; c < width; ++c)
            bounds[c] +=
                max_in * std::abs(static_cast<std::int64_t>(weights[base + c]));
    std::int64_t worst = 1;
    for (const std::int64_t bound : bounds)
        worst = std::max(worst, bound);
    return outputShiftForBound(worst, p.outputBits);
}

ComposedMatrixEngine::ComposedMatrixEngine(int rows, int cols,
                                           const ComposingParams &p,
                                           const CrossbarParams &array_params)
    : rows_(rows), cols_(cols), composing_(p),
      outputShift_(defaultOutputShift(p, rows)),
      arrays_([&] {
          CrossbarParams cp = array_params;
          cp.rows = rows;
          cp.cols = cols * 2;  // adjacent bitlines: high/low weight halves
          cp.cellBits = p.cellBits;
          cp.inputBits = p.inputPhaseBits;
          return cp;
      }())
{
    PRIME_ASSERT(p.consistent(), "inconsistent composing parameters");
    PRIME_ASSERT(p.inputBits <= 8, "inputBits=", p.inputBits,
                 " exceeds the one-byte input code");
    PRIME_ASSERT(rows > 0 && cols > 0, "bad engine geometry");
    assembleInt32_ = int32AssemblyFits(composing_, rows_, outputShift_);
}

void
ComposedMatrixEngine::programWeights(std::span<const int> weights, Rng *rng)
{
    PRIME_ASSERT(weights.size() == static_cast<std::size_t>(rows_) *
                                       static_cast<std::size_t>(cols_),
                 "weights=", weights.size(), " for ", rows_, " x ", cols_);
    arrays_.programSigned(weights, composing_.weightBits / composing_.cellBits,
                          rng);
    logicalWeights_.assign(weights.begin(), weights.end());
}

void
ComposedMatrixEngine::assemble(std::span<const std::int64_t> passes,
                               std::span<std::int64_t> out,
                               bool exact) const
{
    // The analog path's components are rounded currents, not bounded
    // by the exact dot product: int64 always.
    if (exact && assembleInt32_)
        assembleColumns<std::int32_t>(composing_, outputShift_, passes, out);
    else
        assembleColumns<std::int64_t>(composing_, outputShift_, passes, out);
}

std::size_t
ComposedMatrixEngine::vectorCount(std::span<const std::uint8_t> inputs,
                                  std::span<const std::int64_t> out) const
{
    const std::size_t rows = static_cast<std::size_t>(rows_);
    const std::size_t vectors = inputs.size() / rows;
    PRIME_ASSERT(vectors > 0 && inputs.size() == vectors * rows,
                 "inputs=", inputs.size(), " for ", rows, " rows");
    PRIME_ASSERT(out.size() == vectors * static_cast<std::size_t>(cols_),
                 "outputs=", out.size(), " for ", vectors, " vectors");
    return vectors;
}

void
ComposedMatrixEngine::splitPhases(std::span<const std::uint8_t> inputs,
                                  MvmScratch &scratch) const
{
    detail::checkInputCodes(inputs, composing_.inputBits);
    const std::size_t n = inputs.size();
    scratch.phases.resize(2 * n);
    const int bits = composing_.inputPhaseBits;
    const int mask = (1 << bits) - 1;
    // Byte pointers may alias anything; __restrict lets the split
    // vectorize.
    const std::uint8_t *__restrict in = inputs.data();
    std::uint8_t *__restrict high = scratch.phases.data();
    std::uint8_t *__restrict low = high + n;
    for (std::size_t i = 0; i < n; ++i) {
        high[i] = static_cast<std::uint8_t>(in[i] >> bits);
        low[i] = static_cast<std::uint8_t>(in[i] & mask);
    }
}

void
ComposedMatrixEngine::calibrateOutputShift()
{
    PRIME_ASSERT(!logicalWeights_.empty(), "weights not programmed");
    setOutputShift(
        calibratedOutputShift(logicalWeights_, cols_, composing_));
}

void
ComposedMatrixEngine::setOutputShift(int shift)
{
    outputShift_ = shift;
    assembleInt32_ = int32AssemblyFits(composing_, rows_, shift);
}

void
ComposedMatrixEngine::mvmExact(std::span<const std::uint8_t> inputs,
                               std::span<std::int64_t> out,
                               MvmScratch &scratch) const
{
    const std::size_t vectors = vectorCount(inputs, out);
    splitPhases(inputs, scratch);
    const std::size_t lines = 2 * static_cast<std::size_t>(cols_);
    scratch.passes.resize(2 * vectors * lines);
    // One fused pass over every vector's two phases: of a high phase,
    // even bitlines give HH and odd LH; of a low phase, HL and LL.
    arrays_.mvmExact(scratch.phases, scratch.passes);
    assemble(scratch.passes, out, true);
}

void
ComposedMatrixEngine::mvmAnalog(std::span<const std::uint8_t> inputs,
                                std::span<std::int64_t> out,
                                MvmScratch &scratch, Rng *rng) const
{
    const std::size_t vectors = vectorCount(inputs, out);
    splitPhases(inputs, scratch);
    const std::size_t rows = static_cast<std::size_t>(rows_);
    const std::size_t lines = 2 * static_cast<std::size_t>(cols_);
    scratch.passes.resize(2 * vectors * lines);
    scratch.currents.resize(2 * lines);
    const std::span<const std::uint8_t> phases(scratch.phases);
    const std::span<double> current(scratch.currents);
    // One pass per input phase, vector by vector (each high phase
    // before its low one: the RNG-ordering contract); the SA digitizes
    // each component to the nearest level-unit code before the
    // precision-control adder truncates and accumulates.
    for (std::size_t m = 0; m < vectors; ++m) {
        for (const std::size_t pass : {m, vectors + m}) {
            arrays_.mvmAnalog(phases.subspan(pass * rows, rows),
                              current.first(lines), current.subspan(lines),
                              rng);
            for (std::size_t i = 0; i < lines; ++i)
                scratch.passes[pass * lines + i] =
                    static_cast<std::int64_t>(std::llround(current[i]));
        }
    }
    assemble(scratch.passes, out, false);
}

void
ComposedMatrixEngine::mvmFull(std::span<const std::uint8_t> inputs,
                              std::span<std::int64_t> out) const
{
    PRIME_ASSERT(!logicalWeights_.empty(), "weights not programmed");
    vectorCount(inputs, out);
    detail::checkInputCodes(inputs, composing_.inputBits);
    // Row-outer over each row's contiguous columns.  A product fits
    // int32 -- one-byte inputs times |w| below 2^Pw <= 2^14 (int8
    // plane halves) -- so the multiply vectorizes; the sums are int64
    // and exact, so neither changes the result.
    const std::size_t rows = static_cast<std::size_t>(rows_);
    const std::size_t cols = static_cast<std::size_t>(cols_);
    std::fill(out.begin(), out.end(), 0);
    for (std::size_t base = 0, o = 0; base < inputs.size();
         base += rows, o += cols) {
        std::int64_t *sums = out.data() + o;
        for (std::size_t r = 0; r < rows; ++r) {
            const int in = inputs[base + r];
            if (in == 0)
                continue;
            const int *w = logicalWeights_.data() + r * cols;
            for (std::size_t c = 0; c < cols; ++c)
                sums[c] += in * w[c];
        }
    }
}

std::vector<std::int64_t>
ComposedMatrixEngine::targetExact(std::span<const std::uint8_t> inputs) const
{
    PRIME_ASSERT(!logicalWeights_.empty(), "weights not programmed");
    PRIME_ASSERT(static_cast<int>(inputs.size()) == rows_,
                 "inputs=", inputs.size());
    detail::checkInputCodes(inputs, composing_.inputBits);
    std::vector<std::int64_t> out(cols_);
    for (int c = 0; c < cols_; ++c) {
        std::int64_t full = 0;
        for (int r = 0; r < rows_; ++r)
            full += static_cast<std::int64_t>(inputs[r]) *
                    logicalWeights_[static_cast<std::size_t>(r) * cols_ + c];
        out[c] = takeHighBits(full, outputShift_);
    }
    return out;
}

} // namespace prime::reram
