#include "reram/composing.hh"

#include <algorithm>
#include <cmath>

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

/** SA register saturation: signed (Po+1)-bit window. */
static std::int64_t
saturateToSa(std::int64_t code, int output_bits)
{
    const std::int64_t hi = (std::int64_t{1} << output_bits) - 1;
    const std::int64_t lo = -(std::int64_t{1} << output_bits);
    return std::clamp(code, lo, hi);
}

/**
 * Assemble the target from the four component dot products under a given
 * total shift.  Rfull = 2^((Pin+Pw)/2) HH + 2^(Pw/2) HL + 2^(Pin/2) LH
 * + LL, so component c's own shift is total_shift - m_c; a negative
 * component shift means the digital adder scales the (saturated) raw
 * code up instead.
 */
/**
 * Round-to-nearest variant of takeHighBits: the SA reference ladder is
 * offset by half an LSB, the standard sensing trick that centers the
 * conversion error instead of biasing it low.
 */
static std::int64_t
takeHighBitsRounded(std::int64_t x, int shift)
{
    if (shift <= 0)
        return x << -shift;
    return takeHighBits(x + (std::int64_t{1} << (shift - 1)), shift);
}

std::int64_t
composedAssemble(std::int64_t hh, std::int64_t hl, std::int64_t lh,
                 std::int64_t ll, const ComposingParams &p, int total_shift)
{
    struct Part
    {
        std::int64_t value;
        int magnitude;
    };
    const Part parts[4] = {
        {hh, (p.inputBits + p.weightBits) / 2},
        {hl, p.weightBits / 2},
        {lh, p.inputBits / 2},
        {ll, 0},
    };
    std::int64_t acc = 0;
    for (const Part &part : parts) {
        const int shift = total_shift - part.magnitude;
        if (shift >= 0) {
            // The SA window sits `shift` bits up; codes below it vanish
            // (half-LSB offset centers the error).
            acc += saturateToSa(takeHighBitsRounded(part.value, shift),
                                p.outputBits);
        } else {
            // Window finer than one level unit is not physical; the SA
            // digitizes at natural resolution and the precision-control
            // adder applies the up-shift digitally.
            acc += saturateToSa(part.value, p.outputBits) << -shift;
        }
    }
    return acc;
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
calibratedOutputShift(const std::vector<std::vector<int>> &weights,
                      const ComposingParams &p)
{
    PRIME_ASSERT(!weights.empty(), "empty weights");
    const int cols = static_cast<int>(weights[0].size());
    const std::int64_t max_in = (std::int64_t{1} << p.inputBits) - 1;
    std::int64_t worst = 1;
    for (int c = 0; c < cols; ++c) {
        std::int64_t bound = 0;
        for (const auto &row : weights)
            bound += max_in * std::abs(static_cast<std::int64_t>(row[c]));
        worst = std::max(worst, bound);
    }
    int bits = 0;
    while ((std::int64_t{1} << bits) <= worst)
        ++bits;
    return std::max(0, bits - p.outputBits);
}

ComposedMatrixEngine::ComposedMatrixEngine(int rows, int cols,
                                           const ComposingParams &p,
                                           const CrossbarParams &array_params)
    : rows_(rows), cols_(cols), pn_(pnForInputCount(rows)), composing_(p),
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
    PRIME_ASSERT(rows > 0 && cols > 0, "bad engine geometry");
}

void
ComposedMatrixEngine::programWeights(
    const std::vector<std::vector<int>> &weights, Rng *rng)
{
    PRIME_ASSERT(static_cast<int>(weights.size()) == rows_,
                 "weights rows=", weights.size());
    std::vector<std::vector<int>> physical(
        rows_, std::vector<int>(cols_ * 2, 0));
    for (int r = 0; r < rows_; ++r) {
        PRIME_ASSERT(static_cast<int>(weights[r].size()) == cols_,
                     "weights cols=", weights[r].size());
        for (int c = 0; c < cols_; ++c) {
            auto [wh, wl] = splitWeight(weights[r][c], composing_);
            physical[r][2 * c] = wh;
            physical[r][2 * c + 1] = wl;
        }
    }
    arrays_.programSigned(physical, rng);
    logicalWeights_ = weights;
}

void
ComposedMatrixEngine::assemble(std::span<const std::int64_t> pass_h,
                               std::span<const std::int64_t> pass_l,
                               std::span<std::int64_t> out) const
{
    for (int c = 0; c < cols_; ++c)
        out[c] = composedAssemble(pass_h[2 * c], pass_l[2 * c],
                                  pass_h[2 * c + 1], pass_l[2 * c + 1],
                                  composing_, outputShift_);
}

void
ComposedMatrixEngine::splitPhases(std::span<const int> inputs,
                                  MvmScratch &scratch) const
{
    PRIME_ASSERT(static_cast<int>(inputs.size()) == rows_,
                 "inputs=", inputs.size());
    scratch.phases.resize(2 * static_cast<std::size_t>(rows_));
    for (int r = 0; r < rows_; ++r) {
        auto [ih, il] = splitInput(inputs[r], composing_);
        scratch.phases[static_cast<std::size_t>(r)] = ih;
        scratch.phases[static_cast<std::size_t>(rows_ + r)] = il;
    }
}

void
ComposedMatrixEngine::calibrateOutputShift()
{
    PRIME_ASSERT(!logicalWeights_.empty(), "weights not programmed");
    outputShift_ = calibratedOutputShift(logicalWeights_, composing_);
}

void
ComposedMatrixEngine::mvmExact(std::span<const int> inputs,
                               std::span<std::int64_t> out,
                               MvmScratch &scratch) const
{
    splitPhases(inputs, scratch);
    PRIME_ASSERT(static_cast<int>(out.size()) == cols_,
                 "outputs=", out.size());
    const std::size_t rows = static_cast<std::size_t>(rows_);
    const std::size_t lines = 2 * static_cast<std::size_t>(cols_);
    scratch.passes.resize(2 * lines);
    const std::span<const int> phases(scratch.phases);
    const std::span<std::int64_t> passes(scratch.passes);
    // One fused pass over both input phases: of the high phase, even
    // bitlines give HH and odd LH; of the low phase, HL and LL.
    arrays_.mvmExact(phases.first(rows), phases.subspan(rows),
                     passes.first(lines), passes.subspan(lines));
    assemble(passes.first(lines), passes.subspan(lines), out);
}

void
ComposedMatrixEngine::mvmAnalog(std::span<const int> inputs,
                                std::span<std::int64_t> out,
                                MvmScratch &scratch, Rng *rng) const
{
    splitPhases(inputs, scratch);
    PRIME_ASSERT(static_cast<int>(out.size()) == cols_,
                 "outputs=", out.size());
    const std::size_t rows = static_cast<std::size_t>(rows_);
    const std::size_t lines = 2 * static_cast<std::size_t>(cols_);
    scratch.passes.resize(2 * lines);
    scratch.currents.resize(2 * lines);
    const std::span<const int> phases(scratch.phases);
    const std::span<double> current(scratch.currents);
    // One pass per input phase (high first: the RNG-ordering contract);
    // the SA digitizes each component to the nearest level-unit code
    // before the precision-control adder truncates and accumulates.
    for (std::size_t pass = 0; pass < 2; ++pass) {
        arrays_.mvmAnalog(phases.subspan(pass * rows, rows),
                          current.first(lines), current.subspan(lines),
                          rng);
        for (std::size_t i = 0; i < lines; ++i)
            scratch.passes[pass * lines + i] =
                static_cast<std::int64_t>(std::llround(current[i]));
    }
    const std::span<const std::int64_t> passes(scratch.passes);
    assemble(passes.first(lines), passes.subspan(lines), out);
}

void
ComposedMatrixEngine::mvmFull(std::span<const int> inputs,
                              std::span<std::int64_t> out) const
{
    PRIME_ASSERT(!logicalWeights_.empty(), "weights not programmed");
    PRIME_ASSERT(static_cast<int>(inputs.size()) == rows_,
                 "inputs=", inputs.size());
    PRIME_ASSERT(static_cast<int>(out.size()) == cols_,
                 "outputs=", out.size());
    std::fill(out.begin(), out.end(), 0);
    for (int c = 0; c < cols_; ++c)
        for (int r = 0; r < rows_; ++r)
            out[c] += static_cast<std::int64_t>(inputs[r]) *
                      logicalWeights_[r][c];
}

std::vector<std::int64_t>
ComposedMatrixEngine::targetExact(std::span<const int> inputs) const
{
    PRIME_ASSERT(!logicalWeights_.empty(), "weights not programmed");
    std::vector<std::int64_t> out(cols_);
    for (int c = 0; c < cols_; ++c) {
        std::int64_t full = 0;
        for (int r = 0; r < rows_; ++r)
            full += static_cast<std::int64_t>(inputs[r]) *
                    logicalWeights_[r][c];
        out[c] = takeHighBits(full, outputShift_);
    }
    return out;
}

} // namespace prime::reram
