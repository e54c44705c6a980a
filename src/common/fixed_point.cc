#include "common/fixed_point.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/logging.hh"

namespace prime {

double
DfxFormat::step() const
{
    return std::ldexp(1.0, -fracLength);
}

std::int64_t
DfxFormat::maxMantissa() const
{
    return (std::int64_t{1} << (bits - 1)) - 1;
}

std::int64_t
DfxFormat::minMantissa() const
{
    return -(std::int64_t{1} << (bits - 1));
}

double
DfxFormat::maxValue() const
{
    return static_cast<double>(maxMantissa()) * step();
}

double
DfxFormat::minValue() const
{
    return static_cast<double>(minMantissa()) * step();
}

DfxFormat
DfxFormat::choose(std::span<const double> data, int bits,
                  double saturate_fraction)
{
    PRIME_ASSERT(bits >= 1 && bits <= 32, "bits=", bits);
    PRIME_ASSERT(saturate_fraction >= 0.0 && saturate_fraction < 0.5,
                 "saturate_fraction=", saturate_fraction);
    double max_abs = 0.0;
    if (saturate_fraction > 0.0 && data.size() > 8) {
        std::vector<double> mags(data.begin(), data.end());
        for (double &m : mags)
            m = std::fabs(m);
        const std::size_t keep = static_cast<std::size_t>(
            (1.0 - saturate_fraction) * (mags.size() - 1));
        std::nth_element(mags.begin(), mags.begin() + keep, mags.end());
        max_abs = mags[keep];
    } else {
        for (double x : data)
            max_abs = std::max(max_abs, std::fabs(x));
    }

    DfxFormat fmt;
    fmt.bits = bits;
    if (max_abs == 0.0) {
        fmt.fracLength = bits - 1;
        return fmt;
    }
    // Integer bits needed to hold max_abs with a sign bit; the fraction
    // length is whatever is left.  frexp gives max_abs = m * 2^e with
    // m in [0.5, 1), so values below 2^e need e integer bits.
    int exp = 0;
    std::frexp(max_abs, &exp);
    fmt.fracLength = bits - 1 - exp;
    return fmt;
}

std::int64_t
dfxQuantize(double x, const DfxFormat &fmt)
{
    double scaled = std::ldexp(x, fmt.fracLength);
    double rounded = std::nearbyint(scaled);
    double lo = static_cast<double>(fmt.minMantissa());
    double hi = static_cast<double>(fmt.maxMantissa());
    rounded = std::clamp(rounded, lo, hi);
    return static_cast<std::int64_t>(rounded);
}

double
dfxDequantize(std::int64_t mantissa, const DfxFormat &fmt)
{
    return std::ldexp(static_cast<double>(mantissa), -fmt.fracLength);
}

double
dfxRound(double x, const DfxFormat &fmt)
{
    return dfxDequantize(dfxQuantize(x, fmt), fmt);
}

DfxFormat
dfxRoundVector(std::vector<double> &data, int bits,
               double saturate_fraction)
{
    DfxFormat fmt = DfxFormat::choose(data, bits, saturate_fraction);
    for (double &x : data)
        x = dfxRound(x, fmt);
    return fmt;
}

int
quantizeActivationCodes(std::span<const double> values, int bits,
                        std::span<std::uint8_t> out)
{
    PRIME_ASSERT(bits >= 1 && bits <= 8, "bits=", bits);
    PRIME_ASSERT(out.size() == values.size(),
                 "codes ", out.size(), " vs values ", values.size());
    double max_abs = 0.0;
    for (double v : values)
        max_abs = std::max(max_abs, std::fabs(v));
    int exp = 0;
    if (max_abs > 0.0)
        std::frexp(max_abs, &exp);
    const int frac = bits - exp;
    const double max_code = static_cast<double>((1 << bits) - 1);
    // Round to nearest even without a libm call: below 2^52, adding
    // and subtracting 2^52 rounds exactly as std::nearbyint does, and a
    // scaled value past 512 clamps to the top code either way.
    constexpr double kRound = 4503599627370496.0;  // 2^52
    auto quantize = [&](auto scale) {
        for (std::size_t i = 0; i < values.size(); ++i) {
            const double scaled =
                std::min(scale(std::max(values[i], 0.0)), 512.0);
            out[i] = static_cast<std::uint8_t>(
                std::clamp((scaled + kRound) - kRound, 0.0, max_code));
        }
    };
    if (const double pow2 = normalPow2(frac); pow2 != 0.0)
        quantize([pow2](double v) { return v * pow2; });
    else
        quantize([frac](double v) { return std::ldexp(v, frac); });
    return frac;
}

double
normalPow2(int exp)
{
    using limits = std::numeric_limits<double>;
    return exp >= limits::min_exponent - 1 && exp < limits::max_exponent
               ? std::ldexp(1.0, exp)
               : 0.0;
}

int
quantizeWeightCode(double w, int frac, int bits)
{
    const double max_w = static_cast<double>((1 << bits) - 1);
    return static_cast<int>(
        std::clamp(std::nearbyint(std::ldexp(w, frac)), -max_w, max_w));
}

} // namespace prime
