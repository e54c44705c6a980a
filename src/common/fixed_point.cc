#include "common/fixed_point.hh"

#include <algorithm>
#include <array>
#include <bit>
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

namespace {

/**
 * Bucket of |x| by binary exponent, in magnitude order: 0 for zero, 64
 * minus the leading-zero count of the significand (1..52) for a
 * denormal, and the biased exponent plus 52 (53..2099) for a normal
 * value -- so a nonzero finite x has frexp exponent bucket - 1074.  Inf
 * and NaN land in the top bucket, 2099.
 */
int
exponentBucket(double x)
{
    const std::uint64_t bits =
        std::bit_cast<std::uint64_t>(x) & ~(std::uint64_t{1} << 63);
    const int field = static_cast<int>(bits >> 52);
    return field != 0 ? field + 52 : static_cast<int>(std::bit_width(bits));
}

constexpr int kExponentBuckets = 2100;
constexpr int kBucketBias = 1074;

} // namespace

DfxFormat
DfxFormat::choose(std::span<const double> data, int bits,
                  double saturate_fraction)
{
    PRIME_ASSERT(bits >= 1 && bits <= 32, "bits=", bits);
    PRIME_ASSERT(saturate_fraction >= 0.0 && saturate_fraction < 0.5,
                 "saturate_fraction=", saturate_fraction);
    DfxFormat fmt;
    fmt.bits = bits;
    // The format only needs the binary exponent of the covered
    // magnitude, so a histogram of exponents stands in for sorting
    // magnitudes: the bucket holding the rank-keep magnitude is the
    // first whose running count passes keep.
    int bucket = 0;
    if (saturate_fraction > 0.0 && data.size() > 8) {
        const std::size_t keep = static_cast<std::size_t>(
            (1.0 - saturate_fraction) * (data.size() - 1));
        std::array<std::size_t, kExponentBuckets> counts{};
        for (double x : data)
            ++counts[static_cast<std::size_t>(exponentBucket(x))];
        for (std::size_t below = counts[0]; below <= keep;
             below += counts[static_cast<std::size_t>(bucket)])
            ++bucket;
    } else {
        double max_abs = 0.0;
        for (double x : data)
            max_abs = std::max(max_abs, std::fabs(x));
        bucket = exponentBucket(max_abs);
    }

    if (bucket == 0) {
        fmt.fracLength = bits - 1;
        return fmt;
    }
    // Integer bits needed to hold the magnitude with a sign bit; the
    // fraction length is whatever is left.  frexp's exponent e has the
    // magnitude below 2^e, so it needs e integer bits.
    fmt.fracLength = bits - 1 - (bucket - kBucketBias);
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

void
quantizeWeightCodes(std::span<const double> weights, int frac, int bits,
                    std::span<int> out)
{
    PRIME_ASSERT(bits >= 1 && bits <= 30, "bits=", bits);
    PRIME_ASSERT(out.size() == weights.size(),
                 "codes ", out.size(), " vs weights ", weights.size());
    const double max_w = static_cast<double>((1 << bits) - 1);
    // Round to nearest even without a libm call: for |v| <= 2^51,
    // adding and subtracting 1.5 * 2^52 rounds exactly as std::nearbyint
    // does.  Clamping first gives what clamping the rounded value gives
    // (the bounds are integers) and keeps v in that range.
    constexpr double kRound = 6755399441055744.0;  // 1.5 * 2^52
    auto quantize = [&](auto scale) {
        for (std::size_t i = 0; i < weights.size(); ++i) {
            const double v = std::clamp(scale(weights[i]), -max_w, max_w);
            out[i] = static_cast<int>((v + kRound) - kRound);
        }
    };
    if (const double pow2 = normalPow2(frac); pow2 != 0.0)
        quantize([pow2](double w) { return w * pow2; });
    else
        quantize([frac](double w) { return std::ldexp(w, frac); });
}

} // namespace prime
