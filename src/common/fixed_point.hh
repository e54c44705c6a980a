/**
 * @file
 * Dynamic fixed-point arithmetic (Courbariaux et al., "Low precision
 * storage for deep learning" [68] in the PRIME paper).
 *
 * A dynamic fixed-point group is a set of values sharing one scaling
 * factor 2^-fracLength; each value is an n-bit two's-complement mantissa.
 * PRIME represents NN inputs, weights and activations per layer in this
 * format (Section III-D of the paper), choosing the fraction length per
 * tensor so the largest magnitude just fits.
 */

#ifndef PRIME_COMMON_FIXED_POINT_HH
#define PRIME_COMMON_FIXED_POINT_HH

#include <cstdint>
#include <span>
#include <vector>

namespace prime {

/**
 * The shared exponent/width descriptor of a dynamic fixed-point group.
 */
struct DfxFormat
{
    /** Total mantissa bits including sign (1..32). */
    int bits = 8;
    /** Fraction length: value = mantissa * 2^-fracLength. */
    int fracLength = 0;

    /** Largest representable value. */
    double maxValue() const;
    /** Smallest (most negative) representable value. */
    double minValue() const;
    /** Quantization step 2^-fracLength. */
    double step() const;
    /** Largest positive mantissa (2^(bits-1) - 1). */
    std::int64_t maxMantissa() const;
    /** Most negative mantissa (-2^(bits-1)). */
    std::int64_t minMantissa() const;

    /**
     * Pick the fraction length so the largest |x| in @p data fits without
     * saturation (the paper's per-layer dynamic scaling).  For all-zero
     * input the format defaults to fracLength = bits - 1.
     *
     * @param saturate_fraction Courbariaux-style overflow tolerance: the
     *        format covers the (1 - saturate_fraction) magnitude
     *        quantile instead of the strict maximum, trading a few
     *        clipped outliers for a finer step (a large win at <= 4
     *        bits).  Only the quantile's binary exponent matters, so
     *        it is read from a histogram of exponents.
     */
    static DfxFormat choose(std::span<const double> data, int bits,
                            double saturate_fraction = 0.0);
};

/** Quantize one value: round-to-nearest mantissa with saturation. */
std::int64_t dfxQuantize(double x, const DfxFormat &fmt);

/** Mantissa back to real value. */
double dfxDequantize(std::int64_t mantissa, const DfxFormat &fmt);

/** Round-trip a value through the format (quantize then dequantize). */
double dfxRound(double x, const DfxFormat &fmt);

/** Round-trip a whole vector in place; returns the chosen format. */
DfxFormat dfxRoundVector(std::vector<double> &data, int bits,
                         double saturate_fraction = 0.0);

/**
 * Unsigned @p bits-bit input codes (the wordline codes of paper Sec.
 * III-D) into @p out, one per value, sharing one power-of-two scale:
 * returns the fraction length, @p bits minus the exponent of the
 * largest |value|.  Each code is round-to-nearest of value *
 * 2^fraction, clamped to [0, 2^bits - 1].
 */
int quantizeActivationCodes(std::span<const double> values, int bits,
                            std::span<std::uint8_t> out);

/**
 * Sign-magnitude weight codes into @p out, one per weight: each is
 * round-to-nearest-even of w * 2^@p frac, saturated to +-(2^bits - 1).
 * The weights must be finite.
 */
void quantizeWeightCodes(std::span<const double> weights, int frac, int bits,
                         std::span<int> out);

/**
 * 2^@p exp when that is a normal double, else 0.  A multiply by a
 * normal power of two rounds the exact product once, as std::ldexp
 * does, so x * normalPow2(e) == std::ldexp(x, e) for every x: a loop
 * that scales by one power of two multiplies instead of calling ldexp
 * per element, and falls back to ldexp where this returns 0.
 */
double normalPow2(int exp);

} // namespace prime

#endif // PRIME_COMMON_FIXED_POINT_HH
