/**
 * @file
 * Unit and property tests for dynamic fixed point (Courbariaux-style).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/fixed_point.hh"
#include "common/rng.hh"

namespace prime {
namespace {

TEST(DfxFormat, StepIsPowerOfTwo)
{
    DfxFormat fmt{8, 4};
    EXPECT_DOUBLE_EQ(fmt.step(), 1.0 / 16.0);
    fmt.fracLength = -2;
    EXPECT_DOUBLE_EQ(fmt.step(), 4.0);
}

TEST(DfxFormat, MantissaRange)
{
    DfxFormat fmt{8, 0};
    EXPECT_EQ(fmt.maxMantissa(), 127);
    EXPECT_EQ(fmt.minMantissa(), -128);
    DfxFormat narrow{3, 0};
    EXPECT_EQ(narrow.maxMantissa(), 3);
    EXPECT_EQ(narrow.minMantissa(), -4);
}

TEST(DfxFormat, ChooseCoversMaxValue)
{
    std::vector<double> data = {0.1, -0.75, 0.5};
    DfxFormat fmt = DfxFormat::choose(data, 8);
    // 0.75 must be representable without saturation.
    EXPECT_GE(fmt.maxValue(), 0.75);
    // And the format should not waste more than one integer bit.
    EXPECT_LE(fmt.maxValue(), 0.75 * 4.0);
}

TEST(DfxFormat, ChooseAllZeros)
{
    std::vector<double> data = {0.0, 0.0};
    DfxFormat fmt = DfxFormat::choose(data, 8);
    EXPECT_EQ(fmt.fracLength, 7);
}

TEST(DfxFormat, ChooseLargeValues)
{
    std::vector<double> data = {1000.0};
    DfxFormat fmt = DfxFormat::choose(data, 8);
    EXPECT_GE(fmt.maxValue(), 1000.0);
    EXPECT_LT(fmt.fracLength, 0);  // needs integer scaling
}

TEST(DfxQuantize, ExactValuesRoundTrip)
{
    DfxFormat fmt{8, 4};
    for (int m = -128; m <= 127; ++m) {
        const double x = m / 16.0;
        EXPECT_EQ(dfxQuantize(x, fmt), m) << x;
        EXPECT_DOUBLE_EQ(dfxRound(x, fmt), x);
    }
}

TEST(DfxQuantize, Saturates)
{
    DfxFormat fmt{4, 0};
    EXPECT_EQ(dfxQuantize(100.0, fmt), 7);
    EXPECT_EQ(dfxQuantize(-100.0, fmt), -8);
}

TEST(DfxQuantize, RoundsToNearest)
{
    DfxFormat fmt{8, 0};
    EXPECT_EQ(dfxQuantize(2.4, fmt), 2);
    EXPECT_EQ(dfxQuantize(2.6, fmt), 3);
    EXPECT_EQ(dfxQuantize(-2.6, fmt), -3);
}

TEST(DfxRoundVector, ErrorBoundedByHalfStep)
{
    Rng rng(11);
    std::vector<double> data(256);
    for (double &x : data)
        x = rng.gaussian(0.0, 2.0);
    std::vector<double> orig = data;
    DfxFormat fmt = dfxRoundVector(data, 8);
    for (std::size_t i = 0; i < data.size(); ++i) {
        // Saturation can only clip the very largest magnitudes; all
        // in-range values round within half a step.
        if (std::fabs(orig[i]) <= fmt.maxValue()) {
            EXPECT_LE(std::fabs(data[i] - orig[i]),
                      fmt.step() / 2 + 1e-12);
        }
    }
}

/** Property sweep: quantization error shrinks as bits grow. */
class DfxBitsSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(DfxBitsSweep, ErrorWithinOneStep)
{
    const int bits = GetParam();
    Rng rng(bits);
    std::vector<double> data(512);
    for (double &x : data)
        x = rng.uniform(-1.0, 1.0);
    std::vector<double> rounded = data;
    DfxFormat fmt = dfxRoundVector(rounded, bits);
    double worst = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i)
        worst = std::max(worst, std::fabs(data[i] - rounded[i]));
    EXPECT_LE(worst, fmt.step());
}

TEST_P(DfxBitsSweep, MonotoneImprovement)
{
    const int bits = GetParam();
    if (bits >= 16)
        return;
    Rng rng(99);
    std::vector<double> data(512);
    for (double &x : data)
        x = rng.uniform(-3.0, 3.0);

    auto rms = [&](int b) {
        std::vector<double> r = data;
        dfxRoundVector(r, b);
        double acc = 0.0;
        for (std::size_t i = 0; i < data.size(); ++i)
            acc += (data[i] - r[i]) * (data[i] - r[i]);
        return std::sqrt(acc / data.size());
    };
    EXPECT_LE(rms(bits + 1), rms(bits) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Bits, DfxBitsSweep,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 12, 16));

/**
 * The activation quantizer as PrimeSystem and InSituTrainer each wrote
 * it before quantizeActivationCodes, copied verbatim: the shared
 * function must reproduce it bit for bit.
 */
int
referenceActivationCodes(const std::vector<double> &values, int bits,
                         std::vector<std::uint8_t> &codes)
{
    double max_abs = 0.0;
    for (double v : values)
        max_abs = std::max(max_abs, std::fabs(v));
    int exp = 0;
    if (max_abs > 0.0)
        std::frexp(max_abs, &exp);
    const int in_frac = bits - exp;
    const int max_code = (1 << bits) - 1;
    codes.assign(values.size(), 0);
    for (std::size_t i = 0; i < values.size(); ++i) {
        double scaled = std::ldexp(std::max(values[i], 0.0), in_frac);
        codes[i] = static_cast<std::uint8_t>(std::clamp(
            std::nearbyint(scaled), 0.0, static_cast<double>(max_code)));
    }
    return in_frac;
}

TEST(ActivationCodes, MatchTheFormerQuantizerBitForBit)
{
    std::vector<std::vector<double>> cases = {
        std::vector<double>(17, 0.0),          // all zero
        {-1.0, -0.5, 0.25, 0.0, -3.0},         // negatives clamp to 0
        {1.0, 2.0, 0.5, 4.0, 0.125, 0.0},      // exact powers of two
        {0.9999999, 0.5, 3.9, 0.49999, 0.75},  // round up to 2^bits
        {1e-310, 4.9e-324, 0.0, -1e-310},      // denormal maximum
        {1e300, 1.0, 1e-300},                  // huge range
    };
    Rng rng(2020);
    for (int t = 0; t < 60; ++t) {
        std::vector<double> v(static_cast<std::size_t>(
            rng.uniformInt(1, 300)));
        const double scale = std::ldexp(1.0, static_cast<int>(
                                                  rng.uniformInt(-40, 40)));
        for (double &x : v) {
            switch (rng.uniformInt(0, 5)) {
              case 0:
                x = 0.0;
                break;
              case 1:  // a power of two
                x = std::ldexp(scale, static_cast<int>(
                                          rng.uniformInt(-8, 0)));
                break;
              default:
                x = rng.gaussian(0.0, scale);
            }
        }
        cases.push_back(std::move(v));
    }
    for (const int bits : {2, 4, 6, 8}) {
        for (std::size_t i = 0; i < cases.size(); ++i) {
            const std::vector<double> &v = cases[i];
            std::vector<std::uint8_t> want;
            const int want_frac = referenceActivationCodes(v, bits, want);
            std::vector<std::uint8_t> got(v.size(), 0xee);
            EXPECT_EQ(quantizeActivationCodes(v, bits, got), want_frac)
                << "bits " << bits << " case " << i;
            EXPECT_EQ(got, want) << "bits " << bits << " case " << i;
        }
    }
    // The edge cases do what their comments say.
    std::vector<std::uint8_t> codes(5);
    EXPECT_EQ(quantizeActivationCodes(std::vector<double>(5, 0.0), 6, codes),
              6);
    EXPECT_EQ(codes, std::vector<std::uint8_t>(5, 0));
    // |-3| still sets the scale: 3 < 2^2 leaves 6 - 2 fraction bits.
    EXPECT_EQ(quantizeActivationCodes(cases[1], 6, codes), 4);
    EXPECT_EQ(codes, (std::vector<std::uint8_t>{0, 0, 4, 0, 0}));
    codes.resize(1);
    EXPECT_EQ(quantizeActivationCodes(std::vector<double>{0.9999999}, 4,
                                      codes),
              4);
    EXPECT_EQ(codes[0], 15);
}

/**
 * The fraction length at its extremes, where the quantizer's one
 * power-of-two scale stops being a normal double -- 2^-1023 for a
 * maximum near DBL_MAX at 1 bit, 2^1024 and beyond for a tiny or
 * denormal maximum -- and just inside them: the codes still match the
 * per-element ldexp reference, values whose scaled form is subnormal
 * included.
 */
TEST(ActivationCodes, ExtremeFractionLengthsMatchTheFormerQuantizer)
{
    bool below_normal = false, above_normal = false;
    for (int bits = 1; bits <= 8; ++bits) {
        for (const int frac :
             {-1023, -1022, -1021, 1022, 1023, 1024, 1025, 1060}) {
            // frexp of 0.75 * 2^e gives exponent e, so frac = bits - e.
            const int e = bits - frac;
            if (e > 1024 || e < -1072)
                continue;
            const double max = std::ldexp(0.75, e);
            const std::vector<double> v = {
                max,
                std::ldexp(0.6, e - 1),
                std::ldexp(0.51, e - bits),
                std::ldexp(1.0, e - 30),
                std::numeric_limits<double>::denorm_min(),
                -max,
                0.0,
            };
            std::vector<std::uint8_t> want;
            const int want_frac = referenceActivationCodes(v, bits, want);
            EXPECT_EQ(want_frac, frac);
            std::vector<std::uint8_t> got(v.size(), 0xee);
            EXPECT_EQ(quantizeActivationCodes(v, bits, got), want_frac)
                << "bits " << bits << " frac " << frac;
            EXPECT_EQ(got, want) << "bits " << bits << " frac " << frac;
            below_normal = below_normal || frac < -1022;
            above_normal = above_normal || frac > 1023;
        }
    }
    EXPECT_TRUE(below_normal && above_normal);
    EXPECT_EQ(normalPow2(-1022), std::numeric_limits<double>::min());
    EXPECT_EQ(normalPow2(-1023), 0.0);
    EXPECT_EQ(normalPow2(1023), std::ldexp(1.0, 1023));
    EXPECT_EQ(normalPow2(1024), 0.0);
}

/** The span quantizer's code for one weight. */
int
weightCode(double w, int frac, int bits)
{
    int code = 0;
    quantizeWeightCodes(std::span<const double>(&w, 1), frac, bits,
                        std::span<int>(&code, 1));
    return code;
}

TEST(WeightCode, RoundsAndSaturatesSignMagnitude)
{
    EXPECT_EQ(weightCode(0.3, 4, 8), 5);      // 4.8 -> 5
    EXPECT_EQ(weightCode(-0.3, 4, 8), -5);
    EXPECT_EQ(weightCode(2.5 / 16, 4, 8), 2);  // ties to even
    EXPECT_EQ(weightCode(100.0, 4, 8), 255);
    EXPECT_EQ(weightCode(-100.0, 4, 8), -255);
    EXPECT_EQ(weightCode(0.0, -3, 2), 0);
}

/** One weight's code as the per-weight quantizer computed it: libm
 *  rounding of the ldexp-scaled weight, then saturation. */
int
referenceWeightCode(double w, int frac, int bits)
{
    const double max_w = static_cast<double>((1 << bits) - 1);
    return static_cast<int>(
        std::clamp(std::nearbyint(std::ldexp(w, frac)), -max_w, max_w));
}

/**
 * The span quantizer (a multiply by 2^frac and the 1.5 * 2^52 rounding
 * trick) equals the libm formulation code for code: over every width,
 * fraction lengths whose 2^frac is not a normal double (the ldexp
 * fallback), exact .5 ties of both signs, saturation and -0.0.
 */
TEST(WeightCodes, MatchScalarQuantizer)
{
    Rng rng(31);
    bool fallback_low = false, fallback_high = false;
    for (int bits = 2; bits <= 8; ++bits) {
        const int max_w = (1 << bits) - 1;
        for (const int frac : {-1100, -1074, -1060, -1023, -1022, -40, -3, 0,
                               4, 7, 52, 1023, 1024, 1030, 1100}) {
            std::vector<double> w;
            // Scaled values past the double range are left out: the
            // weights must be finite.
            auto scaled = [&](double code) {
                if (const double x = std::ldexp(code, -frac); std::isfinite(x))
                    w.push_back(x);
            };
            for (int k = -2 * max_w; k <= 2 * max_w; ++k) {
                scaled(k + 0.5);  // ties
                scaled(k);
            }
            for (int i = 0; i < 200; ++i)
                scaled(rng.uniform(-2.0 * max_w, 2.0 * max_w));
            for (const double extreme :
                 {0.0, -0.0, 1e300, -1e300,
                  std::numeric_limits<double>::max(),
                  -std::numeric_limits<double>::max(),
                  std::numeric_limits<double>::denorm_min(),
                  -std::numeric_limits<double>::denorm_min(),
                  std::numeric_limits<double>::min()})
                w.push_back(extreme);
            std::vector<int> got(w.size(), 12345);
            quantizeWeightCodes(w, frac, bits, got);
            for (std::size_t i = 0; i < w.size(); ++i)
                ASSERT_EQ(got[i], referenceWeightCode(w[i], frac, bits))
                    << "w=" << w[i] << " frac=" << frac << " bits=" << bits;
            const bool fallback = normalPow2(frac) == 0.0;
            fallback_low = fallback_low || (fallback && frac < 0);
            fallback_high = fallback_high || (fallback && frac > 0);
        }
    }
    EXPECT_TRUE(fallback_low && fallback_high);
}

/** DfxFormat::choose as it was first written, sorting a copy of the
 *  magnitudes for the kept one. */
DfxFormat
referenceChoose(std::span<const double> data, int bits,
                double saturate_fraction)
{
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
    int exp = 0;
    std::frexp(max_abs, &exp);
    fmt.fracLength = bits - 1 - exp;
    return fmt;
}

/**
 * The exponent histogram picks the format the sorted formulation does:
 * seeded mixed-sign vectors of 9 to 200k values, ties at the kept rank,
 * zeros at and below it, denormals, saturate fractions 0.01 and 0.2,
 * and the strict-maximum paths (size <= 8, saturate 0).
 */
TEST(DfxFormat, ChooseMatchesNthElementFormulation)
{
    Rng rng(57);
    std::vector<std::vector<double>> cases;
    for (const std::size_t n : {9u, 10u, 17u, 101u, 1000u, 4097u, 200000u}) {
        std::vector<double> v(n);
        const int spread = static_cast<int>(rng.uniformInt(0, 30));
        for (double &x : v)
            x = std::ldexp(rng.gaussian(), static_cast<int>(rng.uniformInt(
                                               -spread, spread)));
        cases.push_back(std::move(v));
    }
    for (const std::size_t n : {3u, 8u})
        cases.push_back(std::vector<double>(n, -0.375));
    // Ties at the kept rank, and its neighbours straddling a power of
    // two.
    {
        std::vector<double> v(100, 0.5);
        v[0] = -0.4999999;
        v[99] = 3.0;
        cases.push_back(v);
        std::vector<double> w(100, 0.25);
        for (std::size_t i = 0; i < 50; ++i)
            w[i] = -0.5;
        w[98] = std::nextafter(0.5, 0.0);
        cases.push_back(w);
    }
    // All zeros, and zeros below or at the kept rank.
    cases.push_back(std::vector<double>(50, 0.0));
    {
        std::vector<double> v(100, 0.0);
        v[7] = -0.0;
        v[99] = 12.0;
        cases.push_back(v);
        std::vector<double> w(100, 0.0);
        for (std::size_t i = 0; i < 5; ++i)
            w[i] = 1.0 + i;
        cases.push_back(w);
        std::vector<double> u(100, 0.0);
        for (std::size_t i = 0; i < 30; ++i)
            u[i] = 0.1 * (i + 1);
        cases.push_back(u);
    }
    // Denormals, alone and among normals.
    {
        const double tiny = std::numeric_limits<double>::denorm_min();
        std::vector<double> v;
        for (int i = 0; i < 60; ++i)
            v.push_back((i % 2 ? -1.0 : 1.0) * std::ldexp(tiny, i % 52));
        cases.push_back(v);
        v.resize(120, std::numeric_limits<double>::min());
        cases.push_back(v);
        v.resize(200, 0.0);
        cases.push_back(v);
    }
    std::size_t compared = 0;
    for (const std::vector<double> &data : cases)
        for (const double sf : {0.0, 0.01, 0.2})
            for (const int bits : {1, 4, 8, 32}) {
                const DfxFormat want = referenceChoose(data, bits, sf);
                const DfxFormat got = DfxFormat::choose(data, bits, sf);
                EXPECT_EQ(got.bits, want.bits);
                EXPECT_EQ(got.fracLength, want.fracLength)
                    << "size " << data.size() << " sf " << sf << " bits "
                    << bits;
                ++compared;
            }
    EXPECT_EQ(compared, cases.size() * 12);
}

} // namespace
} // namespace prime
