/**
 * @file
 * Input & synapse composing scheme tests (Section III-D): splitting,
 * SA truncation, the bounded-error property of the HH/HL/LH assembly,
 * and the crossbar-backed engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "reram/composing.hh"

namespace prime::reram {
namespace {

/** @p rows as one row-major block. */
std::vector<int>
flat(const std::vector<std::vector<int>> &rows)
{
    std::vector<int> out;
    for (const std::vector<int> &row : rows)
        out.insert(out.end(), row.begin(), row.end());
    return out;
}

TEST(PnForInputCount, PowersOfTwo)
{
    EXPECT_EQ(pnForInputCount(1), 0);
    EXPECT_EQ(pnForInputCount(2), 1);
    EXPECT_EQ(pnForInputCount(3), 2);
    EXPECT_EQ(pnForInputCount(256), 8);
    EXPECT_EQ(pnForInputCount(257), 9);
}

/**
 * The SA assembly rule written out per part with integer division, as
 * the composing scheme states it: part c's shift is total - m_c; a
 * positive shift takes floor((x + 2^(shift-1)) / 2^shift) (half-LSB
 * rounding), zero keeps x, a negative one keeps x and scales the
 * saturated code up by 2^-shift; every code saturates at the signed
 * (Po+1)-bit register.
 */
std::int64_t
referenceAssemble(const std::int64_t (&parts)[4], const ComposingParams &p,
                  int total_shift)
{
    const int magnitude[4] = {(p.inputBits + p.weightBits) / 2,
                              p.weightBits / 2, p.inputBits / 2, 0};
    const std::int64_t hi = (std::int64_t{1} << p.outputBits) - 1;
    const std::int64_t lo = -(std::int64_t{1} << p.outputBits);
    std::int64_t acc = 0;
    for (int i = 0; i < 4; ++i) {
        const int shift = total_shift - magnitude[i];
        std::int64_t code = parts[i];
        if (shift > 0) {
            const std::int64_t d = std::int64_t{1} << shift;
            const std::int64_t x = code + d / 2;
            code = x >= 0 ? x / d : -((-x + d - 1) / d);
        }
        code = std::min(std::max(code, lo), hi);
        if (shift < 0)
            code *= std::int64_t{1} << -shift;
        acc += code;
    }
    return acc;
}

/** composedAssemble (and so every engine's assembly) against the
 *  per-part reference, across windows finer than one level unit,
 *  exactly at it and far above it. */
TEST(ComposedAssemble, MatchesPerPartReference)
{
    Rng rng(404);
    for (const int out_bits : {1, 6, 8}) {
        ComposingParams p;
        p.outputBits = out_bits;
        for (int total = -3; total <= 30; ++total) {
            for (int trial = 0; trial < 200; ++trial) {
                std::int64_t parts[4];
                for (std::int64_t &v : parts)
                    v = rng.uniformInt(-(1 << 22), 1 << 22) >>
                        rng.uniformInt(0, 22);
                EXPECT_EQ(composedAssemble(parts[0], parts[1], parts[2],
                                           parts[3], p, total),
                          referenceAssemble(parts, p, total))
                    << "Po " << out_bits << " shift " << total;
            }
        }
    }
}

TEST(SplitInput, RecomposesExactly)
{
    ComposingParams p;
    for (int v = 0; v < 64; ++v) {
        auto [hi, lo] = splitInput(v, p);
        EXPECT_EQ((hi << p.inputPhaseBits) + lo, v);
        EXPECT_LT(hi, 8);
        EXPECT_LT(lo, 8);
    }
}

TEST(SplitWeight, RecomposesWithSign)
{
    ComposingParams p;
    for (int v = -255; v <= 255; ++v) {
        auto [hi, lo] = splitWeight(v, p);
        EXPECT_EQ(hi * (1 << p.cellBits) + lo, v) << v;
        EXPECT_LE(std::abs(hi), 15);
        EXPECT_LE(std::abs(lo), 15);
        // Both parts carry the sign so each can live in the pos or neg
        // crossbar consistently.
        if (v > 0) {
            EXPECT_GE(hi, 0);
            EXPECT_GE(lo, 0);
        }
        if (v < 0) {
            EXPECT_LE(hi, 0);
            EXPECT_LE(lo, 0);
        }
    }
}

TEST(TakeHighBits, FloorSemantics)
{
    EXPECT_EQ(takeHighBits(255, 4), 15);
    EXPECT_EQ(takeHighBits(-1, 4), -1);   // floor(-1/16) = -1
    EXPECT_EQ(takeHighBits(-16, 4), -1);
    EXPECT_EQ(takeHighBits(-17, 4), -2);
    EXPECT_EQ(takeHighBits(5, 0), 5);
    EXPECT_EQ(takeHighBits(5, -2), 20);  // negative shift = scale up
}

TEST(ComposedTarget, MatchesDirectComputation)
{
    ComposingParams p;
    std::vector<int> in = {63, 0, 17, 44};
    std::vector<int> w = {255, -255, 100, -3};
    std::int64_t full = 0;
    for (int i = 0; i < 4; ++i)
        full += static_cast<std::int64_t>(in[i]) * w[i];
    // PN for 4 inputs is 2; shift = 6 + 8 + 2 - 6 = 10.
    EXPECT_EQ(composedTargetExact(in, w, p), full >> 10);
}

/** The paper's key property: composed output within a few ULP of the
 *  exact shifted result. */
TEST(ComposedApprox, BoundedError)
{
    ComposingParams p;
    Rng rng(77);
    for (int trial = 0; trial < 500; ++trial) {
        const int n = static_cast<int>(rng.uniformInt(1, 256));
        std::vector<int> in(n), w(n);
        for (int i = 0; i < n; ++i) {
            in[i] = static_cast<int>(rng.uniformInt(0, 63));
            w[i] = static_cast<int>(rng.uniformInt(-255, 255));
        }
        const std::int64_t target = composedTargetExact(in, w, p);
        const std::int64_t approx = composedApprox(in, w, p);
        EXPECT_LE(std::llabs(approx - target), 4);
    }
}

TEST(ComposedApprox, ExactWhenLowPartsVanish)
{
    ComposingParams p;
    // Inputs and weights that are multiples of the phase granularity
    // have empty low parts, so HH alone carries everything: the only
    // error is the shared floor.
    std::vector<int> in = {8, 16, 56, 0};
    std::vector<int> w = {16, -240, 32, 0};
    EXPECT_NEAR(static_cast<double>(composedApprox(in, w, p)),
                static_cast<double>(composedTargetExact(in, w, p)), 1.0);
}

TEST(ComposingParams, ConsistencyChecks)
{
    ComposingParams p;
    EXPECT_TRUE(p.consistent());
    p.inputPhaseBits = 2;  // 2*2 != 6
    EXPECT_FALSE(p.consistent());
}

TEST(ComposedMatrixEngine, MatchesIntegerModel)
{
    ComposingParams cp;
    CrossbarParams xp;
    Rng rng(5);
    const int rows = 48, cols = 12;
    ComposedMatrixEngine engine(rows, cols, cp, xp);
    std::vector<std::vector<int>> w(rows, std::vector<int>(cols));
    for (auto &r : w)
        for (int &v : r)
            v = static_cast<int>(rng.uniformInt(-255, 255));
    engine.programWeights(flat(w));

    std::vector<std::uint8_t> in(rows);
    for (std::uint8_t &v : in)
        v = static_cast<std::uint8_t>(rng.uniformInt(0, 63));

    ComposedMatrixEngine::MvmScratch scratch;
    std::vector<std::int64_t> hw(cols);
    engine.mvmExact(in, hw, scratch);
    for (int c = 0; c < cols; ++c) {
        std::vector<int> col(rows);
        for (int r = 0; r < rows; ++r)
            col[r] = w[r][c];
        EXPECT_EQ(hw[c],
                  composedApprox(std::vector<int>(in.begin(), in.end()),
                                 col, cp))
            << "col " << c;
    }
}

TEST(ComposedMatrixEngine, TargetWithinBound)
{
    ComposingParams cp;
    CrossbarParams xp;
    Rng rng(6);
    ComposedMatrixEngine engine(100, 8, cp, xp);
    std::vector<std::vector<int>> w(100, std::vector<int>(8));
    for (auto &r : w)
        for (int &v : r)
            v = static_cast<int>(rng.uniformInt(-255, 255));
    engine.programWeights(flat(w));
    std::vector<std::uint8_t> in(100);
    for (std::uint8_t &v : in)
        v = static_cast<std::uint8_t>(rng.uniformInt(0, 63));

    ComposedMatrixEngine::MvmScratch scratch;
    std::vector<std::int64_t> hw(8);
    engine.mvmExact(in, hw, scratch);
    auto target = engine.targetExact(in);
    for (int c = 0; c < 8; ++c)
        EXPECT_LE(std::llabs(hw[c] - target[c]), 4);
}

/** targetExact checks its inputs as the MVMs do: a short span or an
 *  out-of-range code dies instead of reading past the span. */
TEST(ComposedMatrixEngine, TargetExactRejectsBadInputs)
{
    ComposedMatrixEngine engine(8, 2, ComposingParams{}, CrossbarParams{});
    engine.programWeights(std::vector<int>(16, 1));
    const std::vector<std::uint8_t> short_in(7, 1), too_big(8, 64);
    EXPECT_DEATH(engine.targetExact(short_in), "inputs");
    EXPECT_DEATH(engine.targetExact(too_big), "input level");
}

TEST(ComposedMatrixEngine, AnalogTracksExactWithIdealDevices)
{
    ComposingParams cp;
    CrossbarParams xp;
    Rng rng(7);
    ComposedMatrixEngine engine(64, 6, cp, xp);
    std::vector<std::vector<int>> w(64, std::vector<int>(6));
    for (auto &r : w)
        for (int &v : r)
            v = static_cast<int>(rng.uniformInt(-255, 255));
    engine.programWeights(flat(w));  // ideal
    std::vector<std::uint8_t> in(64);
    for (std::uint8_t &v : in)
        v = static_cast<std::uint8_t>(rng.uniformInt(0, 63));
    ComposedMatrixEngine::MvmScratch scratch;
    std::vector<std::int64_t> analog(6), exact(6);
    engine.mvmAnalog(in, analog, scratch);
    engine.mvmExact(in, exact, scratch);
    EXPECT_EQ(analog, exact);
}

TEST(ComposedMatrixEngine, ProgrammingVariationStaysClose)
{
    ComposingParams cp;
    CrossbarParams xp;
    xp.device.programVariation = 0.01;
    Rng rng(8);
    ComposedMatrixEngine engine(128, 4, cp, xp);
    std::vector<std::vector<int>> w(128, std::vector<int>(4));
    for (auto &r : w)
        for (int &v : r)
            v = static_cast<int>(rng.uniformInt(-255, 255));
    engine.programWeights(flat(w), &rng);  // noisy programming
    std::vector<std::uint8_t> in(128);
    for (std::uint8_t &v : in)
        v = static_cast<std::uint8_t>(rng.uniformInt(0, 63));
    ComposedMatrixEngine::MvmScratch scratch;
    std::vector<std::int64_t> noisy(4), ideal(4);
    engine.mvmAnalog(in, noisy, scratch, nullptr);
    engine.mvmExact(in, ideal, scratch);
    for (int c = 0; c < 4; ++c)
        EXPECT_NEAR(static_cast<double>(noisy[c]),
                    static_cast<double>(ideal[c]),
                    std::max<double>(4.0,
                                     0.1 * std::abs(ideal[c]) + 4.0));
}

/** Bit-width sweep: the error bound holds for other configurations. */
struct ComposingConfig
{
    int in, phase, w, cell, out;
};

class ComposingSweep : public ::testing::TestWithParam<ComposingConfig>
{
};

TEST_P(ComposingSweep, BoundHolds)
{
    const ComposingConfig cfg = GetParam();
    ComposingParams p;
    p.inputBits = cfg.in;
    p.inputPhaseBits = cfg.phase;
    p.weightBits = cfg.w;
    p.cellBits = cfg.cell;
    p.outputBits = cfg.out;
    ASSERT_TRUE(p.consistent());

    Rng rng(cfg.in * 100 + cfg.w);
    for (int trial = 0; trial < 100; ++trial) {
        const int n = static_cast<int>(rng.uniformInt(1, 64));
        std::vector<int> in(n), w(n);
        for (int i = 0; i < n; ++i) {
            in[i] = static_cast<int>(
                rng.uniformInt(0, (1 << p.inputBits) - 1));
            w[i] = static_cast<int>(
                rng.uniformInt(-((1 << p.weightBits) - 1),
                               (1 << p.weightBits) - 1));
        }
        const std::int64_t target = composedTargetExact(in, w, p);
        const std::int64_t approx = composedApprox(in, w, p);
        EXPECT_LE(std::llabs(approx - target), 4);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ComposingSweep,
    ::testing::Values(ComposingConfig{6, 3, 8, 4, 6},
                      ComposingConfig{4, 2, 8, 4, 6},
                      ComposingConfig{6, 3, 6, 3, 6},
                      ComposingConfig{8, 4, 8, 4, 8},
                      ComposingConfig{2, 1, 2, 1, 2},
                      ComposingConfig{4, 2, 4, 2, 4}));

TEST(Composing, OutputBits8KeepsLlTerm)
{
    // Regression guard: at Po = 8 the LL partial product must stay in
    // the assembly.  Under the full-scale shift its window hi_{Po-8}
    // is hi_0 (the header's "empty with default parameters" note), but
    // a calibrated SA window gives LL real bits -- a datapath that
    // dropped the term outright would zero out low-phase-only inputs
    // against low-cell-only weights.
    ComposingParams p;
    p.inputBits = 8;
    p.inputPhaseBits = 4;
    p.weightBits = 8;
    p.cellBits = 4;
    p.outputBits = 8;
    ASSERT_TRUE(p.consistent());

    // Direct assembly: only the LL component nonzero, window at 2^8.
    EXPECT_EQ(composedAssemble(0, 0, 0, 512, p, 8), 2);

    // Inputs below 2^(Pin/2) and weights below 2^(Pw/2) make the HH,
    // HL and LH partials vanish (high phase and high cell are zero),
    // so everything the composed path produces flows through LL.
    const int n = 32;
    Rng rng(77);
    std::vector<int> in(n), w(n);
    for (int i = 0; i < n; ++i) {
        in[i] = static_cast<int>(rng.uniformInt(1, 15));
        w[i] = static_cast<int>(rng.uniformInt(1, 15));
    }
    const int shift = calibratedOutputShift(w, 1, p);
    std::int64_t full = 0;
    for (int i = 0; i < n; ++i)
        full += static_cast<std::int64_t>(in[i]) * w[i];
    const std::int64_t target = takeHighBits(full, shift);
    const std::int64_t approx = composedApproxShifted(in, w, p, shift);
    ASSERT_GT(target, 0);
    EXPECT_GT(approx, 0) << "LL term dropped from the Po=8 assembly";
    EXPECT_LE(std::llabs(approx - target), 4);
}

TEST(ComposedMatrixEngine, Int32AssemblyMatchesInt64AtExtremeCodes)
{
    // The exact MVM assembles in int32 up to kInt32AssemblyRows rows and
    // in int64 past them; either must equal the int64 reference
    // assembly (composedApproxShifted) bit for bit.  Extreme codes: max
    // inputs against all-+max, all--max and alternating weight columns,
    // at the paper's parts and at the widest legal ones (4-bit phases,
    // 7-bit cells, 8-bit SA), under the default, a saturating (0), an
    // up-shifting (-2) and the calibrated SA window.
    ComposingParams widest;
    widest.inputBits = 8;
    widest.inputPhaseBits = 4;
    widest.weightBits = 14;
    widest.cellBits = 7;
    widest.outputBits = 8;
    ASSERT_EQ(kInt32AssemblyRows, 16384);
    for (const ComposingParams &cp : {ComposingParams{}, widest}) {
        const int max_w = (1 << cp.weightBits) - 1;
        const int max_in = (1 << cp.inputBits) - 1;
        for (const int rows : {1, 25, 256, kInt32AssemblyRows,
                               kInt32AssemblyRows + 1}) {
            SCOPED_TRACE("rows=" + std::to_string(rows) + " weightBits=" +
                         std::to_string(cp.weightBits));
            constexpr int kCols = 3;
            std::vector<std::vector<int>> w(
                static_cast<std::size_t>(rows), std::vector<int>(kCols));
            for (int r = 0; r < rows; ++r) {
                std::vector<int> &row = w[static_cast<std::size_t>(r)];
                row = {max_w, -max_w, r % 2 ? -max_w : max_w};
            }
            ComposedMatrixEngine engine(rows, kCols, cp, CrossbarParams{});
            engine.programWeights(flat(w));
            const std::vector<std::uint8_t> all_max(
                static_cast<std::size_t>(rows),
                static_cast<std::uint8_t>(max_in));
            std::vector<std::uint8_t> every_other = all_max;
            for (std::size_t r = 1; r < every_other.size(); r += 2)
                every_other[r] = 0;
            ComposedMatrixEngine::MvmScratch scratch;
            std::vector<std::int64_t> out(kCols);
            for (const int shift :
                 {defaultOutputShift(cp, rows), 0, -2,
                  calibratedOutputShift(flat(w), kCols, cp)}) {
                engine.setOutputShift(shift);
                for (const std::vector<std::uint8_t> *in :
                     std::vector<const std::vector<std::uint8_t> *>{
                         &all_max, &every_other}) {
                    engine.mvmExact(*in, out, scratch);
                    const std::vector<int> inputs(in->begin(), in->end());
                    for (int c = 0; c < kCols; ++c) {
                        std::vector<int> col(static_cast<std::size_t>(rows));
                        for (int r = 0; r < rows; ++r)
                            col[static_cast<std::size_t>(r)] =
                                w[static_cast<std::size_t>(r)]
                                 [static_cast<std::size_t>(c)];
                        ASSERT_EQ(out[static_cast<std::size_t>(c)],
                                  composedApproxShifted(inputs, col, cp,
                                                        shift))
                            << "shift " << shift << " col " << c;
                    }
                }
            }
        }
    }
}

/**
 * One call over M vectors equals M single calls on every path: the
 * exact kernel (one batched pass, assembled at once, on both assembly
 * widths), the untruncated mvmFull, and the analog path with read
 * noise, where equal-seeded Rngs show the batch draws in the order the
 * single calls draw (the streams also end in the same state).  Each
 * call gets exact-size heap buffers, so an overread trips ASan.
 */
TEST(ComposedMatrixEngine, BatchEqualsSingleCalls)
{
    const ComposingParams cp;
    CrossbarParams xp;
    xp.readNoiseSigma = 0.01;
    Rng rng(41);
    for (const auto &[rows, cols] :
         {std::pair{25, 5}, std::pair{3, 17}, std::pair{257, 70}}) {
        ComposedMatrixEngine engine(rows, cols, cp, xp);
        std::vector<std::vector<int>> w(static_cast<std::size_t>(rows),
                                        std::vector<int>(
                                            static_cast<std::size_t>(cols)));
        for (auto &row : w)
            for (int &v : row)
                v = static_cast<int>(rng.uniformInt(-255, 255));
        engine.programWeights(flat(w), &rng);
        const std::size_t n_rows = static_cast<std::size_t>(rows);
        const std::size_t n_cols = static_cast<std::size_t>(cols);
        // The calibrated window assembles in int32, a 45-bit one in int64.
        for (const int shift : {engine.outputShift(), 45}) {
            engine.setOutputShift(shift);
            for (const std::size_t m : {1u, 2u, 5u, 17u}) {
                const std::string where = std::to_string(m) + " x " +
                                          std::to_string(rows) + "x" +
                                          std::to_string(cols) + " shift " +
                                          std::to_string(shift);
                std::vector<std::uint8_t> in(m * n_rows);
                for (std::uint8_t &v : in)
                    v = static_cast<std::uint8_t>(rng.uniformInt(0, 63));
                auto offset = [&](std::size_t v) {
                    return static_cast<std::ptrdiff_t>(v * n_cols);
                };
                auto vector_of = [&](std::size_t v) {
                    return std::vector<std::uint8_t>(
                        in.begin() + static_cast<std::ptrdiff_t>(v * n_rows),
                        in.begin() +
                            static_cast<std::ptrdiff_t>((v + 1) * n_rows));
                };
                ComposedMatrixEngine::MvmScratch scratch;
                std::vector<std::int64_t> batch(m * n_cols, -1);
                std::vector<std::int64_t> single(n_cols, -2);

                engine.mvmExact(in, batch, scratch);
                for (std::size_t v = 0; v < m; ++v) {
                    engine.mvmExact(vector_of(v), single, scratch);
                    EXPECT_TRUE(std::equal(single.begin(), single.end(),
                                           batch.begin() + offset(v)))
                        << "exact " << where << " vector " << v;
                }

                engine.mvmFull(in, batch);
                for (std::size_t v = 0; v < m; ++v) {
                    engine.mvmFull(vector_of(v), single);
                    EXPECT_TRUE(std::equal(single.begin(), single.end(),
                                           batch.begin() + offset(v)))
                        << "full " << where << " vector " << v;
                }

                Rng batch_noise(7), single_noise(7);
                engine.mvmAnalog(in, batch, scratch, &batch_noise);
                for (std::size_t v = 0; v < m; ++v) {
                    engine.mvmAnalog(vector_of(v), single, scratch,
                                     &single_noise);
                    EXPECT_TRUE(std::equal(single.begin(), single.end(),
                                           batch.begin() + offset(v)))
                        << "analog " << where << " vector " << v;
                }
                EXPECT_EQ(batch_noise.engine()(), single_noise.engine()())
                    << where;
            }
        }
    }
}

TEST(ComposedMatrixEngine, BatchRejectsMismatchedSizes)
{
    ComposedMatrixEngine engine(4, 3, ComposingParams{}, CrossbarParams{});
    engine.programWeights(flat(std::vector<std::vector<int>>(
        4, std::vector<int>{1, -2, 3})));
    ComposedMatrixEngine::MvmScratch scratch;
    const std::vector<std::uint8_t> two(8, 1), ragged(7, 1), none;
    std::vector<std::int64_t> out2(6), out1(3);
    EXPECT_DEATH(engine.mvmExact(ragged, out2, scratch), "inputs");
    EXPECT_DEATH(engine.mvmExact(none, {}, scratch), "inputs");
    EXPECT_DEATH(engine.mvmExact(two, out1, scratch), "outputs");
    EXPECT_DEATH(engine.mvmAnalog(two, out1, scratch), "outputs");
    EXPECT_DEATH(engine.mvmFull(two, out1), "outputs");
}

} // namespace
} // namespace prime::reram
