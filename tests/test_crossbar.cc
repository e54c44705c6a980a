/**
 * @file
 * Crossbar MVM tests: exact integer semantics, analog fidelity, the
 * differential pos/neg pair, and concurrent reads of a programmed
 * array.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "reram/composing.hh"
#include "reram/crossbar.hh"

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

CrossbarParams
smallParams(int rows, int cols)
{
    CrossbarParams p;
    p.rows = rows;
    p.cols = cols;
    p.cellBits = 4;
    p.inputBits = 3;
    return p;
}

std::vector<std::vector<int>>
randomLevels(int rows, int cols, int max_level, Rng &rng)
{
    std::vector<std::vector<int>> levels(rows, std::vector<int>(cols));
    for (auto &row : levels)
        for (int &v : row)
            v = static_cast<int>(rng.uniformInt(0, max_level));
    return levels;
}

/**
 * The four-pass oracle of a pair's exact MVM: each array run on its
 * own, then subtracted (what the fused signed-plane kernel replaces).
 */
std::vector<std::int64_t>
fourPassExact(const DifferentialPair &pair,
              const std::vector<std::uint8_t> &in)
{
    const std::size_t n =
        static_cast<std::size_t>(pair.positive().params().cols);
    std::vector<std::int64_t> out(n), neg(n);
    pair.positive().mvmExact(in, out);
    pair.negative().mvmExact(in, neg);
    for (std::size_t i = 0; i < n; ++i)
        out[i] -= neg[i];
    return out;
}

/** The pair's fused kernel on one high and one low phase -- two phase
 *  vectors in one exact-size heap buffer, so a kernel that read past
 *  the low phase would trip ASan -- split into {pass_h, pass_l}. */
std::pair<std::vector<std::int64_t>, std::vector<std::int64_t>>
fusedExact(const DifferentialPair &pair,
           const std::vector<std::uint8_t> &high,
           const std::vector<std::uint8_t> &low)
{
    std::vector<std::uint8_t> phases(high);
    phases.insert(phases.end(), low.begin(), low.end());
    const std::size_t n =
        static_cast<std::size_t>(pair.positive().params().cols);
    std::vector<std::int64_t> passes(2 * n, -7);
    pair.mvmExact(phases, passes);
    return {std::vector<std::int64_t>(passes.begin(), passes.begin() + n),
            std::vector<std::int64_t>(passes.begin() + n, passes.end())};
}

TEST(Crossbar, MvmExactMatchesReference)
{
    Rng rng(1);
    Crossbar xbar(smallParams(16, 8));
    auto levels = randomLevels(16, 8, 15, rng);
    xbar.programLevels(levels);
    std::vector<std::uint8_t> in(16);
    for (std::uint8_t &v : in)
        v = static_cast<std::uint8_t>(rng.uniformInt(0, 7));

    std::vector<std::int64_t> out(8);
    xbar.mvmExact(in, out);
    for (int c = 0; c < 8; ++c) {
        std::int64_t expect = 0;
        for (int r = 0; r < 16; ++r)
            expect += static_cast<std::int64_t>(in[r]) * levels[r][c];
        EXPECT_EQ(out[c], expect) << "col " << c;
    }
}

TEST(Crossbar, AnalogMatchesExactWithIdealDevices)
{
    Rng rng(2);
    CrossbarParams p = smallParams(32, 16);
    Crossbar pos(p), neg(p);
    auto levels = randomLevels(32, 16, 15, rng);
    pos.programLevels(levels);  // no rng: ideal programming
    // A zero-programmed negative array cancels the Gmin offsets.
    std::vector<std::vector<int>> zeros(32, std::vector<int>(16, 0));
    neg.programLevels(zeros);

    std::vector<std::uint8_t> in(32);
    for (std::uint8_t &v : in)
        v = static_cast<std::uint8_t>(rng.uniformInt(0, 7));
    std::vector<std::int64_t> exact(16);
    std::vector<double> ip(16), in_(16);
    pos.mvmExact(in, exact);
    pos.mvmAnalog(in, ip);
    neg.mvmAnalog(in, in_);
    for (int c = 0; c < 16; ++c) {
        const double level_units =
            pos.levelUnitsFromCurrent(ip[c] - in_[c]);
        EXPECT_NEAR(level_units, static_cast<double>(exact[c]), 1e-6);
    }
}

TEST(Crossbar, ReadNoisePerturbsOutput)
{
    Rng rng(3);
    CrossbarParams p = smallParams(32, 4);
    p.readNoiseSigma = 0.01;
    Crossbar xbar(p);
    xbar.programLevels(randomLevels(32, 4, 15, rng));
    std::vector<std::uint8_t> in(32, 5);
    std::vector<double> clean(4), noisy(4);
    xbar.mvmAnalog(in, clean, nullptr);
    xbar.mvmAnalog(in, noisy, &rng);
    bool different = false;
    for (int c = 0; c < 4; ++c)
        if (clean[c] != noisy[c])
            different = true;
    EXPECT_TRUE(different);
}

TEST(Crossbar, WearTracked)
{
    Crossbar xbar(smallParams(4, 4));
    for (int c = 0; c < 4; ++c)
        xbar.programCell(0, c, 15);
    for (int c = 0; c < 4; ++c)
        xbar.programCell(0, c, 0);
    EXPECT_EQ(xbar.maxWear(), 2u);
    EXPECT_EQ(xbar.totalWear(), 8u);
}

TEST(Crossbar, RejectsBadInputs)
{
    Crossbar xbar(smallParams(4, 4));
    std::vector<std::int64_t> out(4);
    std::vector<double> current(4);
    std::vector<std::uint8_t> wrong_size(3, 0);
    EXPECT_DEATH(xbar.mvmExact(wrong_size, out), "inputs");
    EXPECT_DEATH(xbar.mvmAnalog(wrong_size, current), "inputs");
    std::vector<std::uint8_t> too_big(4, 8);  // inputBits=3 -> max 7
    EXPECT_DEATH(xbar.mvmExact(too_big, out), "input level");
    EXPECT_DEATH(xbar.mvmAnalog(too_big, current), "input level");
    std::vector<std::uint8_t> ok(4, 1);
    std::vector<std::int64_t> short_out(3);
    std::vector<double> short_current(3);
    EXPECT_DEATH(xbar.mvmExact(ok, short_out), "outputs");
    EXPECT_DEATH(xbar.mvmAnalog(ok, short_current), "outputs");
}

TEST(DifferentialPair, SignedWeightsSplitCorrectly)
{
    CrossbarParams p = smallParams(2, 3);
    DifferentialPair pair(p);
    pair.programSigned(std::vector<int>{5, -7, 0, -15, 3, 9}, 1);
    EXPECT_EQ(pair.positive().storedLevel(0, 0), 5);
    EXPECT_EQ(pair.negative().storedLevel(0, 0), 0);
    EXPECT_EQ(pair.positive().storedLevel(0, 1), 0);
    EXPECT_EQ(pair.negative().storedLevel(0, 1), 7);
    EXPECT_EQ(pair.positive().storedLevel(1, 0), 0);
    EXPECT_EQ(pair.negative().storedLevel(1, 0), 15);
}

TEST(DifferentialPair, ExactSignedMvm)
{
    CrossbarParams p = smallParams(3, 2);
    DifferentialPair pair(p);
    pair.programSigned(std::vector<int>{5, -5, -3, 3, 0, 15}, 1);
    std::vector<std::uint8_t> in = {7, 2, 1};
    const std::vector<std::uint8_t> low = {1, 0, 3};
    const std::vector<std::int64_t> out = fourPassExact(pair, in);
    EXPECT_EQ(out[0], 7 * 5 + 2 * -3 + 1 * 0);
    EXPECT_EQ(out[1], 7 * -5 + 2 * 3 + 1 * 15);
    // The fused kernel gives both phases in one call.
    const auto [pass_h, pass_l] = fusedExact(pair, in, low);
    EXPECT_EQ(pass_h, out);
    EXPECT_EQ(pass_l[0], 1 * 5 + 0 * -3 + 3 * 0);
    EXPECT_EQ(pass_l[1], 1 * -5 + 0 * 3 + 3 * 15);
}

TEST(DifferentialPair, FusedMvmRejectsBadInputs)
{
    DifferentialPair pair(smallParams(4, 2));
    std::vector<std::int64_t> passes(4), short_out(3);
    const std::vector<std::uint8_t> ok(8, 1), wrong_size(7, 0), empty;
    std::vector<std::uint8_t> too_big(8, 1);
    too_big[5] = 8;
    EXPECT_DEATH(pair.mvmExact(wrong_size, passes), "inputs");
    EXPECT_DEATH(pair.mvmExact(empty, {}), "inputs");
    EXPECT_DEATH(pair.mvmExact(too_big, passes), "input level");
    EXPECT_DEATH(pair.mvmExact(ok, short_out), "outputs");
}

/** Weight and input extremes for the fused-kernel property test: a
 *  quarter of the entries pinned at the range ends, the rest random. */
int
extremeOrRandom(Rng &rng, int lo, int hi)
{
    switch (rng.uniformInt(0, 7)) {
      case 0:
        return lo;
      case 1:
        return hi;
      default:
        return static_cast<int>(rng.uniformInt(lo, hi));
    }
}

/**
 * Property: the dispatched quad-plane kernel equals the four-pass
 * oracle (pos and neg arrays per input phase, subtracted) bit for bit,
 * on composed engines whose logical weights reach +-(2^Pw - 1) and
 * whose 6-bit inputs reach 0 and the max code, across row counts that
 * leave 0-3 padding rows in the last quad (up to just past the 256-row
 * mat) and column counts up to a full 512-bitline FF mat.
 */
TEST(DifferentialPair, FusedKernelMatchesFourPassOracle)
{
    const ComposingParams cp;
    const int max_w = (1 << cp.weightBits) - 1;
    const int max_in = (1 << cp.inputBits) - 1;
    Rng rng(2026);
    for (const int rows : {1, 2, 3, 5, 25, 256, 257}) {
        for (const int cols : {1, 5, 256}) {
            ComposedMatrixEngine engine(rows, cols, cp, CrossbarParams{});
            std::vector<std::vector<int>> w(rows, std::vector<int>(cols));
            for (auto &row : w)
                for (int &v : row)
                    v = extremeOrRandom(rng, -max_w, max_w);
            engine.programWeights(flat(w));
            const DifferentialPair &pair = engine.arrays();
            for (int trial = 0; trial < 3; ++trial) {
                std::vector<std::uint8_t> high(rows), low(rows);
                for (int r = 0; r < rows; ++r) {
                    // Trial 0 drives every row at the max code.
                    const int code = trial == 0
                                         ? max_in
                                         : extremeOrRandom(rng, 0, max_in);
                    auto [ih, il] = splitInput(code, cp);
                    high[static_cast<std::size_t>(r)] =
                        static_cast<std::uint8_t>(ih);
                    low[static_cast<std::size_t>(r)] =
                        static_cast<std::uint8_t>(il);
                }
                const auto [pass_h, pass_l] = fusedExact(pair, high, low);
                EXPECT_EQ(pass_h, fourPassExact(pair, high))
                    << rows << "x" << cols << " trial " << trial;
                EXPECT_EQ(pass_l, fourPassExact(pair, low))
                    << rows << "x" << cols << " trial " << trial;
            }
        }
    }
}

/** The dispatched kernel across the register-block edges: 16-column
 *  vectors, 4-vector blocks and widths past 1024 bitlines (no width
 *  cap), on a row count that is not a multiple of 4. */
TEST(DifferentialPair, FusedKernelCoversRegisterBlockEdges)
{
    Rng rng(27);
    const int rows = 9;
    for (const int cols : {1, 15, 16, 17, 63, 64, 65, 512, 513, 1100}) {
        DifferentialPair pair(smallParams(rows, cols));
        std::vector<std::vector<int>> w(rows, std::vector<int>(cols));
        for (auto &row : w)
            for (int &v : row)
                v = extremeOrRandom(rng, -15, 15);
        pair.programSigned(flat(w), 1);
        std::vector<std::uint8_t> high(rows), low(rows);
        for (int r = 0; r < rows; ++r) {
            high[static_cast<std::size_t>(r)] =
                static_cast<std::uint8_t>(extremeOrRandom(rng, 0, 7));
            low[static_cast<std::size_t>(r)] =
                static_cast<std::uint8_t>(extremeOrRandom(rng, 0, 7));
        }
        const auto [pass_h, pass_l] = fusedExact(pair, high, low);
        EXPECT_EQ(pass_h, fourPassExact(pair, high)) << cols;
        EXPECT_EQ(pass_l, fourPassExact(pair, low)) << cols;
    }
}

/** programSigned writes pos - neg at byte ((r/4) * stride + c) * 4 +
 *  r % 4, stride = cols rounded up to 16, and leaves padding 0. */
TEST(DifferentialPair, QuadPlaneLayout)
{
    const int rows = 6;
    const int cols = 17;
    DifferentialPair pair(smallParams(rows, cols));
    std::vector<std::vector<int>> w(rows, std::vector<int>(cols));
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            w[r][c] = (r * cols + c) % 31 - 15;
    pair.programSigned(flat(w), 1);
    const int stride = detail::quadPlaneStride(cols);
    ASSERT_EQ(stride, 32);
    const std::span<const std::int8_t> plane = pair.quadPlane();
    ASSERT_EQ(plane.size(), 2u * stride * 4);
    for (int q = 0; q < 2; ++q)
        for (int c = 0; c < stride; ++c)
            for (int k = 0; k < 4; ++k) {
                const int r = 4 * q + k;
                const int want = r < rows && c < cols ? w[r][c] : 0;
                EXPECT_EQ(plane[(static_cast<std::size_t>(q) * stride + c) * 4 +
                                static_cast<std::size_t>(k)],
                          want)
                    << "row " << r << " col " << c;
            }
}

TEST(SignedPlaneDispatch, PicksFirstSupportedVariant)
{
    const std::span<const detail::SignedPlaneKernel> kernels =
        detail::signedPlaneKernels();
    ASSERT_FALSE(kernels.empty());
    EXPECT_STREQ(kernels.back().name, "plain");
    EXPECT_TRUE(kernels.back().supported);
    const detail::SignedPlaneKernel &chosen =
        detail::dispatchedSignedPlaneKernel();
    for (const detail::SignedPlaneKernel &k : kernels) {
        if (k.supported) {
            EXPECT_EQ(&k, &chosen) << chosen.name;
            break;
        }
    }
}

/** A compiled-in variant by name, or nullptr. */
const detail::SignedPlaneKernel *
findKernel(std::string_view name)
{
    for (const detail::SignedPlaneKernel &k : detail::signedPlaneKernels())
        if (name == k.name)
            return &k;
    return nullptr;
}

class SignedPlaneVariant : public ::testing::TestWithParam<const char *>
{
};

/** One phase code of a variant-test trial (@p high: of a high
 *  phase). */
std::uint8_t
trialPhase(int trial, Rng &rng, bool high)
{
    auto draw = [&](int hi) {
        return static_cast<std::uint8_t>(extremeOrRandom(rng, 0, hi));
    };
    switch (trial) {
      case 0:  // the int16 hazard: every phase at 255
        return 255;
      case 1:  // the widest vpmaddubsw-exact phases
        return high ? 127 : draw(127);
      case 2:
        return draw(255);
      default:  // 3-bit composed-engine phases
        return draw(7);
    }
}

/**
 * Each ISA variant, called directly, equals the plain loop and the
 * four-pass oracle bit for bit: row counts that are not multiples of
 * 4, bitline counts straddling the 8/16-column registers and the
 * 4-register blocks, levels at +-(2^7 - 1), and 8-bit phases up to
 * 255.  Column 0 holds +127 and column 1 -127 in every row, so under
 * all-255 phases one vpmaddubsw row pair reaches +-2 * 255 * 127,
 * beyond int16: the AVX2 variant is exact there only because a chunk
 * with a phase of 128 or more takes the plain loop.  Phases up to 127
 * keep it on vpmaddubsw at its largest exact pair sum, 2 * 127 * 127.
 */
TEST_P(SignedPlaneVariant, MatchesPlainLoopAndFourPassOracle)
{
    const detail::SignedPlaneKernel *kernel = findKernel(GetParam());
    if (kernel == nullptr || !kernel->supported)
        GTEST_SKIP() << GetParam() << " is not built or this CPU lacks it";
    const detail::SignedPlaneKernel &plain = *findKernel("plain");
    Rng rng(19);
    for (const int rows : {1, 2, 3, 5, 25, 256, 257}) {
        for (const int lines :
             {1, 15, 16, 17, 127, 128, 129, 512, 513, 1100}) {
            CrossbarParams p = smallParams(rows, lines);
            p.cellBits = 7;
            p.inputBits = 8;
            DifferentialPair pair(p);
            std::vector<std::vector<int>> w(rows, std::vector<int>(lines));
            for (auto &row : w) {
                for (int &v : row)
                    v = extremeOrRandom(rng, -127, 127);
                row[0] = 127;
                if (lines > 1)
                    row[1] = -127;
            }
            pair.programSigned(flat(w), 1);
            const std::size_t height = static_cast<std::size_t>(rows);
            const std::size_t n = static_cast<std::size_t>(lines);
            for (int trial = 0; trial < 4; ++trial) {
                // One high and one low phase vector in an exact-size
                // heap buffer: a variant that read past the last row
                // would trip ASan.
                std::vector<std::uint8_t> phases(2 * height);
                const std::span<std::uint8_t> high =
                    std::span(phases).first(height);
                const std::span<std::uint8_t> low =
                    std::span(phases).last(height);
                for (std::size_t r = 0; r < height; ++r) {
                    high[r] = trialPhase(trial, rng, true);
                    low[r] = trialPhase(trial, rng, false);
                }
                std::vector<std::int64_t> got(2 * n, -1), ref(2 * n, -2);
                kernel->run(pair.quadPlane().data(), rows, lines, 2,
                            phases.data(), got.data());
                plain.run(pair.quadPlane().data(), rows, lines, 2,
                          phases.data(), ref.data());
                const std::string where = std::to_string(rows) + "x" +
                                          std::to_string(lines) +
                                          " trial " + std::to_string(trial);
                EXPECT_EQ(got, ref) << where;
                const std::vector<std::uint8_t> h(high.begin(), high.end());
                const std::vector<std::uint8_t> l(low.begin(), low.end());
                EXPECT_EQ(std::vector<std::int64_t>(ref.begin(),
                                                    ref.begin() + lines),
                          fourPassExact(pair, h)) << where;
                EXPECT_EQ(std::vector<std::int64_t>(ref.begin() + lines,
                                                    ref.end()),
                          fourPassExact(pair, l)) << where;
            }
        }
    }
}

/**
 * Each ISA variant over a batch of M phase vectors equals the plain
 * loop over the same batch, and the plain loop's batch equals its M
 * single-vector calls: M across the vector-block remainders (1, 2, 3,
 * 5, 17) and a whole CNN-1 conv layer's 576, row counts that are not
 * multiples of 4, bitline counts on both register widths, and phases
 * up to 255 (trial 0 and 2: chunks on the wide loop) as well as below
 * 128.  Exact-size heap buffers, so an overread trips ASan.
 */
TEST_P(SignedPlaneVariant, BatchMatchesPlainLoop)
{
    const detail::SignedPlaneKernel *kernel = findKernel(GetParam());
    if (kernel == nullptr || !kernel->supported)
        GTEST_SKIP() << GetParam() << " is not built or this CPU lacks it";
    const detail::SignedPlaneKernel &plain = *findKernel("plain");
    Rng rng(23);
    for (const int rows : {1, 2, 3, 5, 25, 256, 257}) {
        for (const int lines : {5, 70}) {
            CrossbarParams p = smallParams(rows, lines);
            p.cellBits = 7;
            p.inputBits = 8;
            DifferentialPair pair(p);
            std::vector<std::vector<int>> w(rows, std::vector<int>(lines));
            for (auto &row : w)
                for (int &v : row)
                    v = extremeOrRandom(rng, -127, 127);
            pair.programSigned(flat(w), 1);
            const std::size_t height = static_cast<std::size_t>(rows);
            const std::size_t n = static_cast<std::size_t>(lines);
            for (const int vectors : {1, 2, 3, 5, 17, 576}) {
                const std::size_t m = static_cast<std::size_t>(vectors);
                const int trial = (rows + vectors + lines) % 4;
                std::vector<std::uint8_t> phases(m * height);
                for (std::size_t i = 0; i < phases.size(); ++i)
                    phases[i] = trialPhase(trial, rng, i / height % 2 == 0);
                std::vector<std::int64_t> got(m * n, -1), ref(m * n, -2);
                kernel->run(pair.quadPlane().data(), rows, lines, vectors,
                            phases.data(), got.data());
                plain.run(pair.quadPlane().data(), rows, lines, vectors,
                          phases.data(), ref.data());
                const std::string where =
                    std::to_string(vectors) + " x " + std::to_string(rows) +
                    "x" + std::to_string(lines) + " trial " +
                    std::to_string(trial);
                EXPECT_EQ(got, ref) << where;
                for (std::size_t v = 0; v < m; ++v) {
                    const std::vector<std::uint8_t> one(
                        phases.begin() +
                            static_cast<std::ptrdiff_t>(v * height),
                        phases.begin() +
                            static_cast<std::ptrdiff_t>((v + 1) * height));
                    std::vector<std::int64_t> single(n, -3);
                    plain.run(pair.quadPlane().data(), rows, lines, 1,
                              one.data(), single.data());
                    ASSERT_TRUE(std::equal(
                        single.begin(), single.end(),
                        ref.begin() + static_cast<std::ptrdiff_t>(v * n)))
                        << where << " vector " << v;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Isa, SignedPlaneVariant,
                         ::testing::Values("avx512vnni", "avx2", "plain"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

TEST(DifferentialPair, AnalogCancelsOffset)
{
    Rng rng(4);
    CrossbarParams p = smallParams(64, 8);
    DifferentialPair pair(p);
    std::vector<std::vector<int>> w(64, std::vector<int>(8));
    for (auto &row : w)
        for (int &v : row)
            v = static_cast<int>(rng.uniformInt(-15, 15));
    pair.programSigned(flat(w), 1);  // ideal programming
    std::vector<std::uint8_t> in(64);
    for (std::uint8_t &v : in)
        v = static_cast<std::uint8_t>(rng.uniformInt(0, 7));
    const std::vector<std::int64_t> exact = fourPassExact(pair, in);
    std::vector<double> analog(8), analog_neg(8);
    pair.mvmAnalog(in, analog, analog_neg);
    for (int c = 0; c < 8; ++c)
        EXPECT_NEAR(analog[c], static_cast<double>(exact[c]), 1e-6);
}

TEST(DifferentialPair, RejectsOverRangeWeight)
{
    DifferentialPair pair(smallParams(1, 1));
    EXPECT_DEATH(pair.programSigned(std::vector<int>{16}, 1), "weight");
}

/** Geometry sweep: exact/analog agreement holds across shapes. */
class CrossbarShapeSweep
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(CrossbarShapeSweep, AnalogAgreesWithExact)
{
    auto [rows, cols] = GetParam();
    Rng rng(rows * 1000 + cols);
    DifferentialPair pair(smallParams(rows, cols));
    std::vector<std::vector<int>> w(rows, std::vector<int>(cols));
    for (auto &row : w)
        for (int &v : row)
            v = static_cast<int>(rng.uniformInt(-15, 15));
    pair.programSigned(flat(w), 1);
    std::vector<std::uint8_t> in(rows);
    for (std::uint8_t &v : in)
        v = static_cast<std::uint8_t>(rng.uniformInt(0, 7));
    const std::size_t n = static_cast<std::size_t>(cols);
    const std::vector<std::int64_t> exact = fourPassExact(pair, in);
    std::vector<double> analog(n), analog_neg(n);
    pair.mvmAnalog(in, analog, analog_neg);
    for (int c = 0; c < cols; ++c)
        EXPECT_NEAR(analog[c], static_cast<double>(exact[c]), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CrossbarShapeSweep,
    ::testing::Values(std::pair{1, 1}, std::pair{7, 3}, std::pair{64, 64},
                      std::pair{256, 16}, std::pair{33, 129}));

// ------------------------------------------------------------------
// Compute-plane fast path: the planes, buffer reuse, thread pool.
// ------------------------------------------------------------------

/** Scalar reference MVM straight from storedLevel(), bypassing planes. */
std::vector<std::int64_t>
referenceMvm(const Crossbar &xbar, const std::vector<std::uint8_t> &in)
{
    const CrossbarParams &p = xbar.params();
    std::vector<std::int64_t> out(static_cast<std::size_t>(p.cols), 0);
    for (int r = 0; r < p.rows; ++r)
        for (int c = 0; c < p.cols; ++c)
            out[static_cast<std::size_t>(c)] +=
                static_cast<std::int64_t>(in[static_cast<std::size_t>(r)]) *
                xbar.storedLevel(r, c);
    return out;
}

/** The conductance the bitline sees through a cell at (r, c) of
 *  conductance @p g: the first-order IR-drop formula, its wordline
 *  (c + 1 pitches) and bitline (rows - r pitches) wire in series. */
double
irDropped(double g, int r, int c, const CrossbarParams &p)
{
    const Ohm r_wire = p.wireResistancePerCell *
                       static_cast<double>((c + 1) + (p.rows - r));
    return 1.0 / (1.0 / g + r_wire * 1.0e-6);
}

/** The pre-fast-path mvmAnalog arithmetic, reproduced element by
 *  element from @p xbar's conductances; with @p wired set, each goes
 *  through irDropped at @p wired's wire resistance first. */
std::vector<double>
referenceAnalog(const Crossbar &xbar, const std::vector<std::uint8_t> &in,
                const CrossbarParams *wired = nullptr)
{
    const CrossbarParams &p = xbar.params();
    const Volt v_step = p.voltageStep();
    std::vector<double> current(static_cast<std::size_t>(p.cols), 0.0);
    for (int r = 0; r < p.rows; ++r) {
        const Volt v = v_step * in[static_cast<std::size_t>(r)];
        if (v == 0.0)
            continue;
        for (int c = 0; c < p.cols; ++c) {
            const double g = xbar.conductance(r, c);
            current[static_cast<std::size_t>(c)] +=
                v * (wired ? irDropped(g, r, c, *wired) : g);
        }
    }
    return current;
}

/** programCell between MVMs: every exact and analog MVM agrees with a
 *  fresh scalar reference over the planes as they stand. */
TEST(CrossbarFastPath, MvmTracksInterleavedProgramming)
{
    Rng rng(21);
    CrossbarParams p = smallParams(16, 12);
    Crossbar xbar(p);
    xbar.programLevels(randomLevels(16, 12, 15, rng));
    std::vector<std::uint8_t> in(16);
    for (std::uint8_t &v : in)
        v = static_cast<std::uint8_t>(rng.uniformInt(0, 7));

    std::vector<std::int64_t> out(12);
    std::vector<double> current(12);
    for (int step = 0; step < 8; ++step) {
        xbar.mvmExact(in, out);
        EXPECT_EQ(out, referenceMvm(xbar, in)) << "step " << step;
        xbar.programCell(static_cast<int>(rng.uniformInt(0, 15)),
                         static_cast<int>(rng.uniformInt(0, 11)),
                         static_cast<int>(rng.uniformInt(0, 15)), &rng);
        xbar.mvmExact(in, out);
        EXPECT_EQ(out, referenceMvm(xbar, in)) << "after mutation " << step;
        xbar.mvmAnalog(in, current);
        const std::vector<double> want = referenceAnalog(xbar, in);
        for (std::size_t c = 0; c < want.size(); ++c)
            EXPECT_DOUBLE_EQ(current[c], want[c])
                << "after mutation " << step << " col " << c;
    }
}

/** Arrays wider than the exact kernel's 512-column accumulator block
 *  span several blocks; the span form overwrites whatever its output
 *  buffer held. */
TEST(CrossbarFastPath, WideArraySpansColumnBlocks)
{
    Rng rng(22);
    CrossbarParams p = smallParams(8, 1100);
    Crossbar xbar(p);
    xbar.programLevels(randomLevels(8, 1100, 15, rng));
    std::vector<std::uint8_t> in(8);
    for (std::uint8_t &v : in)
        v = static_cast<std::uint8_t>(rng.uniformInt(0, 7));
    const std::vector<std::int64_t> want = referenceMvm(xbar, in);
    std::vector<std::int64_t> out(want.size(), -12345);
    xbar.mvmExact(in, out);
    EXPECT_EQ(out, want);
}

/** The IR drop is folded into the conductance plane at program
 *  time: a wire-resistant crossbar's conductances and analog MVM equal
 *  the formula applied to a wire-free twin programmed from the same
 *  Rng seed, before and after a further programCell. */
TEST(CrossbarFastPath, AnalogIrDropMatchesFormula)
{
    Rng rng(22);
    const CrossbarParams p = smallParams(24, 10);
    CrossbarParams wired = p;
    wired.wireResistancePerCell = 2.5;
    const std::vector<std::vector<int>> levels = randomLevels(24, 10, 15, rng);
    std::vector<std::uint8_t> in(24);
    for (std::uint8_t &v : in)
        v = static_cast<std::uint8_t>(rng.uniformInt(0, 7));

    Crossbar twin(p), xbar(wired);
    Rng twin_rng(5), xbar_rng(5);
    twin.programLevels(levels, &twin_rng);
    xbar.programLevels(levels, &xbar_rng);
    auto check = [&](const char *when) {
        for (int r = 0; r < p.rows; ++r)
            for (int c = 0; c < p.cols; ++c)
                EXPECT_DOUBLE_EQ(xbar.conductance(r, c),
                                 irDropped(twin.conductance(r, c), r, c,
                                           wired))
                    << when << " cell " << r << "," << c;
        std::vector<double> got(10);
        xbar.mvmAnalog(in, got);
        const std::vector<double> want = referenceAnalog(twin, in, &wired);
        for (std::size_t c = 0; c < got.size(); ++c)
            EXPECT_DOUBLE_EQ(got[c], want[c]) << when << " col " << c;
    };
    check("programmed");
    twin.programCell(3, 7, 11, &twin_rng);
    xbar.programCell(3, 7, 11, &xbar_rng);
    check("reprogrammed");
}

/** Read noise: accumulation first, then one gaussian per column in
 *  ascending order, scaled by the full-scale current (the documented
 *  RNG-ordering contract). */
TEST(CrossbarFastPath, ReadNoiseMatchesPreChangeFormula)
{
    Rng rng(23);
    CrossbarParams p = smallParams(32, 6);
    p.readNoiseSigma = 0.02;
    Crossbar xbar(p);
    xbar.programLevels(randomLevels(32, 6, 15, rng));
    std::vector<std::uint8_t> in(32);
    for (std::uint8_t &v : in)
        v = static_cast<std::uint8_t>(rng.uniformInt(0, 7));

    Rng noise_a(99), noise_b(99);
    std::vector<double> noisy(6);
    xbar.mvmAnalog(in, noisy, &noise_a);
    std::vector<double> want = referenceAnalog(xbar, in);
    const double full_scale =
        p.device.readVoltage * p.device.gMax() * p.rows;
    for (std::size_t c = 0; c < want.size(); ++c)
        want[c] += noise_b.gaussian(0.0, p.readNoiseSigma * full_scale);
    for (std::size_t c = 0; c < want.size(); ++c)
        EXPECT_DOUBLE_EQ(noisy[c], want[c]) << "col " << c;
}

/** One output buffer reused across samples gives what a fresh buffer
 *  per sample gives, exact and noisy analog alike (the same Rng seed
 *  on both sides): the kernels overwrite their outputs and draw read
 *  noise in the same order either way. */
TEST(CrossbarFastPath, ReusedOutputMatchesFreshPerSample)
{
    Rng rng(24);
    CrossbarParams p = smallParams(20, 9);
    p.readNoiseSigma = 0.01;
    Crossbar xbar(p);
    xbar.programLevels(randomLevels(20, 9, 15, rng), &rng);
    std::vector<std::vector<std::uint8_t>> inputs(
        5, std::vector<std::uint8_t>(20));
    for (auto &in : inputs)
        for (std::uint8_t &v : in)
            v = static_cast<std::uint8_t>(rng.uniformInt(0, 7));

    Rng reused_rng(7), fresh_rng(7);
    std::vector<std::int64_t> exact(9);
    std::vector<double> analog(9);
    for (std::size_t s = 0; s < inputs.size(); ++s) {
        xbar.mvmExact(inputs[s], exact);
        std::vector<std::int64_t> fresh_exact(9);
        xbar.mvmExact(inputs[s], fresh_exact);
        EXPECT_EQ(exact, fresh_exact) << "sample " << s;

        xbar.mvmAnalog(inputs[s], analog, &reused_rng);
        std::vector<double> fresh_analog(9);
        xbar.mvmAnalog(inputs[s], fresh_analog, &fresh_rng);
        EXPECT_EQ(analog, fresh_analog) << "sample " << s;
    }
}

/** One MvmScratch and output buffer reused across samples -- and
 *  across both datapaths, which size the scratch differently -- give
 *  what a fresh pair per sample gives: the reuse contract the
 *  controller's per-mat scratch relies on. */
TEST(ComposedEngineFastPath, ReusedScratchMatchesFreshPerSample)
{
    ComposingParams cp;
    CrossbarParams xp;
    xp.readNoiseSigma = 0.005;
    ComposedMatrixEngine engine(24, 6, cp, xp);
    Rng rng(25);
    std::vector<std::vector<int>> w(24, std::vector<int>(6));
    for (auto &row : w)
        for (int &v : row)
            v = static_cast<int>(rng.uniformInt(-255, 255));
    engine.programWeights(flat(w), &rng);

    std::vector<std::vector<std::uint8_t>> inputs(
        4, std::vector<std::uint8_t>(24));
    for (auto &in : inputs)
        for (std::uint8_t &v : in)
            v = static_cast<std::uint8_t>(rng.uniformInt(0, 63));

    Rng reused_rng(31), fresh_rng(31);
    ComposedMatrixEngine::MvmScratch scratch;
    std::vector<std::int64_t> out(6);
    for (std::size_t s = 0; s < inputs.size(); ++s) {
        engine.mvmExact(inputs[s], out, scratch);
        ComposedMatrixEngine::MvmScratch fresh_scratch;
        std::vector<std::int64_t> fresh(6);
        engine.mvmExact(inputs[s], fresh, fresh_scratch);
        EXPECT_EQ(out, fresh) << "exact sample " << s;

        engine.mvmAnalog(inputs[s], out, scratch, &reused_rng);
        ComposedMatrixEngine::MvmScratch fresh_analog_scratch;
        engine.mvmAnalog(inputs[s], fresh, fresh_analog_scratch, &fresh_rng);
        EXPECT_EQ(out, fresh) << "analog sample " << s;
    }
}

/** A programmed array is shared read-only: pool jobs running analog
 *  MVMs at once on one freshly programmed pair and composed engine
 *  (each with its own outputs and scratch) each get the sequential
 *  result bit for bit. */
TEST(CrossbarFastPath, ConcurrentAnalogReadsOfOneProgrammedArray)
{
    constexpr std::size_t kJobs = 8;
    Rng rng(26);
    CrossbarParams xp;
    xp.rows = 64;
    xp.cols = 32;
    DifferentialPair pair(xp);
    std::vector<int> signed_levels(64 * 32);
    for (int &v : signed_levels)
        v = static_cast<int>(rng.uniformInt(-15, 15));
    pair.programSigned(signed_levels, 1, &rng);
    ComposedMatrixEngine engine(64, 16, ComposingParams{}, CrossbarParams{});
    std::vector<int> weights(64 * 16);
    for (int &v : weights)
        v = static_cast<int>(rng.uniformInt(-255, 255));
    engine.programWeights(weights, &rng);
    std::vector<std::uint8_t> codes(64), inputs(64);
    for (std::uint8_t &v : codes)
        v = static_cast<std::uint8_t>(rng.uniformInt(0, 7));
    for (std::uint8_t &v : inputs)
        v = static_cast<std::uint8_t>(rng.uniformInt(0, 63));

    // Every job reads before any sequential call touches the arrays.
    std::vector<std::vector<double>> pair_out(kJobs, std::vector<double>(32));
    std::vector<std::vector<std::int64_t>> engine_out(
        kJobs, std::vector<std::int64_t>(16));
    ThreadPool::global().parallelFor(kJobs, [&](std::size_t j) {
        std::vector<double> neg(32);
        pair.mvmAnalog(codes, pair_out[j], neg);
        ComposedMatrixEngine::MvmScratch scratch;
        engine.mvmAnalog(inputs, engine_out[j], scratch);
    });

    std::vector<double> pair_want(32), neg(32);
    pair.mvmAnalog(codes, pair_want, neg);
    std::vector<std::int64_t> engine_want(16);
    ComposedMatrixEngine::MvmScratch scratch;
    engine.mvmAnalog(inputs, engine_want, scratch);
    for (std::size_t j = 0; j < kJobs; ++j) {
        EXPECT_EQ(pair_out[j], pair_want) << "job " << j;
        EXPECT_EQ(engine_out[j], engine_want) << "job " << j;
    }
}

/** parallelFor must produce thread-count-independent results and hit
 *  every index exactly once. */
TEST(ThreadPoolFastPath, ParallelForIndependentOfThreadCount)
{
    const std::size_t n = 1000;
    std::vector<double> want(n);
    for (std::size_t i = 0; i < n; ++i)
        want[i] = std::sqrt(static_cast<double>(i)) * 3.25;

    for (int threads : {1, 2, 3, 8}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.size(), threads);
        std::vector<double> got(n, -1.0);
        std::atomic<std::uint64_t> calls{0};
        pool.parallelFor(n, [&](std::size_t i) {
            got[i] = std::sqrt(static_cast<double>(i)) * 3.25;
            calls.fetch_add(1, std::memory_order_relaxed);
        });
        EXPECT_EQ(calls.load(), n) << "threads=" << threads;
        EXPECT_EQ(got, want) << "threads=" << threads;
    }
}

/** Nested parallelFor runs inline instead of deadlocking the pool. */
TEST(ThreadPoolFastPath, NestedParallelForRunsInline)
{
    ThreadPool pool(4);
    std::vector<int> out(64, 0);
    pool.parallelFor(8, [&](std::size_t i) {
        pool.parallelFor(8, [&](std::size_t j) {
            out[i * 8 + j] = static_cast<int>(i * 8 + j);
        });
    });
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
}

} // namespace
} // namespace prime::reram
