/**
 * @file
 * ReRAM device model tests (Section II-A behavior): the device
 * functions, and one cell's program/wear behavior through a 1 x 1
 * crossbar.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "reram/cell.hh"
#include "reram/crossbar.hh"

namespace prime::reram {
namespace {

TEST(DeviceParams, ConductanceEndpoints)
{
    DeviceParams p;  // 1k / 20k Ohm
    EXPECT_DOUBLE_EQ(p.gMax(), 1000.0);  // 1 kOhm -> 1000 uS
    EXPECT_DOUBLE_EQ(p.gMin(), 50.0);    // 20 kOhm -> 50 uS
}

TEST(Cell, IdealConductanceEndpointsAndMonotonicity)
{
    DeviceParams p;
    EXPECT_DOUBLE_EQ(idealConductance(p, 0, 4), p.gMin());
    EXPECT_DOUBLE_EQ(idealConductance(p, 15, 4), p.gMax());
    for (int l = 1; l < 16; ++l)
        EXPECT_GT(idealConductance(p, l, 4), idealConductance(p, l - 1, 4));
}

/** A 1 x 1 crossbar: the cell-level behavior of programCell. */
CrossbarParams
oneCell()
{
    CrossbarParams p;
    p.rows = 1;
    p.cols = 1;
    return p;
}

TEST(Cell, UnprogrammedReadsZero)
{
    const Crossbar xbar(oneCell());
    EXPECT_EQ(xbar.storedLevel(0, 0), 0);
    EXPECT_EQ(xbar.conductance(0, 0), 0.0);
    EXPECT_EQ(xbar.totalWear(), 0u);
}

TEST(Cell, ProgramStoresLevelIdeally)
{
    Crossbar xbar(oneCell());
    xbar.programCell(0, 0, 9);
    EXPECT_EQ(xbar.storedLevel(0, 0), 9);
    EXPECT_DOUBLE_EQ(xbar.conductance(0, 0),
                     idealConductance(xbar.params().device, 9, 4));
}

TEST(Cell, ProgramVariationBoundedAndNonzero)
{
    CrossbarParams xp = oneCell();
    xp.device.programVariation = 0.03;
    const DeviceParams &p = xp.device;
    Rng rng(3);
    double max_rel = 0.0;
    for (int i = 0; i < 200; ++i) {
        Crossbar xbar(xp);
        xbar.programCell(0, 0, 8, &rng);
        const double g = xbar.conductance(0, 0);
        const double ideal = idealConductance(p, 8, 4);
        max_rel = std::max(max_rel, std::abs(g - ideal) / ideal);
        EXPECT_GE(g, p.gMin());
        EXPECT_LE(g, p.gMax());
    }
    EXPECT_GT(max_rel, 0.0);
    EXPECT_LT(max_rel, 0.2);  // ~3% sigma: 6-sigma tail bound
}

TEST(Cell, VariationClampedToDeviceRange)
{
    CrossbarParams xp = oneCell();
    xp.device.programVariation = 5.0;  // most draws leave [gMin, gMax]
    Rng rng(4);
    Crossbar xbar(xp);
    bool hit_min = false, hit_max = false;
    for (int i = 0; i < 200; ++i) {
        xbar.programCell(0, 0, i % 2 == 0 ? 0 : 15, &rng);
        const double g = xbar.conductance(0, 0);
        EXPECT_GE(g, xp.device.gMin());
        EXPECT_LE(g, xp.device.gMax());
        hit_min |= g == xp.device.gMin();
        hit_max |= g == xp.device.gMax();
    }
    EXPECT_TRUE(hit_min);
    EXPECT_TRUE(hit_max);
}

TEST(Cell, WearCountsOnlyChanges)
{
    Crossbar xbar(oneCell());
    xbar.programCell(0, 0, 0);  // the first write pulses, even to HRS
    EXPECT_EQ(xbar.totalWear(), 1u);
    xbar.programCell(0, 0, 0);  // same state: write-verify skips the pulse
    EXPECT_EQ(xbar.totalWear(), 1u);
    xbar.programCell(0, 0, 7);
    EXPECT_EQ(xbar.totalWear(), 2u);
    xbar.programCell(0, 0, 7);
    EXPECT_EQ(xbar.totalWear(), 2u);
    xbar.programCell(0, 0, 0);
    EXPECT_EQ(xbar.totalWear(), 3u);
    EXPECT_EQ(xbar.maxWear(), 3u);
}

TEST(Cell, RejectsOutOfRangeLevel)
{
    Crossbar xbar(oneCell());
    EXPECT_DEATH(xbar.programCell(0, 0, 16), "level");
    EXPECT_DEATH(xbar.programCell(0, 0, -1), "level");
}

/** MLC level sweep: every level distinguishes from its neighbors. */
class MlcBitsSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(MlcBitsSweep, AllLevelsDistinct)
{
    const int bits = GetParam();
    DeviceParams p;
    const int levels = 1 << bits;
    double prev = -1.0;
    for (int l = 0; l < levels; ++l) {
        const double g = idealConductance(p, l, bits);
        EXPECT_GT(g, prev);
        prev = g;
    }
}

INSTANTIATE_TEST_SUITE_P(Bits, MlcBitsSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7));

} // namespace
} // namespace prime::reram
