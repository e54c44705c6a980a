/**
 * @file
 * Metal-oxide ReRAM cell model (paper Section II-A, Figure 1).
 *
 * A cell is a Pt/TiO2-x/Pt metal-insulator-metal stack whose resistance is
 * switched between a high-resistance state (HRS, logic '0') and a
 * low-resistance state (LRS, logic '1') by SET/RESET pulses.  Multi-level
 * cells (MLC) subdivide the conductance range into 2^bits levels; PRIME
 * uses 4-bit MLC in computation mode and SLC in memory mode.
 *
 * Device parameters follow the paper's evaluation setup: Pt/TiO2-x/Pt with
 * Ron/Roff = 1 kOhm / 20 kOhm and 2 V SET/RESET [65], endurance up to
 * 1e12 cycles [21][22].
 */

#ifndef PRIME_RERAM_CELL_HH
#define PRIME_RERAM_CELL_HH

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/rng.hh"
#include "common/units.hh"

namespace prime::reram {

/** Static device parameters shared by all cells of an array. */
struct DeviceParams
{
    /** LRS resistance (fully-on). */
    Ohm rOn = 1000.0;
    /** HRS resistance (fully-off). */
    Ohm rOff = 20000.0;
    /** SET voltage magnitude. */
    Volt setVoltage = 2.0;
    /** RESET voltage magnitude. */
    Volt resetVoltage = 2.0;
    /** Read voltage (small enough not to disturb the cell). */
    Volt readVoltage = 0.3;
    /** Write endurance in SET/RESET cycles [21][22]. */
    std::uint64_t endurance = 1'000'000'000'000ull;
    /**
     * Relative sigma of programmed conductance for cells inside a crossbar
     * (about 3% per Alibart et al. [31]; 1% achievable on isolated cells).
     */
    double programVariation = 0.03;

    /** Minimum conductance (HRS). */
    MicroSiemens gMin() const { return units::ohmsToMicroSiemens(rOff); }
    /** Maximum conductance (LRS). */
    MicroSiemens gMax() const { return units::ohmsToMicroSiemens(rOn); }
};

/**
 * One ReRAM cell: programmable to an MLC level, readable as an analog
 * conductance, with endurance wear tracking.
 */
class Cell
{
  public:
    /** Construct an HRS ('0') cell. */
    Cell() = default;

    /**
     * Program the cell to @p level out of 2^bits levels (0 = HRS .. max =
     * LRS).  @p rng, when non-null, applies lognormal-ish programming
     * variation to the stored conductance; null programs ideally.
     */
    void program(const DeviceParams &params, int level, int bits,
                 Rng *rng = nullptr);

    /**
     * program() with its per-write constants supplied: @p ideal is
     * idealConductance(params, level, bits), @p g_min and @p g_max are
     * params.gMin() and params.gMax(), @p variation is
     * params.programVariation.  A whole-array write computes them once
     * instead of per cell; the stored state and the draw are program()'s.
     */
    void
    programIdeal(int level, int bits, MicroSiemens ideal, MicroSiemens g_min,
                 MicroSiemens g_max, double variation, Rng *rng)
    {
        MicroSiemens actual = ideal;
        if (rng) {
            // Multiplicative programming error; the closed-loop
            // write-verify tuning of [31] leaves a residual relative
            // error on this order.
            actual = ideal * std::exp(rng->gaussian(0.0, variation));
            actual = std::clamp(actual, g_min, g_max);
        }
        // Count a write only when the state actually changes (write
        // drivers verify before pulsing).
        if (!everProgrammed_ || level != level_ || levelCount_ != (1 << bits))
            ++wear_;
        everProgrammed_ = true;
        level_ = level;
        levelCount_ = 1 << bits;
        conductance_ = actual;
    }

    /** SLC SET (program logic '1'). */
    void set(const DeviceParams &params, Rng *rng = nullptr);

    /** SLC RESET (program logic '0'). */
    void reset(const DeviceParams &params, Rng *rng = nullptr);

    /** Stored level (what the write driver targeted). */
    int level() const { return level_; }

    /** Stored level count (2^bits at last program). */
    int levelCount() const { return levelCount_; }

    /** Actual analog conductance, including programming error. */
    MicroSiemens conductance() const { return conductance_; }

    /** Read as a digital bit: true when above the SLC midpoint. */
    bool readBit(const DeviceParams &params) const;

    /** SET+RESET cycles experienced so far. */
    std::uint64_t wear() const { return wear_; }

    /** Whether the cell exceeded its endurance budget. */
    bool wornOut(const DeviceParams &params) const
    {
        return wear_ > params.endurance;
    }

    /** Ideal conductance for @p level of 2^bits levels. */
    static MicroSiemens idealConductance(const DeviceParams &params,
                                         int level, int bits);

  private:
    int level_ = 0;
    int levelCount_ = 2;
    MicroSiemens conductance_ = 0.0;
    std::uint64_t wear_ = 0;
    bool everProgrammed_ = false;
};

} // namespace prime::reram

#endif // PRIME_RERAM_CELL_HH
