/**
 * @file
 * Metal-oxide ReRAM device model (paper Section II-A, Figure 1).
 *
 * A cell is a Pt/TiO2-x/Pt metal-insulator-metal stack whose resistance is
 * switched between a high-resistance state (HRS, logic '0') and a
 * low-resistance state (LRS, logic '1') by SET/RESET pulses.  Multi-level
 * cells (MLC) subdivide the conductance range into 2^bits levels; PRIME
 * uses 4-bit MLC in computation mode and SLC in memory mode.  A crossbar
 * stores its cells' state as planes (reram/crossbar.hh); this file holds
 * the per-device parameters and the conductance a write produces.
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

/** Ideal conductance for @p level of 2^bits levels (0 = HRS .. max =
 *  LRS); dies on bits outside [1, 8] or a level out of range. */
MicroSiemens idealConductance(const DeviceParams &params, int level,
                              int bits);

/**
 * The conductance a write targeting @p ideal leaves in the cell: a
 * multiplicative programming error, one gaussian of relative sigma
 * @p variation from @p rng, clamped to [@p g_min, @p g_max] (the
 * closed-loop write-verify tuning of [31] leaves a residual relative
 * error on this order).
 */
inline MicroSiemens
variedConductance(MicroSiemens ideal, MicroSiemens g_min, MicroSiemens g_max,
                  double variation, Rng &rng)
{
    return std::clamp(ideal * std::exp(rng.gaussian(0.0, variation)), g_min,
                      g_max);
}

} // namespace prime::reram

#endif // PRIME_RERAM_CELL_HH
