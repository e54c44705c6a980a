#include "reram/cell.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace prime::reram {

MicroSiemens
Cell::idealConductance(const DeviceParams &params, int level, int bits)
{
    PRIME_ASSERT(bits >= 1 && bits <= 8, "MLC bits=", bits);
    const int levels = 1 << bits;
    PRIME_ASSERT(level >= 0 && level < levels,
                 "level=", level, " of ", levels);
    const MicroSiemens g_min = params.gMin();
    const MicroSiemens g_max = params.gMax();
    return g_min +
           (g_max - g_min) * static_cast<double>(level) / (levels - 1);
}

void
Cell::program(const DeviceParams &params, int level, int bits, Rng *rng)
{
    programIdeal(level, bits, idealConductance(params, level, bits),
                 params.gMin(), params.gMax(), params.programVariation, rng);
}

void
Cell::set(const DeviceParams &params, Rng *rng)
{
    program(params, 1, 1, rng);
}

void
Cell::reset(const DeviceParams &params, Rng *rng)
{
    program(params, 0, 1, rng);
}

bool
Cell::readBit(const DeviceParams &params) const
{
    const MicroSiemens mid = 0.5 * (params.gMin() + params.gMax());
    return conductance_ >= mid;
}

} // namespace prime::reram
