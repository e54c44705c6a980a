#include "reram/cell.hh"

#include "common/logging.hh"

namespace prime::reram {

MicroSiemens
idealConductance(const DeviceParams &params, int level, int bits)
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

} // namespace prime::reram
