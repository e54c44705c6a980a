#include "nvmodel/tech_params.hh"

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace prime::nvmodel {

TechParams
defaultTechParams()
{
    TechParams p;
    // Struct defaults already encode the paper configuration; the device
    // parameters come from reram::DeviceParams defaults (Pt/TiO2-x/Pt,
    // 1k/20k Ohm, 2 V SET/RESET).
    return p;
}

void
applyConfig(const Config &config, TechParams &params)
{
    params.geometry.channels =
        config.getInt("geometry.channels", params.geometry.channels);
    params.geometry.ffSubarraysPerBank =
        config.getInt("geometry.ff_subarrays",
                      params.geometry.ffSubarraysPerBank);
    params.geometry.matsPerSubarray =
        config.getInt("geometry.mats_per_subarray",
                      params.geometry.matsPerSubarray);
    params.geometry.subarraysPerBank =
        config.getInt("geometry.subarrays_per_bank",
                      params.geometry.subarraysPerBank);
    params.timing.saClockGHz =
        config.getDouble("timing.sa_clock_ghz", params.timing.saClockGHz);
    params.timing.busGHz =
        config.getDouble("timing.bus_ghz", params.timing.busGHz);
    params.timing.bufferBytesPerNs =
        config.getDouble("timing.buffer_bytes_per_ns",
                         params.timing.bufferBytesPerNs);
    params.timing.internalBusBytesPerNs =
        config.getDouble("timing.internal_bus_bytes_per_ns",
                         params.timing.internalBusBytesPerNs);
    params.inputBits =
        config.getInt("datapath.input_bits", params.inputBits);
    params.weightBits =
        config.getInt("datapath.weight_bits", params.weightBits);
    params.outputBits =
        config.getInt("datapath.output_bits", params.outputBits);
    // The composing scheme splits inputs and weights into two equal
    // halves.  Input codes are uint8; the differential pair's signed
    // level plane is int8, so a cell half holds at most 7 bits; the SA
    // senses at most 8.
    PRIME_FATAL_IF(params.inputBits < 2 || params.inputBits > 8 ||
                       params.inputBits % 2 != 0,
                   "datapath.input_bits=", params.inputBits,
                   " must be even and in [2, 8] (two phases of a uint8 code)");
    PRIME_FATAL_IF(params.weightBits < 2 || params.weightBits > 14 ||
                       params.weightBits % 2 != 0,
                   "datapath.weight_bits=", params.weightBits,
                   " must be even and in [2, 14] (two cell halves of at "
                   "most 7 bits)");
    PRIME_FATAL_IF(params.outputBits < 1 || params.outputBits > 8,
                   "datapath.output_bits=", params.outputBits,
                   " must be in [1, 8]");
    params.inputPhaseBits = params.inputBits / 2;
    params.cellBits = params.weightBits / 2;
    params.device.rOn = config.getDouble("device.r_on", params.device.rOn);
    params.device.rOff =
        config.getDouble("device.r_off", params.device.rOff);
    params.device.programVariation = config.getDouble(
        "device.program_variation", params.device.programVariation);

    // Simulator-host knob, not a modeled parameter: how many threads
    // the compute plane may fan out on (0 = PRIME_THREADS env or
    // hardware concurrency; 1 = deterministic sequential fallback).
    const int threads = config.getInt("sim.threads", 0);
    if (threads > 0)
        ThreadPool::setGlobalThreadCount(threads);

    const auto unused = config.unusedKeys();
    PRIME_FATAL_IF(!unused.empty(), "unrecognized config key: ",
                   unused.front());
}

TimingParams
dramLikeTimings()
{
    TimingParams t;
    t.tRcd = 13.75;
    t.tCl = 13.75;
    t.tRp = 13.75;
    t.tWr = 15.0;
    return t;
}

TimingParams
naiveReramTimings()
{
    TimingParams t;  // optimized defaults...
    t.tWr = 150.0;   // ...minus the write optimizations: ~5x DRAM tWR
    t.tRp = 13.75;
    return t;
}

} // namespace prime::nvmodel
