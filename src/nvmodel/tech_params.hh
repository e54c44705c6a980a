/**
 * @file
 * Technology parameters for the NVSim/CACTI-style component models
 * (paper Section V-A: "We model ReRAM main memory and our PRIME system
 * with modified NVSim, CACTI-3DD and CACTI-IO").
 *
 * All constants carry their provenance:
 *   [dev]    Pt/TiO2-x/Pt device, Ron/Roff = 1k/20k Ohm, 2 V SET/RESET
 *            (Gao et al. [65], quoted in the paper's methodology).
 *   [mem]    Performance-optimized ReRAM main memory (Xu et al. [20],
 *            Table IV timing: tRCD-tCL-tRP-tWR = 22.5-9.8-0.5-41.4 ns,
 *            533 MHz IO bus).
 *   [dpe]    Dot-Product Engine noise/precision study (Hu et al. [66]).
 *   [cal]    Calibrated so the bottom-up totals land on the breakdowns
 *            the paper publishes (Figure 12 area percentages; DianNao's
 *            95%-of-energy-in-DRAM observation). These are the quantities
 *            the original authors obtained from NVSim/Synopsys runs we
 *            cannot reproduce bit-exactly offline.
 */

#ifndef PRIME_NVMODEL_TECH_PARAMS_HH
#define PRIME_NVMODEL_TECH_PARAMS_HH

#include "common/config.hh"
#include "common/units.hh"
#include "reram/cell.hh"

namespace prime::nvmodel {

/** Geometry of the PRIME memory system (paper Table IV + Section V-A). */
struct Geometry
{
    /**
     * Independent memory channels.  Each channel owns its own data bus
     * (a MemoryController with a private channel cursor) and a full
     * chipsPerRank x banksPerChip bank array; physical addresses
     * interleave across channels at 64-byte-line granularity
     * (memory::AddressMapper).  The paper's configuration is a single
     * channel; multi-channel organizations are opened for the CPU
     * co-run interference studies.
     */
    int channels = 1;
    /** Chips per rank. */
    int chipsPerRank = 8;
    /** Banks per chip. */
    int banksPerChip = 8;
    /** Subarrays per bank (2 FF + 1 Buffer + the rest Mem). [cal] */
    int subarraysPerBank = 24;
    /** FF subarrays per bank. */
    int ffSubarraysPerBank = 2;
    /** Buffer subarrays per bank. */
    int bufferSubarraysPerBank = 1;
    /** Mats per subarray (derived: 64 banks x 2 FF x 32 mats x 256x256
     *  synapses = 2.68e8, the paper's "maximal NN ~2.7e8 synapses"). */
    int matsPerSubarray = 32;
    /** Wordlines per mat crossbar. */
    int matRows = 256;
    /** Bitlines per mat crossbar. */
    int matCols = 256;
    /** Crossbar arrays per FF mat: positive/negative pairs with
     *  weight-composing adjacent bitlines (4 x 256x256 cells realize a
     *  256x256 logical matrix of signed 8-bit weights). */
    int arraysPerFfMat = 4;
    /** Reconfigurable SAs per FF mat (paper: eight 6-bit SAs). */
    int sasPerMat = 8;
    /** Total memory capacity in bytes. */
    unsigned long long capacityBytes = units::gib(16);

    /** Banks owned by one channel's controller. */
    int banksPerChannel() const { return chipsPerRank * banksPerChip; }
    int totalBanks() const { return channels * banksPerChannel(); }
    /** Logical synapses one FF mat holds. */
    long long synapsesPerMat() const
    {
        return static_cast<long long>(matRows) * matCols;
    }
    /** Logical synapses one bank's FF subarrays hold. */
    long long synapsesPerBank() const
    {
        return static_cast<long long>(ffSubarraysPerBank) *
               matsPerSubarray * synapsesPerMat();
    }
    /** Max NN size mappable across all banks. */
    long long maxSynapses() const
    {
        return synapsesPerBank() * totalBanks();
    }
};

/** Timing parameters of the ReRAM main memory and the FF datapath. */
struct TimingParams
{
    /** Row activate (tRCD). [mem] */
    Ns tRcd = 22.5;
    /** Column access (tCL). [mem] */
    Ns tCl = 9.8;
    /** Precharge (tRP). [mem] */
    Ns tRp = 0.5;
    /** Write recovery (tWR). [mem] */
    Ns tWr = 41.4;
    /** Write-to-read turnaround on a bank (tWTR-class). [mem] */
    Ns tWtr = 10.0;
    /** IO bus frequency. [mem] */
    GigaHertz busGHz = 0.533;
    /** Bus width in bytes per chip pin group x chips (64-bit channel). */
    int channelBytes = 8;
    /** Double data rate on the IO bus. */
    bool ddr = true;

    /** Wordline drive + crossbar settle per analog pass. [cal] */
    Ns matDriveSettle = 10.0;
    /** Reconfigurable SA clock. [cal] */
    GigaHertz saClockGHz = 2.0;
    /** Cycles per SA conversion at precision p (SAR: p cycles). */
    Ns saConversion(int bits) const { return bits / saClockGHz; }
    /** Sigmoid/subtraction analog propagation per output. [63] */
    Ns analogFunctionDelay = 1.0;
    /** Buffer-subarray access latency through the connection unit. [cal] */
    Ns bufferAccess = 6.0;
    /** Connection-unit bandwidth FF <-> Buffer, bytes per ns. [cal] */
    double bufferBytesPerNs = 32.0;
    /** Global data line transfer, bytes per ns within a chip. [cal] */
    double gdlBytesPerNs = 16.0;
    /** Inter-bank hop via the shared internal bus (RowClone-style [76]). */
    Ns interBankHop = 20.0;
    /**
     * Bandwidth of the internal bus shared by all banks of a chip,
     * used for inter-bank transfers (RowClone-style [76]); roughly the
     * channel data rate, far below per-bank GDL bandwidth.
     */
    double internalBusBytesPerNs = 3.0;
    /** MLC write-verify time per cell row during weight programming. */
    Ns mlcProgramPerRow = 1000.0;

    /** Peak DRAM-style channel bandwidth in bytes/ns (GB/s). */
    double
    channelBandwidth() const
    {
        return busGHz * (ddr ? 2.0 : 1.0) * channelBytes;
    }
};

/** Energy parameters (all pJ). */
struct EnergyParams
{
    /** Crossbar compute pass, per cell. [cal, ISAAC-class analog MVM] */
    PicoJoule crossbarPerCellPass = 0.0005;
    /** One SA conversion at full Po precision. [64][cal] */
    PicoJoule saConversion = 1.5;
    /** One multi-level wordline drive (latch+amp) per pass. [cal] */
    PicoJoule wordlineDrive = 1.0;
    /** Analog subtraction per output per pass. [cal] */
    PicoJoule subtraction = 0.05;
    /** Analog sigmoid per output. [63] */
    PicoJoule sigmoid = 0.1;
    /** ReLU/max-pool digital logic per output. [cal] */
    PicoJoule reluOrPool = 0.02;
    /** Buffer subarray (ReRAM SLC) access, per bit read. [cal] */
    PicoJoule bufferReadPerBit = 0.5;
    /** Buffer subarray access, per bit written. [cal] */
    PicoJoule bufferWritePerBit = 2.0;
    /** Mem subarray read, per bit, including local periphery. [20][cal] */
    PicoJoule memReadPerBit = 2.0;
    /** Mem subarray write (SET/RESET), per bit. [20][cal] */
    PicoJoule memWritePerBit = 15.0;
    /** Global data line transfer within a chip, per bit. [cal] */
    PicoJoule gdlPerBit = 2.0;
    /** Off-chip IO, per bit (CACTI-IO class DDR). [83] */
    PicoJoule offChipPerBit = 20.0;
    /** MLC weight programming with write-verify, per cell. [84] */
    PicoJoule mlcProgramPerCell = 100.0;
    /** PRIME controller overhead per executed command. [cal] */
    PicoJoule controllerPerCommand = 5.0;
};

/** Area parameters (um^2), 65 nm-class peripheral CMOS. */
struct AreaParams
{
    /** Lithographic feature size in um. */
    double featureUm = 0.065;
    /** Crossbar cell footprint: 4F^2. */
    SquareUm cellArea() const { return 4.0 * featureUm * featureUm; }

    // Standard-mat peripheral blocks (per mat, NVSim-style). [cal]
    SquareUm rowDecoder = 900.0;
    SquareUm standardWlDrivers = 1100.0;
    SquareUm columnMux = 700.0;
    SquareUm standardSenseAmps = 1100.0;
    SquareUm writeDrivers = 800.0;

    // FF-mat additions (Figure 4, blue blocks). [cal -> Figure 12]
    /** Multi-level voltage sources, latches, current amps (block A). */
    SquareUm ffDriverAddition = 2070.0;
    /** Analog subtraction units (block B). */
    SquareUm ffSubtraction = 1170.0;
    /** Analog sigmoid units (block B). */
    SquareUm ffSigmoid = 1440.0;
    /** SA upgrades: counters, precision control, ReLU, max-pool (block C). */
    SquareUm ffSaUpgrade = 310.0;
    /** Extra mux/control/config registers (blocks B/E glue). */
    SquareUm ffControlMux = 410.0;

    // Bank/chip-level blocks. [cal]
    /** PRIME controller per bank (block E). */
    SquareUm primeController = 40000.0;
    /** FF <-> Buffer connection unit per bank (block D). */
    SquareUm bufferConnection = 25000.0;
    /** Non-subarray bank overhead (global row buffer, GDL, control). */
    SquareUm bankFixedOverhead = 200000.0;
};

/** Bundle of everything the component models need. */
struct TechParams
{
    Geometry geometry;
    TimingParams timing;
    EnergyParams energy;
    AreaParams area;
    reram::DeviceParams device;

    /** Composing-scheme bit widths used by the PRIME datapath. */
    int inputBits = 6;
    int inputPhaseBits = 3;
    int weightBits = 8;
    int cellBits = 4;
    int outputBits = 6;
};

/** The paper's default configuration. */
TechParams defaultTechParams();

/**
 * Apply the recognized Config keys onto @p params:
 *
 *   geometry.channels, geometry.ff_subarrays, geometry.mats_per_subarray,
 *   geometry.subarrays_per_bank,
 *   timing.sa_clock_ghz, timing.bus_ghz, timing.buffer_bytes_per_ns,
 *   timing.internal_bus_bytes_per_ns,
 *   datapath.input_bits, datapath.weight_bits, datapath.output_bits,
 *   device.r_on, device.r_off, device.program_variation
 *
 * Unrecognized keys are fatal (typos must not silently run defaults),
 * and so is datapath.weight_bits above 14.
 */
void applyConfig(const Config &config, TechParams &params);

/**
 * DDR3-class DRAM timings, used to evaluate the Section II-A claim that
 * the performance-optimized ReRAM design stays within ~10% of DRAM.
 */
TimingParams dramLikeTimings();

/**
 * Unoptimized ReRAM timings: the raw ~5x write penalty before the
 * architectural optimizations of Xu et al. [20].
 */
TimingParams naiveReramTimings();

} // namespace prime::nvmodel

#endif // PRIME_NVMODEL_TECH_PARAMS_HH
