/**
 * @file
 * Synthetic memory-trace generation and replay.
 *
 * Section II-A of the paper adopts the performance-optimized ReRAM main
 * memory of Xu et al. [20], whose claim is that architectural
 * techniques bring optimized ReRAM "within 10%" of DRAM despite the
 * ~5x slower writes.  This module generates the canonical access
 * patterns (streams, uniform random, hot-spot, row-local) and replays
 * them through the MainMemory model so that claim can be evaluated
 * against a DRAM-timed configuration (bench_memory_gap).
 */

#ifndef PRIME_SIM_TRACE_HH
#define PRIME_SIM_TRACE_HH

#include <string>
#include <vector>

#include "memory/main_memory.hh"

namespace prime::sim {

/** Access-pattern families. */
enum class TracePattern
{
    SequentialStream,  ///< unit-stride lines (row-buffer friendly)
    RandomUniform,     ///< uniform lines over the whole capacity
    HotSpot,           ///< 90% of accesses to a small hot region
    RowLocal,          ///< random rows, several hits within each
    SingleBankRandom,  ///< random rows confined to one bank (exposes
                       ///< bank timing rather than channel limits)
};

const char *tracePatternName(TracePattern pattern);

/** Trace generator configuration. */
struct TraceOptions
{
    TracePattern pattern = TracePattern::SequentialStream;
    /** Number of requests. */
    int count = 4096;
    /** Fraction of writes. */
    double writeFraction = 0.2;
    /** Request size in bytes. */
    std::uint32_t bytes = 64;
    unsigned long long seed = 1;
};

/** Generate a backlogged request stream (all issue times zero). */
std::vector<memory::Request>
generateTrace(const memory::AddressMapper &mapper,
              const TraceOptions &options);

/** Aggregate results of replaying a trace. */
struct TraceResult
{
    /** Completion time of the last request. */
    Ns makespan = 0.0;
    /** Achieved bandwidth in bytes/ns (== GB/s). */
    double bandwidth = 0.0;
    /** Row-buffer hit rate. */
    double rowHitRate = 0.0;
    /** Mean request service time. */
    Ns meanLatency = 0.0;
};

/** Replay through FR-FCFS scheduling and summarize. */
TraceResult runTrace(memory::MainMemory &memory,
                     std::vector<memory::Request> requests);

} // namespace prime::sim

#endif // PRIME_SIM_TRACE_HH
