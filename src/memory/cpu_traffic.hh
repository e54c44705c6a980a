/**
 * @file
 * Synthetic CPU co-run traffic for the PRIME interference study.
 *
 * Section VI's co-run question -- how much does FF-mode compute slow
 * down when the host CPU keeps hammering the same memory -- needs a
 * CPU-side load generator.  This one is a seeded, pull-based stream of
 * requests tagged RequestSource::Cpu at a configurable fraction of the
 * aggregate peak channel bandwidth, in the three canonical shapes:
 * streaming (unit stride, row-buffer friendly), random (uniform lines,
 * row-buffer hostile), and pointer-chase (dependent loads, latency
 * bound).  Nothing runs on its own thread: the caller pulls requests in
 * modeled-arrival order (issueUntil), and a co-run attaches the stream
 * to MainMemory::setCoRun so PRIME's timing pass merges it.
 */

#ifndef PRIME_MEMORY_CPU_TRAFFIC_HH
#define PRIME_MEMORY_CPU_TRAFFIC_HH

#include <cstdint>

#include "common/rng.hh"
#include "common/telemetry/histogram.hh"
#include "memory/main_memory.hh"

namespace prime::memory {

/** CPU access-pattern families. */
enum class CpuPattern
{
    Streaming,     ///< unit-stride lines (row-buffer friendly)
    Random,        ///< uniform random lines (row-buffer hostile)
    PointerChase,  ///< dependent loads: each issue waits for the last
};

const char *cpuPatternName(CpuPattern pattern);

/** CPU traffic-generator configuration. */
struct CpuTrafficOptions
{
    CpuPattern pattern = CpuPattern::Streaming;
    /**
     * Offered load as a fraction of the aggregate peak channel
     * bandwidth (channels x channelBandwidth).  1.0 saturates every
     * data bus with CPU traffic alone; >1.0 oversubscribes.  The
     * generator is open-loop for Streaming/Random: arrival gaps are
     * exponential with this mean rate regardless of completions.
     */
    double intensity = 0.5;
    /** Request size in bytes (one DDR burst by default). */
    std::uint32_t bytes = 64;
    /** Fraction of writes. */
    double writeFraction = 0.3;
    unsigned long long seed = 1;
    /**
     * Co-run pacing lead, in modeled ns: attached to a MainMemory
     * (setCoRun), the stream's requests issue before a PRIME transfer
     * once their arrival is at most the PRIME side's latest completion
     * (MainMemory::primeProgressNs) plus this lead.  The two request
     * streams so interleave in modeled time -- the channel cursors
     * have no backfill, so issuing the whole CPU window first would
     * degenerate the co-run into back-to-back solo runs.  A solo run
     * (issueUntil on its own) does not read it.
     */
    Ns paceLeadNs = 0.0;
};

/** What a generator has issued and observed so far. */
struct CpuRunStats
{
    std::uint64_t requests = 0;
    double bytes = 0.0;
    /** Per-request service latency (dataReady - issue). */
    telemetry::Histogram serviceNs;
    /** Modeled time of the last completion. */
    Ns lastDataReady = 0.0;
};

/**
 * A fixed-length stream of the configured traffic against one
 * MainMemory.  Modeled arrivals start at the memory's channel-free
 * horizon at construction, so a stream lands on warm hardware rather
 * than backfilling the past; the same options, seed and memory state
 * give the same requests.
 */
class CpuTrafficGenerator
{
  public:
    /** A stream of @p requests requests (none at intensity 0). */
    CpuTrafficGenerator(MainMemory &mem, const CpuTrafficOptions &options,
                        std::uint64_t requests);

    /**
     * Issue, in arrival order, every remaining request whose modeled
     * arrival is at most @p horizon (+infinity: the rest of the
     * stream).  A pointer-chase request arrives no earlier than its
     * predecessor's data.
     */
    void issueUntil(Ns horizon);

    /** Requests not yet issued. */
    std::uint64_t remaining() const { return remaining_; }

    /** What was issued and observed so far. */
    const CpuRunStats &stats() const { return stats_; }

    const CpuTrafficOptions &options() const { return options_; }

  private:
    /** Next request address per the configured pattern. */
    std::uint64_t nextAddr();

    /** Draw the next exponential inter-arrival gap onto arrival_. */
    void drawArrival();

    MainMemory &mem_;
    CpuTrafficOptions options_;
    Rng rng_;
    std::uint64_t regionLines_ = 0;
    std::uint64_t streamLine_ = 0;
    std::uint64_t remaining_ = 0;
    /** Mean inter-arrival gap, ns. */
    double meanGap_ = 0.0;
    /** Modeled arrival of the next request. */
    Ns arrival_ = 0.0;
    CpuRunStats stats_;
};

} // namespace prime::memory

#endif // PRIME_MEMORY_CPU_TRAFFIC_HH
