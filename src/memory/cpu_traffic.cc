#include "memory/cpu_traffic.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace prime::memory {

const char *
cpuPatternName(CpuPattern pattern)
{
    switch (pattern) {
      case CpuPattern::Streaming: return "streaming";
      case CpuPattern::Random: return "random";
      case CpuPattern::PointerChase: return "pointer-chase";
    }
    return "?";
}

CpuTrafficGenerator::CpuTrafficGenerator(MainMemory &mem,
                                         const CpuTrafficOptions &options,
                                         std::uint64_t requests)
    : mem_(mem), options_(options), rng_(options.seed)
{
    PRIME_ASSERT(options_.intensity >= 0.0,
                 "intensity=", options_.intensity);
    PRIME_ASSERT(options_.bytes >= 1, "bytes=", options_.bytes);
    // The CPU's working region is the whole memory.
    regionLines_ = std::max<std::uint64_t>(
        1, mem_.mapper().capacityBytes() / AddressMapper::kLineBytes);
    streamLine_ = static_cast<std::uint64_t>(rng_.uniformInt(
        0, static_cast<std::int64_t>(regionLines_ - 1)));
    if (options_.intensity <= 0.0 || requests == 0)
        return;
    remaining_ = requests;
    // Offered load -> mean inter-arrival gap against the aggregate peak
    // bandwidth of all channels.
    const double peak =
        mem_.params().timing.channelBandwidth() * mem_.channels();
    meanGap_ = options_.bytes / (options_.intensity * peak);
    arrival_ = mem_.channelFree();
    drawArrival();
}

void
CpuTrafficGenerator::drawArrival()
{
    // Exponential (Poisson-process) gap; 1-u keeps log's argument in
    // (0, 1].
    arrival_ += -meanGap_ * std::log(1.0 - rng_.uniform());
}

std::uint64_t
CpuTrafficGenerator::nextAddr()
{
    std::uint64_t line = 0;
    switch (options_.pattern) {
      case CpuPattern::Streaming:
        line = streamLine_++ % regionLines_;
        break;
      case CpuPattern::Random:
      case CpuPattern::PointerChase:
        // The chase's data dependence lives in the issue-time chain,
        // not the address sequence: any uncached random walk has the
        // same row-buffer behavior as uniform draws.
        line = static_cast<std::uint64_t>(rng_.uniformInt(
            0, static_cast<std::int64_t>(regionLines_ - 1)));
        break;
    }
    return line * AddressMapper::kLineBytes;
}

void
CpuTrafficGenerator::issueUntil(Ns horizon)
{
    while (remaining_ > 0 && arrival_ <= horizon) {
        Request r;
        r.addr = nextAddr();
        r.bytes = options_.bytes;
        r.isWrite = rng_.bernoulli(options_.writeFraction);
        r.issue = arrival_;
        r.source = RequestSource::Cpu;
        const RequestResult result = mem_.access(r);
        --remaining_;
        stats_.requests += 1;
        stats_.bytes += r.bytes;
        stats_.serviceNs.sample(result.dataReady - r.issue);
        stats_.lastDataReady =
            std::max(stats_.lastDataReady, result.dataReady);
        // Dependent loads: the next address cannot issue before the
        // current data returned (closed-loop latency chain).
        if (options_.pattern == CpuPattern::PointerChase)
            arrival_ = std::max(arrival_, result.dataReady);
        if (remaining_ > 0)
            drawArrival();
    }
}

} // namespace prime::memory
