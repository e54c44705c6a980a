#include "sim/trace.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

namespace prime::sim {

namespace {

/** HotSpot: the hot region's fraction of capacity. */
constexpr double kHotFraction = 0.01;
/** RowLocal: accesses per touched row. */
constexpr int kBurstsPerRow = 8;

} // namespace

const char *
tracePatternName(TracePattern pattern)
{
    switch (pattern) {
      case TracePattern::SequentialStream: return "stream";
      case TracePattern::RandomUniform: return "random";
      case TracePattern::HotSpot: return "hotspot";
      case TracePattern::RowLocal: return "row-local";
      case TracePattern::SingleBankRandom: return "single-bank";
    }
    return "?";
}

std::vector<memory::Request>
generateTrace(const memory::AddressMapper &mapper,
              const TraceOptions &options)
{
    PRIME_ASSERT(options.count > 0, "count=", options.count);
    Rng rng(options.seed);
    const std::uint64_t capacity = mapper.capacityBytes();
    const std::uint64_t line = options.bytes;
    const std::uint64_t lines = capacity / line;

    std::vector<memory::Request> trace;
    trace.reserve(static_cast<std::size_t>(options.count));

    auto push = [&](std::uint64_t line_index) {
        memory::Request r;
        r.addr = (line_index % lines) * line;
        r.bytes = options.bytes;
        r.isWrite = rng.bernoulli(options.writeFraction);
        r.issue = 0.0;
        trace.push_back(r);
    };

    switch (options.pattern) {
      case TracePattern::SequentialStream: {
        const std::uint64_t base = static_cast<std::uint64_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(lines - 1)));
        for (int i = 0; i < options.count; ++i)
            push(base + static_cast<std::uint64_t>(i));
        break;
      }
      case TracePattern::RandomUniform: {
        for (int i = 0; i < options.count; ++i)
            push(static_cast<std::uint64_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(lines - 1))));
        break;
      }
      case TracePattern::HotSpot: {
        const std::uint64_t hot_lines = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(kHotFraction * lines));
        for (int i = 0; i < options.count; ++i) {
            if (rng.bernoulli(0.9))
                push(static_cast<std::uint64_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(hot_lines - 1))));
            else
                push(static_cast<std::uint64_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(lines - 1))));
        }
        break;
      }
      case TracePattern::SingleBankRandom: {
        // Lines within bank 0's first row stripe repeat every
        // banks*stripe; stay inside one stripe so every access hits the
        // same bank.
        const std::uint64_t stripe_lines =
            mapper.bytesPerMatRow() *
            static_cast<std::uint64_t>(
                mapper.geometry().matsPerSubarray) *
            mapper.geometry().subarraysPerBank / line;
        const std::uint64_t rows =
            lines / (stripe_lines *
                     static_cast<std::uint64_t>(
                         mapper.geometry().totalBanks()));
        for (int i = 0; i < options.count; ++i) {
            const std::uint64_t row = static_cast<std::uint64_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(rows - 1)));
            const std::uint64_t within = static_cast<std::uint64_t>(
                rng.uniformInt(0,
                               static_cast<std::int64_t>(stripe_lines -
                                                         1)));
            push(row * stripe_lines *
                     static_cast<std::uint64_t>(
                         mapper.geometry().totalBanks()) +
                 within);
        }
        break;
      }
      case TracePattern::RowLocal: {
        const std::uint64_t lines_per_row =
            std::max<std::uint64_t>(1,
                                    mapper.bytesPerMatRow() / line);
        int emitted = 0;
        while (emitted < options.count) {
            const std::uint64_t row_base =
                static_cast<std::uint64_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(lines - 1))) /
                lines_per_row * lines_per_row;
            for (int b = 0;
                 b < kBurstsPerRow && emitted < options.count;
                 ++b, ++emitted)
                push(row_base + static_cast<std::uint64_t>(rng.uniformInt(
                                    0, static_cast<std::int64_t>(
                                           lines_per_row - 1))));
        }
        break;
      }
    }
    return trace;
}

TraceResult
runTrace(memory::MainMemory &memory,
         std::vector<memory::Request> requests)
{
    PRIME_ASSERT(!requests.empty(), "empty trace");
    double bytes = 0.0;
    for (const memory::Request &r : requests)
        bytes += r.bytes;

    std::vector<memory::RequestResult> results =
        memory.scheduleBatch(std::move(requests));

    TraceResult out;
    double latency_sum = 0.0;
    for (const memory::RequestResult &r : results) {
        out.makespan = std::max(out.makespan, r.dataReady);
        latency_sum += r.dataReady - r.request.issue;
    }
    out.meanLatency = latency_sum / results.size();
    out.bandwidth = bytes / out.makespan;
    out.rowHitRate = memory.rowHitRate();
    return out;
}

} // namespace prime::sim
