/**
 * @file
 * The per-channel memory controller: request/scheduling vocabulary
 * (Request, Burst, the FR-FCFS constants) plus the MemoryController
 * that owns one channel's data-bus cursor, its banks, its stat books
 * and the FR-FCFS policy arbitrating CPU and PRIME traffic at that
 * channel.
 *
 * Layering: MemoryController sits below memory::MainMemory, which
 * owns one controller per configured channel and routes decoded
 * requests to them.  PRIME's buffer/morph and pipeline Fetch/Commit
 * traffic and the synthetic CPU streams (cpu_traffic.hh) meet at the
 * same controllers, so channel-level interference between the two
 * request classes is modeled rather than assumed away.
 *
 * Two ways in, one scheduler.  scheduleBankQueue takes decoded
 * requests with their own issue times (scheduleBatch); scheduleGroup
 * replays a bank group of a recorded transfer, whose Bursts were
 * compiled to row tag, bus time and byte count when it was recorded.
 * A group is served oldest first with no FR-FCFS scan unless its bank
 * is already open on one of the group's later rows (see scheduleGroup
 * for why); only such a warm start runs the FR-FCFS selection.  Both
 * paths, and access, serve each burst through one per-burst step.
 *
 * Thread safety -- one timing writer, one kind of concurrent reader:
 *  - The timing state (bank FSMs, the channel's stat books, the
 *    channel cursor, the PRIME horizon, the queue scratch) has exactly
 *    one writer at a time: the thread running a timing pass
 *    (MainMemory::schedule, access, scheduleBatch, resetStats).  PRIME
 *    logs its Fetch/Commit transfers on the stage threads and replays
 *    them in one single-threaded pass per public call, so no two
 *    threads ever schedule against one controller at once, and no lock
 *    is taken.  With one writer, one set of books per channel is
 *    enough: nothing is sharded per bank.
 *  - Another thread reads only the occupancy values (channelFree,
 *    bankBacklogNs, the banks' read/write counters, which are Stats of
 *    MainMemory::occupancy()) and lastReadyNs.  Those are relaxed
 *    atomics, each with that single writer, so the metrics sampler
 *    never races the pass; it may see one bank's counters a burst
 *    apart from another's.
 *  - Everything else (totals, rowHitRate, bank, primeHorizon) is read
 *    by the timing writer's thread, between passes.
 */

#ifndef PRIME_MEMORY_CONTROLLER_HH
#define PRIME_MEMORY_CONTROLLER_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/stats.hh"
#include "common/telemetry/histogram.hh"
#include "memory/address.hh"
#include "memory/bank.hh"
#include "nvmodel/tech_params.hh"

namespace prime::memory {

/**
 * Who issued a request.  The paper's Figure 8 claim -- FF compute does
 * not steal Mem bandwidth -- is only checkable when the controller can
 * attribute latency per class, so every request carries its origin.
 */
enum class RequestSource : std::uint8_t
{
    Prime = 0,  ///< PRIME buffer/morph + pipeline Fetch/Commit traffic
    Cpu = 1,    ///< co-running CPU traffic (cpu_traffic.hh)
};

/** Number of RequestSource classes (per-source array size). */
inline constexpr std::size_t kRequestSources = 2;

/** One memory request as seen by the controller. */
struct Request
{
    std::uint64_t addr = 0;
    std::uint32_t bytes = 64;
    bool isWrite = false;
    /** Earliest time the request may be scheduled. */
    Ns issue = 0.0;
    RequestSource source = RequestSource::Prime;
};

/** Completion record for a scheduled request. */
struct RequestResult
{
    Request request;
    Location location;
    BankAccess bank;
    /** Time the data finished moving over the channel. */
    Ns dataReady = 0.0;
};

/** FR-FCFS row-hit lookahead: how many pending requests of a bank
 *  queue are inspected for a hit on the open row. */
inline constexpr int kFrFcfsWindow = 16;

/**
 * FR-FCFS starvation bound: after the oldest pending request has been
 * bypassed this many consecutive times by younger row hits, it is
 * scheduled next regardless of row state.  The oldest request
 * therefore waits at most this many row-hit services, never an
 * unbounded row-hit stream.
 */
inline constexpr int kFrFcfsMaxBypass = 4;

/** One bank's occupancy counters: Stats of MainMemory::occupancy(),
 *  bound when the memory is built. */
struct BankCounters
{
    Stat *reads = nullptr;
    Stat *writes = nullptr;
};

/**
 * One burst of a recorded transfer, compiled to what its timing reads
 * (MainMemory::recordTransfer): the row-buffer tag, the time on the
 * channel's data bus and the byte count, plus the bank it goes to.
 * Its issue time, direction and source belong to the transfer.
 */
struct Burst
{
    /** MemoryController::rowTag of the burst's first byte. */
    std::int64_t rowTag = 0;
    /** Channel-bus time, MemoryController::busNs(bytes). */
    Ns busNs = 0.0;
    std::uint32_t bytes = 0;
    std::uint16_t channel = 0;
    /** Channel-local bank (chip * banksPerChip + bank). */
    std::uint16_t bank = 0;
};

/** A decoded request waiting in a controller's scheduling queue. */
struct PendingRequest
{
    Request request;
    Location location;
};

/** Aggregated per-channel totals (stat publication, quiescent reads). */
struct ChannelTotals
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    double bytes = 0.0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    telemetry::Histogram queueNs;
    telemetry::Histogram serviceNs;
    /** Per-RequestSource service latency (index by RequestSource). */
    telemetry::Histogram sourceServiceNs[kRequestSources];
};

/**
 * One channel's controller.  See the file comment for which thread may
 * call what.
 */
class MemoryController
{
  public:
    /** @p counters: one entry per channel-local bank, in bank order. */
    MemoryController(int channel, const nvmodel::TechParams &params,
                     std::span<const BankCounters> counters);

    int channel() const { return channel_; }
    int banks() const { return static_cast<int>(banks_.size()); }

    /** Schedule one request immediately (FCFS semantics). */
    RequestResult access(const Request &request, const Location &loc);

    /**
     * FR-FCFS over one bank's pending queue (all entries must decode
     * to the same bank of this channel, oldest first): within a
     * lookahead window of kFrFcfsWindow requests a row-buffer hit is
     * preferred, but the oldest request is never bypassed more than
     * kFrFcfsMaxBypass consecutive times.  Appends the
     * completions, in completion order, to @p results unless it is
     * null.  The queue order lives in index scratch the controller
     * reuses across calls, so a steady stream of queues allocates
     * nothing.  Timing-writer only (see the file comment).
     */
    void scheduleBankQueue(std::span<const PendingRequest> pending,
                           std::vector<RequestResult> *results);

    /**
     * Replay one bank group of a recorded transfer: @p group's bursts
     * (all to one bank of this channel, address order) issue at
     * @p issue with direction @p is_write and source @p source, as one
     * FR-FCFS queue -- the completions scheduleBankQueue gives the
     * same bursts as requests.
     *
     * The group's row tags never decrease (recordTransfer asserts it:
     * within a bank, addresses order the tags), so each row's bursts
     * are adjacent.  After a burst is served the open row is its own
     * row, so the only hit FR-FCFS can find is the oldest burst: the
     * group is served oldest first -- its cold order -- unless the bank
     * starts open on one of the group's rows after its first.  Only
     * that warm start runs the FR-FCFS selection.  Allocates nothing
     * once the queue scratch has grown to the largest warm group.
     * Timing-writer only.
     */
    void scheduleGroup(std::span<const Burst> group, Ns issue,
                       bool is_write, RequestSource source);

    /** Time @p bytes take on this channel's data bus. */
    Ns
    busNs(std::uint32_t bytes) const
    {
        return bytes / timing_.channelBandwidth();
    }

    /** Earliest time this channel's data bus is free (any thread). */
    Ns
    channelFree() const
    {
        return channelFree_.load(std::memory_order_relaxed);
    }

    /**
     * Latest PRIME-class completion this channel has served: the
     * progress a co-run CPU stream is paced against (see
     * CpuTrafficOptions::paceLeadNs).  Monotonic like the channel
     * cursor; resetStats leaves it alone.  Timing-writer only.
     */
    Ns primeHorizon() const { return primeHorizon_; }

    /**
     * Latest completion of @p source since the last resetStats (the
     * class's makespan horizon; any thread).
     */
    Ns
    lastReadyNs(RequestSource source) const
    {
        return sourceLastReady_[static_cast<std::size_t>(source)].load(
            std::memory_order_relaxed);
    }

    /**
     * Physical wordline tag for the row buffer (row x subarray x mat).
     * 64-bit: the constructor asserts the configured geometry cannot
     * overflow it, so tags never alias.
     */
    std::int64_t rowTag(const Location &loc) const;

    /** Direct bank access (timing writer's thread, between passes). */
    const BankModel &bank(int channel_bank) const;
    BankModel &bank(int channel_bank);

    /** The channel's books and its banks' counters as absolute
     *  totals. */
    ChannelTotals totals() const;

    /** Channel-aggregate row-buffer hit rate. */
    double rowHitRate() const;

    /**
     * Zero the channel's books and the banks' read/write and hit/miss
     * counters (post-warm-up stat reset).  Timing state -- channel
     * cursor, open rows, busy horizons -- is kept: the modeled
     * hardware stays warm, only the accounting restarts.
     */
    void resetStats();

    /**
     * Backlog of one bank: how far its timing cursor runs ahead of
     * this channel's bus cursor (an occupancy value: any thread).
     */
    Ns bankBacklogNs(int channel_bank) const;

  private:
    /**
     * One bank: its timing state machine, a copy of its next-free time
     * stored after every access, and its occupancy counters.  The
     * sampler reads the copy through a relaxed std::atomic_ref
     * (mutable so a const reader can; an atomic member would pin the
     * bank in place) and the counters as Stats, whose fields are
     * relaxed atomics too.
     */
    struct Bank
    {
        BankModel model;
        mutable Ns nextFree = 0.0;
        BankCounters counters;
    };

    /** Channel-local bank @p channel_bank. */
    Bank &bankAt(int channel_bank);
    const Bank &bankAt(int channel_bank) const;

    /**
     * The per-burst step every path shares: serve @p burst, issued at
     * @p issue, at bank @p b and then on this channel's bus, and
     * sample it into the bank's counters and the channel's books.
     * Returns the bank access; @p data_ready gets the time the data
     * finished moving over the channel.  Inline: the timing pass calls
     * it once per burst.
     */
    BankAccess
    serve(Bank &b, const Burst &burst, Ns issue, bool is_write,
          RequestSource source, Ns &data_ready)
    {
        const BankAccess bank = b.model.access(issue, burst.rowTag, is_write);
        std::atomic_ref<Ns>(b.nextFree).store(b.model.nextFree(),
                                              std::memory_order_relaxed);

        // The data burst serializes on this channel after the bank has
        // the data (read) or before the bank commits it (write, modeled
        // symmetrically).  One timing writer: a plain advance of the
        // cursor.
        data_ready = std::max(bank.complete,
                              channelFree_.load(std::memory_order_relaxed)) +
                     burst.busNs;
        channelFree_.store(data_ready, std::memory_order_relaxed);

        // Row hits/misses stay in the BankModel counters.
        (is_write ? b.counters.writes : b.counters.reads)->increment();
        bytes_ += burst.bytes;
        // Modeled latency split: time queued behind the bank/row state
        // vs. total service (queue + bank + channel burst).
        queueNs_.sample(bank.start - issue);
        const std::size_t src = static_cast<std::size_t>(source);
        sourceServiceNs_[src].sample(data_ready - issue);
        std::atomic<Ns> &last = sourceLastReady_[src];
        if (data_ready > last.load(std::memory_order_relaxed))
            last.store(data_ready, std::memory_order_relaxed);
        if (source == RequestSource::Prime)
            primeHorizon_ = std::max(primeHorizon_, data_ready);
        return bank;
    }

    int channel_;
    nvmodel::TimingParams timing_;
    nvmodel::Geometry geometry_;
    std::vector<Bank> banks_;
    /** Timing writer only writes it; atomic for the sampler. */
    std::atomic<Ns> channelFree_{0.0};
    Ns primeHorizon_ = 0.0;
    /** The channel's books since the last resetStats: bytes moved,
     *  queueing latency, service latency per RequestSource (totals()
     *  merges them into the all-source histogram) and the latest
     *  completion per source (atomic for the readers of
     *  lastReadyNs). */
    double bytes_ = 0.0;
    telemetry::Histogram queueNs_;
    telemetry::Histogram sourceServiceNs_[kRequestSources];
    std::atomic<Ns> sourceLastReady_[kRequestSources]{};
    /** Queue scratch: scheduleBankQueue's row tag per entry, and the
     *  FR-FCFS queue order as indices into the queue (grown to the
     *  largest queue seen, then reused). */
    std::vector<std::int64_t> tags_;
    std::vector<std::size_t> order_;
};

} // namespace prime::memory

#endif // PRIME_MEMORY_CONTROLLER_HH
