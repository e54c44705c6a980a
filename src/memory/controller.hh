/**
 * @file
 * The per-channel memory controller: request/scheduling vocabulary
 * (Request, SchedulerConfig, Burst) plus the MemoryController that
 * owns one channel's data-bus cursor, its bank shards and the FR-FCFS
 * policy arbitrating CPU and PRIME traffic at that channel.
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
 *  - The timing state (bank FSMs, stat shards, the channel cursor,
 *    the PRIME horizon, the queue scratch) has exactly one writer at a
 *    time: the thread running a timing pass (MainMemory::schedule,
 *    access, scheduleBatch, resetStats).  PRIME logs its Fetch/Commit
 *    transfers on the stage threads and replays them in one
 *    single-threaded pass per public call, so no two threads ever
 *    schedule against one controller at once, and no lock is taken.
 *  - The metrics sampler thread reads only the occupancy values
 *    (channelFree, bankBacklogNs, bankReads, bankWrites).  Those are
 *    relaxed atomics, each with that single writer, so the sampler
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
#include <memory>
#include <span>
#include <vector>

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

/** Number of RequestSource classes (stat-shard array size). */
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

/**
 * FR-FCFS policy knobs.  Callers choose these once (MainMemory
 * constructor) or per batch; nothing in the request path hardcodes a
 * window any more.
 */
struct SchedulerConfig
{
    /** Row-hit lookahead: how many pending requests are inspected. */
    int window = 16;
    /**
     * Starvation bound: after the oldest pending request has been
     * bypassed this many consecutive times by younger row hits, it is
     * scheduled next regardless of row state.  The oldest request
     * therefore waits at most maxBypass row-hit services, never an
     * unbounded row-hit stream.
     */
    int maxBypass = 4;
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
    /** Latest dataReady per source (the class's makespan horizon). */
    Ns sourceLastReady[kRequestSources] = {};
};

/**
 * One channel's controller.  See the file comment for which thread may
 * call what.
 */
class MemoryController
{
  public:
    MemoryController(int channel, const nvmodel::TechParams &params,
                     PagePolicy policy);

    int channel() const { return channel_; }
    int banks() const { return static_cast<int>(shards_.size()); }

    /** Schedule one request immediately (FCFS semantics). */
    RequestResult access(const Request &request, const Location &loc);

    /**
     * FR-FCFS over one bank's pending queue (all entries must decode
     * to the same bank of this channel, oldest first), per @p sched:
     * within a lookahead window of sched.window requests a row-buffer
     * hit is preferred, but the oldest request is never bypassed more
     * than sched.maxBypass consecutive times.  Appends the
     * completions, in completion order, to @p results unless it is
     * null.  The queue order lives in index scratch the controller
     * reuses across calls, so a steady stream of queues allocates
     * nothing.  Timing-writer only (see the file comment).
     */
    void scheduleBankQueue(std::span<const PendingRequest> pending,
                           const SchedulerConfig &sched,
                           std::vector<RequestResult> *results);

    /**
     * Replay one bank group of a recorded transfer: @p group's bursts
     * (all to one bank of this channel, address order) issue at
     * @p issue with direction @p is_write and source @p source, as one
     * FR-FCFS queue under @p sched -- the completions
     * scheduleBankQueue gives the same bursts as requests.
     *
     * The group's row tags never decrease (recordTransfer asserts it:
     * within a bank, addresses order the tags), so each row's bursts
     * are adjacent.  After a burst is served the open row is its own
     * row (or none, under PagePolicy::Closed), so the only hit FR-FCFS
     * can find is the oldest burst: the group is served oldest first
     * -- its cold order -- unless the bank starts open on one of the
     * group's rows after its first.  Only that warm start runs the
     * FR-FCFS selection.  Allocates nothing once the queue scratch has
     * grown to the largest warm group.  Timing-writer only.
     */
    void scheduleGroup(std::span<const Burst> group, Ns issue,
                       bool is_write, RequestSource source,
                       const SchedulerConfig &sched);

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
     * Physical wordline tag for the row buffer (row x subarray x mat).
     * 64-bit: the constructor asserts the configured geometry cannot
     * overflow it, so tags never alias.
     */
    std::int64_t rowTag(const Location &loc) const;

    /** Direct bank access (timing writer's thread, between passes). */
    const BankModel &bank(int channel_bank) const;
    BankModel &bank(int channel_bank);

    /** Fold every shard into absolute channel totals. */
    ChannelTotals totals() const;

    /** Channel-aggregate row-buffer hit rate. */
    double rowHitRate() const;

    /**
     * Zero every shard's counters/histograms and the banks' hit/miss
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
    /** Read/write counters of one bank (occupancy values: any
     *  thread). */
    std::uint64_t bankReads(int channel_bank) const;
    std::uint64_t bankWrites(int channel_bank) const;

  private:
    /**
     * One bank's timing state machine plus the stat shard its accesses
     * sample into.  The occupancy values the sampler reads are relaxed
     * atomics: the counters themselves, and a copy of the bank's
     * next-free time stored after every access.
     */
    struct BankShard
    {
        BankModel bank;
        std::atomic<std::uint64_t> reads{0};
        std::atomic<std::uint64_t> writes{0};
        std::atomic<Ns> nextFree{0.0};
        double bytes = 0.0;
        telemetry::Histogram queueNs;
        /** Service latency per RequestSource; totals() merges them into
         *  the all-source histogram. */
        telemetry::Histogram sourceServiceNs[kRequestSources];
        Ns sourceLastReady[kRequestSources] = {};

        BankShard(const nvmodel::TimingParams &timing, PagePolicy policy)
            : bank(timing, policy)
        {}
    };

    /** The shard owning channel-local bank @p channel_bank. */
    BankShard &shard(int channel_bank) const;

    /**
     * The per-burst step every path shares: serve @p burst, issued at
     * @p issue, at its bank and then on this channel's bus, and sample
     * it into the bank's stat shard @p sh.  Returns the bank access;
     * @p data_ready gets the time the data finished moving over the
     * channel.  Inline: the timing pass calls it once per burst.
     */
    BankAccess
    serve(BankShard &sh, const Burst &burst, Ns issue, bool is_write,
          RequestSource source, Ns &data_ready)
    {
        const BankAccess bank = sh.bank.access(issue, burst.rowTag, is_write);
        sh.nextFree.store(sh.bank.nextFree(), std::memory_order_relaxed);

        // The data burst serializes on this channel after the bank has
        // the data (read) or before the bank commits it (write, modeled
        // symmetrically).  One timing writer: a plain advance of the
        // cursor.
        data_ready = std::max(bank.complete,
                              channelFree_.load(std::memory_order_relaxed)) +
                     burst.busNs;
        channelFree_.store(data_ready, std::memory_order_relaxed);

        // Stat shard: the hot path never touches a shared StatGroup (row
        // hits/misses stay in the BankModel counters).
        std::atomic<std::uint64_t> &count = is_write ? sh.writes : sh.reads;
        count.store(count.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
        sh.bytes += burst.bytes;
        // Modeled latency split: time queued behind the bank/row state
        // vs. total service (queue + bank + channel burst).
        sh.queueNs.sample(bank.start - issue);
        const std::size_t src = static_cast<std::size_t>(source);
        sh.sourceServiceNs[src].sample(data_ready - issue);
        sh.sourceLastReady[src] =
            std::max(sh.sourceLastReady[src], data_ready);
        if (source == RequestSource::Prime)
            primeHorizon_ = std::max(primeHorizon_, data_ready);
        return bank;
    }

    int channel_;
    nvmodel::TimingParams timing_;
    nvmodel::Geometry geometry_;
    /** unique_ptr: BankShard holds atomics, which do not move. */
    std::vector<std::unique_ptr<BankShard>> shards_;
    /** Timing writer only writes it; atomic for the sampler. */
    std::atomic<Ns> channelFree_{0.0};
    Ns primeHorizon_ = 0.0;
    /** Queue scratch: scheduleBankQueue's row tag per entry, and the
     *  FR-FCFS queue order as indices into the queue (grown to the
     *  largest queue seen, then reused). */
    std::vector<std::int64_t> tags_;
    std::vector<std::size_t> order_;
};

} // namespace prime::memory

#endif // PRIME_MEMORY_CONTROLLER_HH
