/**
 * @file
 * The per-channel memory controller: request/scheduling vocabulary
 * (Request, SchedulerConfig) plus the MemoryController that owns one
 * channel's data-bus cursor, its bank shards and the FR-FCFS policy
 * arbitrating CPU and PRIME traffic at that channel.
 *
 * Layering: MemoryController sits below memory::MainMemory, which
 * owns one controller per configured channel and routes decoded
 * requests to them.  PRIME's buffer/morph and pipeline Fetch/Commit
 * traffic and the synthetic CPU streams (cpu_traffic.hh) meet at the
 * same controllers, so channel-level interference between the two
 * request classes is modeled rather than assumed away.
 *
 * Thread safety -- the controller is the lock domain boundary:
 *  - Each bank shard (timing FSM + its latency/count stat shard) is
 *    guarded by that bank's own mutex; requests to different banks of
 *    one channel, and to any banks of different channels, proceed
 *    fully in parallel.
 *  - The channel cursor is an atomic reservation: a request claims
 *    its burst slot with a CAS max-advance, so channel time stays
 *    exclusive without any lock.  The cursor is owned by exactly this
 *    controller; no other channel's traffic ever touches it.
 *  - FR-FCFS batches are scheduled per bank (row hits only exist
 *    within a bank), holding one bank lock at a time.
 */

#ifndef PRIME_MEMORY_CONTROLLER_HH
#define PRIME_MEMORY_CONTROLLER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/mutex.hh"
#include "common/telemetry/histogram.hh"
#include "common/thread_annotations.hh"
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
 * One channel's controller.  See the file comment for the lock
 * domains; the shard-guarded members are PRIME_GUARDED_BY their shard
 * mutex and the locked-caller convention of accessShardLocked is a
 * PRIME_REQUIRES, enforced by the clang-tsa preset.
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
     * null.  The queue order lives in per-thread index scratch reused
     * across calls, so a steady stream of queues allocates nothing;
     * the PRIME-class horizon is published once, after the queue.
     */
    void scheduleBankQueue(std::span<const PendingRequest> pending,
                           const SchedulerConfig &sched,
                           std::vector<RequestResult> *results);

    /** Earliest time this channel's data bus is free. */
    Ns
    channelFree() const
    {
        return channelFree_.load(std::memory_order_acquire);
    }

    /**
     * Latest PRIME-class completion this channel has served -- a
     * lock-free progress signal a co-running traffic generator can
     * pace itself against (see CpuTrafficOptions::paceLeadNs).
     * Monotonic like the channel cursor; resetStats leaves it alone.
     */
    Ns
    primeHorizon() const
    {
        return primeHorizon_.load(std::memory_order_acquire);
    }

    /**
     * Physical wordline tag for the row buffer (row x subarray x mat).
     * 64-bit: the constructor asserts the configured geometry cannot
     * overflow it, so tags never alias.
     */
    std::int64_t rowTag(const Location &loc) const;

    /**
     * Direct bank access WITHOUT the shard lock -- a quiescent-
     * snapshot accessor for tests and single-threaded setup/teardown.
     * The analysis escape is deliberate: the bank is shard-guarded on
     * the concurrent timing path, and a caller using this handle
     * asserts no concurrent accesses run.
     */
    const BankModel &bank(int channel_bank) const
        PRIME_NO_THREAD_SAFETY_ANALYSIS;
    BankModel &bank(int channel_bank) PRIME_NO_THREAD_SAFETY_ANALYSIS;

    /** Fold every shard into absolute channel totals (takes each
     *  shard lock in turn; exact only while quiescent). */
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
     * Shard-locked backlog of one bank: how far its timing cursor runs
     * ahead of this channel's bus cursor (metrics-probe helper; the
     * shard mutex is a leaf lock).
     */
    Ns bankBacklogNs(int channel_bank) const;
    /** Shard-locked read/write counters of one bank (metrics probes). */
    std::uint64_t bankReads(int channel_bank) const;
    std::uint64_t bankWrites(int channel_bank) const;

  private:
    /**
     * One bank's lock domain: the timing state machine plus the stat
     * shard its accesses sample into, all updated under `mutex`.
     */
    struct BankShard
    {
        alignas(64) mutable Mutex mutex;
        BankModel bank PRIME_GUARDED_BY(mutex);
        std::uint64_t reads PRIME_GUARDED_BY(mutex) = 0;
        std::uint64_t writes PRIME_GUARDED_BY(mutex) = 0;
        double bytes PRIME_GUARDED_BY(mutex) = 0.0;
        telemetry::Histogram queueNs PRIME_GUARDED_BY(mutex);
        telemetry::Histogram serviceNs PRIME_GUARDED_BY(mutex);
        telemetry::Histogram sourceServiceNs[kRequestSources]
            PRIME_GUARDED_BY(mutex);
        Ns sourceLastReady[kRequestSources] PRIME_GUARDED_BY(mutex) = {};

        BankShard(const nvmodel::TimingParams &timing, PagePolicy policy)
            : bank(timing, policy)
        {}
    };

    /** The shard owning channel-local bank @p channel_bank. */
    BankShard &shard(int channel_bank) const;

    /**
     * Claim an exclusive channel slot of @p transfer ns starting at or
     * after @p earliest; returns the slot's end (= dataReady).
     */
    Ns reserveChannel(Ns earliest, Ns transfer);

    /** access() body; caller holds the target bank's shard mutex (the
     *  REQUIRES makes that calling convention a compile-time fact).
     *  Does not touch primeHorizon_: callers publish it. */
    RequestResult accessShardLocked(BankShard &sh, const Request &request,
                                    const Location &loc,
                                    std::int64_t row_tag)
        PRIME_REQUIRES(sh.mutex);

    /** Lock-free max-advance of primeHorizon_ to @p ready (release). */
    void publishPrimeHorizon(Ns ready);

    int channel_;
    nvmodel::TimingParams timing_;
    nvmodel::Geometry geometry_;
    /** unique_ptr: BankShard owns a mutex and must stay pinned. */
    std::vector<std::unique_ptr<BankShard>> shards_;
    std::atomic<Ns> channelFree_{0.0};
    std::atomic<Ns> primeHorizon_{0.0};
};

} // namespace prime::memory

#endif // PRIME_MEMORY_CONTROLLER_HH
