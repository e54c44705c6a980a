/**
 * @file
 * The ReRAM main memory: address mapping, per-channel FR-FCFS memory
 * controllers (controller.hh), and a functional backing store.
 *
 * This is the substrate PRIME morphs: Mem subarrays serve ordinary
 * traffic through this model, while FF/Buffer subarray interactions are
 * layered on top by src/prime (reserving address ranges, migrating data,
 * and bypassing the channel via the buffer connection unit).
 */

#ifndef PRIME_MEMORY_MAIN_MEMORY_HH
#define PRIME_MEMORY_MAIN_MEMORY_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/mutex.hh"
#include "common/stats.hh"
#include "common/thread_annotations.hh"
#include "common/telemetry/histogram.hh"
#include "memory/address.hh"
#include "memory/bank.hh"
#include "memory/controller.hh"
#include "nvmodel/tech_params.hh"

namespace prime::memory {

/**
 * The full main-memory model.  Timed accesses move the module's notion
 * of bank/channel availability forward; functional reads/writes touch
 * the sparse backing store (so PRIME's mode-morphing data migration can
 * be checked end to end).
 *
 * Organization: one MemoryController per geometry.channels, each owning
 * its channel's data-bus cursor and bank shards; MainMemory decodes
 * addresses (64B lines rotate across channels) and routes requests to
 * the owning controller.  PRIME traffic and CPU co-run traffic
 * (cpu_traffic.hh) arbitrate at the same controllers.
 *
 * Thread safety -- the lock domains live in MemoryController (see
 * controller.hh): per-bank shard mutexes for timing + stat state, one
 * atomic reservation cursor per channel.  MainMemory itself adds only
 * the functional backing store: sparse 4 KiB pages, allocated
 * zero-filled on first write and copied with memcpy, spread page-wise
 * over a small mutex array so reads/writes at disjoint pages proceed
 * in parallel and never contend with the timing path.  Functional
 * reads/writes at disjoint addresses are order-independent; the
 * *timing* state interleaves in arrival order, so latency stats under
 * concurrency are schedule-dependent (functional results stay
 * deterministic).  stats() aggregates the per-bank shards into the
 * published StatGroup at call time -- cheap, but like the bank()
 * accessor it snapshots: call it while no concurrent accesses run when
 * exact totals matter.
 *
 * These contracts are machine-checked: every shard-guarded member is
 * PRIME_GUARDED_BY its shard mutex and the locked-caller convention of
 * accessShardLocked is a PRIME_REQUIRES, enforced by the clang-tsa
 * preset (-Werror=thread-safety); the deliberate escapes (bank()) are
 * documented at their declarations.
 */
class MainMemory
{
  public:
    explicit MainMemory(const nvmodel::TechParams &params,
                        PagePolicy policy = PagePolicy::Open,
                        SchedulerConfig sched = {});

    /** Schedule one request immediately (FCFS semantics). */
    RequestResult access(const Request &request);

    /**
     * FR-FCFS: schedule a batch under @p sched -- row-buffer hits are
     * preferred within a lookahead window of sched.window requests, and
     * the oldest pending request is bypassed at most sched.maxBypass
     * consecutive times before it is forced next (the starvation
     * bound).  Results are grouped by bank in first-appearance order,
     * completion-ordered within each bank.
     */
    std::vector<RequestResult>
    scheduleBatch(std::vector<Request> requests,
                  const SchedulerConfig &sched);

    /** scheduleBatch under the memory's configured SchedulerConfig. */
    std::vector<RequestResult>
    scheduleBatch(std::vector<Request> requests);

    /**
     * Timed transfer of a byte range: 64-byte burst requests issued at
     * the current channel-free time, scheduled FR-FCFS under the
     * configured SchedulerConfig and attributed to @p source.  Timing
     * only -- pair with readData/writeData for the functional payload.
     * The bursts are built in per-thread scratch that is reused across
     * calls, so a steady stream of transfers allocates nothing (the
     * completion records are not kept; scheduleBatch returns them).
     */
    void scheduleBytes(std::uint64_t addr, std::size_t bytes, bool is_write,
                       RequestSource source = RequestSource::Prime);

    /** Functional write of a byte span at @p addr (allocates the pages
     *  it touches, zero-filled, on first write). */
    void writeData(std::uint64_t addr, std::span<const std::uint8_t> data);

    /** Functional read of out.size() bytes at @p addr into @p out
     *  (absent bytes read as 0). */
    void readData(std::uint64_t addr, std::span<std::uint8_t> out) const;

    const AddressMapper &mapper() const { return mapper_; }

    /** Scheduling policy every batch without an explicit config uses. */
    const SchedulerConfig &schedulerConfig() const { return sched_; }

    /** Number of independent channels (= geometry.channels). */
    int channels() const { return static_cast<int>(controllers_.size()); }

    /** The controller owning @p channel. */
    MemoryController &controller(int channel);
    const MemoryController &controller(int channel) const;

    /**
     * Direct bank access WITHOUT the shard lock -- a quiescent-snapshot
     * accessor for tests and single-threaded setup/teardown (the same
     * contract as stats()).  The escape is deliberate: the bank is
     * shard-guarded on the concurrent timing path, and a caller using
     * this handle asserts no concurrent accesses run.
     */
    const BankModel &bank(int global_bank) const;
    BankModel &bank(int global_bank);

    /**
     * Latest channel-free horizon across all channels: the earliest
     * time every channel's data bus is idle.  With one channel this is
     * exactly that channel's cursor (the historical meaning).
     */
    Ns channelFree() const;

    /**
     * Latest PRIME-class completion across all channels -- the co-run
     * pacing signal (lock-free; see CpuTrafficOptions::paceLeadNs).
     */
    Ns primeProgressNs() const;

    /** Aggregate row-buffer hit rate over all banks of all channels. */
    double rowHitRate() const;

    /**
     * The published stats, refreshed from the per-bank shards on every
     * call (see the thread-safety notes above for when the totals are
     * exact).  Aggregates are published as mem.* plus per-channel
     * shards as mem.chN.* and per-source service latency as
     * mem.prime.service_ns / mem.cpu.service_ns.
     */
    StatGroup &stats();

    /**
     * Zero every controller's counters and histograms (post-warm-up
     * reset for interference measurements).  Timing state -- channel
     * cursors, open rows, busy horizons -- is kept: the modeled
     * hardware stays warm, only the accounting restarts.
     */
    void resetStats();

    const nvmodel::TechParams &params() const { return params_; }

    /**
     * Live occupancy, for the metrics sampler to watch: per bank
     * (global numbering) mem.bankN.backlog_ns (gauge: how far bank N's
     * timing cursor runs ahead of its channel's bus) and mem.bankN.
     * reads/writes (counters); per channel mem.chN.free_ns; plus the
     * aggregate horizon mem.channel_free_ns.  All are formulas read
     * straight from the controllers -- the bank ones take the bank's
     * shard lock for two loads, sampler-thread cost, never hot path.
     * Kept apart from stats() so the stats document leaves out these
     * mostly idle per-bank entries.
     */
    const StatGroup &occupancy() const { return occupancy_; }

  private:
    /** Functional store page size. */
    static constexpr std::size_t kPageBytes = 4096;
    /** Store stripes: pages spread over this many mutexes. */
    static constexpr std::size_t kStoreStripes = 16;

    /** Store stripe holding page @p page. */
    static std::size_t storeStripe(std::uint64_t page)
    {
        return page % kStoreStripes;
    }

    /** Fold the controllers' shards into stats_ (absolute, idempotent). */
    void syncStats();

    /**
     * The FR-FCFS body of scheduleBatch/scheduleBytes: sorts
     * @p decoded by issue time (stably), groups it by bank in
     * first-appearance order and schedules each group at its channel's
     * controller, appending the completions to @p results unless it is
     * null.
     */
    void scheduleDecoded(std::vector<PendingRequest> &decoded,
                         const SchedulerConfig &sched,
                         std::vector<RequestResult> *results);

    nvmodel::TechParams params_;
    AddressMapper mapper_;
    SchedulerConfig sched_;
    /** One controller per channel (pinned: they own mutexes). */
    std::vector<std::unique_ptr<MemoryController>> controllers_;

    /** Functional backing store: page number -> kPageBytes bytes,
     *  striped by page. */
    struct StoreStripe
    {
        alignas(64) mutable Mutex mutex;
        std::unordered_map<std::uint64_t, std::unique_ptr<std::uint8_t[]>>
            pages PRIME_GUARDED_BY(mutex);
    };
    mutable std::array<StoreStripe, kStoreStripes> store_;

    /** Latest completion per RequestSource since the last resetStats,
     *  as of the last syncStats: the mem.prime/cpu.last_ready_ns
     *  formulas read it (atomic: a formula may run on the sampler
     *  thread while syncStats writes). */
    std::array<std::atomic<Ns>, kRequestSources> lastReady_{};
    StatGroup stats_;
    StatGroup occupancy_;
};

} // namespace prime::memory

#endif // PRIME_MEMORY_MAIN_MEMORY_HH
