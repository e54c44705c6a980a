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

class CpuTrafficGenerator;

/**
 * A timed transfer compiled once (MainMemory::recordTransfer): its
 * 64-byte bursts as the timing reads them (Burst), grouped per bank
 * in first-appearance order, address order within a group -- each
 * group one FR-FCFS bank queue -- plus the transfer's direction and
 * source.  The record holds no time: schedule() issues it at the
 * owning channels' cursors of the moment, so one record replays any
 * number of times.
 */
struct Transfer
{
    /** The bursts, bank group after bank group. */
    std::vector<Burst> bursts;
    /** End offset in bursts of each bank group. */
    std::vector<std::uint32_t> groupEnds;
    bool isWrite = false;
    RequestSource source = RequestSource::Prime;
};

/**
 * The full main-memory model.  Timed accesses move the module's notion
 * of bank/channel availability forward; functional reads/writes touch
 * the sparse backing store (so PRIME's mode-morphing data migration can
 * be checked end to end).
 *
 * Organization: one MemoryController per geometry.channels, each owning
 * its channel's data-bus cursor, banks and stat books; MainMemory decodes
 * addresses (64B lines rotate across channels) and routes requests to
 * the owning controller.  PRIME traffic and CPU co-run traffic
 * (cpu_traffic.hh) arbitrate at the same controllers.
 *
 * Timing is a pass, not a side effect: PRIME records each Fetch/Commit
 * once as a Transfer (recordTransfer, at tape-lowering time) and
 * replays the ids its stages logged through schedule() in one
 * single-threaded timing pass per public PrimeSystem call.  Everything
 * about a transfer but its issue time is fixed when it is recorded --
 * each burst's row tag and bus time, its bank group -- so the replay
 * copies nothing and serves a group whose bank is not already open on
 * one of its later rows straight through, in address order
 * (MemoryController::scheduleGroup).  A co-run CPU stream (setCoRun)
 * is merged into that pass in modeled time.
 *
 * Thread safety -- the timing state (bank FSMs, the controllers' stat
 * books, channel cursors, the PRIME horizon, the scheduling scratch)
 * has one writer at a time and no lock: the thread calling schedule,
 * access, scheduleBatch or resetStats.  Those calls must not overlap
 * one another, and stats(), rowHitRate(), primeProgressNs() and bank()
 * belong to that thread, between passes.  The one concurrent reader
 * is the metrics sampler, and it reads only occupancy(), whose
 * values (the per-bank read/write Stats, the backlog and channel-free
 * formulas) are relaxed atomics with that single writer
 * (controller.hh).
 * The functional backing store is independent of the timing state:
 * sparse 4 KiB pages, allocated zero-filled on first write and copied
 * with memcpy, spread page-wise over a small mutex array, so any
 * number of threads may readData/writeData at once -- the pipeline
 * stages do, at disjoint staging windows.  Its stripe mutexes are
 * PRIME_GUARDED_BY-annotated and checked by the clang-tsa preset.
 */
class MainMemory
{
  public:
    explicit MainMemory(const nvmodel::TechParams &params);

    /** Schedule one request immediately (FCFS semantics). */
    RequestResult access(const Request &request);

    /**
     * FR-FCFS: schedule a batch -- row-buffer hits are preferred within
     * a lookahead window of kFrFcfsWindow requests, and the oldest
     * pending request is bypassed at most kFrFcfsMaxBypass consecutive
     * times before it is forced next (the starvation bound).  Results
     * are grouped by bank in first-appearance order, completion-ordered
     * within each bank.
     */
    std::vector<RequestResult>
    scheduleBatch(std::vector<Request> requests);

    /**
     * Compile a transfer of @p bytes at @p addr into 64-byte bursts
     * attributed to @p source, grouped per bank (see Transfer), in one
     * pass over the bursts.  Pure: touches no timing state, so it can
     * run once, when PRIME lowers its command tape.
     */
    Transfer recordTransfer(std::uint64_t addr, std::size_t bytes,
                            bool is_write,
                            RequestSource source = RequestSource::Prime)
        const;

    /**
     * Time one recorded transfer: first issue every co-run CPU request
     * (setCoRun) that arrives no later than primeProgressNs() +
     * paceLeadNs, then issue the transfer's bursts at their own
     * channel's cursor as read before any of them is scheduled, each
     * bank group as one FR-FCFS queue.  Timing only -- readData/writeData
     * move the payload.  Allocates nothing once its scratch has grown to
     * the largest group.
     */
    void schedule(const Transfer &transfer);

    /**
     * Merge @p cpu's stream into every later schedule() (see there);
     * nullptr detaches.  The generator must outlive the attachment.
     */
    void setCoRun(CpuTrafficGenerator *cpu) { coRun_ = cpu; }

    /** Functional write of a byte span at @p addr (allocates the pages
     *  it touches, zero-filled, on first write). */
    void writeData(std::uint64_t addr, std::span<const std::uint8_t> data);

    /** Functional read of out.size() bytes at @p addr into @p out
     *  (absent bytes read as 0). */
    void readData(std::uint64_t addr, std::span<std::uint8_t> out) const;

    const AddressMapper &mapper() const { return mapper_; }

    /** Number of independent channels (= geometry.channels). */
    int channels() const { return static_cast<int>(controllers_.size()); }

    /** The controller owning @p channel. */
    MemoryController &controller(int channel);
    const MemoryController &controller(int channel) const;

    /** Direct bank access (timing writer's thread, between
     *  passes). */
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
     * pacing signal (see CpuTrafficOptions::paceLeadNs).  Read it
     * between timing passes, from the thread that runs them.
     */
    Ns primeProgressNs() const;

    /** Aggregate row-buffer hit rate over all banks of all channels. */
    double rowHitRate() const;

    /**
     * The published stats, refreshed from the controllers' books on
     * every call.  Aggregates are published as mem.* plus per-channel
     * shards as mem.chN.* and per-source service latency as
     * mem.prime.service_ns / mem.cpu.service_ns (mem.service_ns is
     * their merge).
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
     * reads/writes (counter Stats the controllers bump per burst); per
     * channel mem.chN.free_ns; plus the aggregate horizon
     * mem.channel_free_ns.  The gauges are formulas over the
     * controllers' relaxed atomics; all are safe to read while a
     * timing pass runs.  Kept apart from stats() so the stats document
     * leaves out these mostly idle per-bank entries.
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

    /** Fold the controllers' books into stats_ (absolute,
     *  idempotent). */
    void syncStats();

    nvmodel::TechParams params_;
    AddressMapper mapper_;
    /** One controller per channel (pinned: they own atomics). */
    std::vector<std::unique_ptr<MemoryController>> controllers_;
    /** The co-run CPU stream schedule() merges (none: nullptr). */
    CpuTrafficGenerator *coRun_ = nullptr;

    /** Timing-writer scratch, grown to the largest batch seen:
     *  scheduleBatch's decoded requests, bank order and the bank queue
     *  handed to a controller; schedule()'s per-channel issue times. */
    std::vector<PendingRequest> decoded_;
    std::vector<int> bankOrder_;
    std::vector<PendingRequest> queue_;
    std::vector<Ns> issue_;

    /** Functional backing store: page number -> kPageBytes bytes,
     *  striped by page. */
    struct StoreStripe
    {
        alignas(64) mutable Mutex mutex;
        std::unordered_map<std::uint64_t, std::unique_ptr<std::uint8_t[]>>
            pages PRIME_GUARDED_BY(mutex);
    };
    mutable std::array<StoreStripe, kStoreStripes> store_;

    StatGroup stats_;
    StatGroup occupancy_;
};

} // namespace prime::memory

#endif // PRIME_MEMORY_MAIN_MEMORY_HH
