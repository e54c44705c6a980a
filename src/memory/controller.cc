#include "memory/controller.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace prime::memory {

MemoryController::MemoryController(int channel,
                                   const nvmodel::TechParams &params,
                                   PagePolicy policy)
    : channel_(channel), timing_(params.timing),
      geometry_(params.geometry)
{
    PRIME_ASSERT(channel >= 0 && channel < geometry_.channels,
                 "channel ", channel, " of ", geometry_.channels);
    // rowTag packs row x subarray x mat into one int64; reject any
    // geometry whose tag space could overflow (the old 32-bit tag
    // silently aliased wordlines on large matRows configs, inflating
    // the row-hit rate).
    const double tag_span = static_cast<double>(geometry_.matRows) *
                            geometry_.subarraysPerBank *
                            geometry_.matsPerSubarray;
    PRIME_ASSERT(tag_span < static_cast<double>(
                                std::numeric_limits<std::int64_t>::max()),
                 "row-tag space overflows int64");
    shards_.reserve(
        static_cast<std::size_t>(geometry_.banksPerChannel()));
    for (int b = 0; b < geometry_.banksPerChannel(); ++b)
        shards_.push_back(
            std::make_unique<BankShard>(params.timing, policy));
}

MemoryController::BankShard &
MemoryController::shard(int channel_bank) const
{
    PRIME_ASSERT(channel_bank >= 0 &&
                     channel_bank < static_cast<int>(shards_.size()),
                 "bank ", channel_bank, " of channel ", channel_);
    return *shards_[static_cast<std::size_t>(channel_bank)];
}

const BankModel &
MemoryController::bank(int channel_bank) const
{
    return shard(channel_bank).bank;
}

BankModel &
MemoryController::bank(int channel_bank)
{
    return shard(channel_bank).bank;
}

std::int64_t
MemoryController::rowTag(const Location &loc) const
{
    // The row-buffer tag identifies the physical wordline: the row
    // index alone is ambiguous across the subarrays/mats of a bank.
    // 64-bit throughout -- the constructor asserted the geometry fits.
    return (static_cast<std::int64_t>(loc.row) *
                geometry_.subarraysPerBank +
            loc.subarray) *
               geometry_.matsPerSubarray +
           loc.mat;
}

RequestResult
MemoryController::access(const Request &request, const Location &loc)
{
    PRIME_ASSERT(loc.channel == channel_, "request for channel ",
                 loc.channel, " routed to controller ", channel_);
    const int channel_bank =
        loc.chip * geometry_.banksPerChip + loc.bank;
    return accessBank(shard(channel_bank), request, loc, rowTag(loc));
}

RequestResult
MemoryController::accessBank(BankShard &sh, const Request &request,
                             const Location &loc, std::int64_t row_tag)
{
    RequestResult result;
    result.request = request;
    result.location = loc;

    result.bank = sh.bank.access(request.issue, row_tag, request.isWrite);
    sh.nextFree.store(sh.bank.nextFree(), std::memory_order_relaxed);

    // The data burst serializes on this channel after the bank has the
    // data (read) or before the bank commits it (write, modeled
    // symmetrically).  One timing writer: a plain advance of the cursor.
    const Ns transfer = request.bytes / timing_.channelBandwidth();
    result.dataReady =
        std::max(result.bank.complete,
                 channelFree_.load(std::memory_order_relaxed)) +
        transfer;
    channelFree_.store(result.dataReady, std::memory_order_relaxed);

    // Stat shard: the hot path never touches a shared StatGroup (row
    // hits/misses stay in the BankModel counters).
    std::atomic<std::uint64_t> &count =
        request.isWrite ? sh.writes : sh.reads;
    count.store(count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    sh.bytes += request.bytes;
    // Modeled latency split: time queued behind the bank/row state vs.
    // total service (queue + bank + channel burst).
    sh.queueNs.sample(result.bank.start - request.issue);
    const Ns service = result.dataReady - request.issue;
    const std::size_t src = static_cast<std::size_t>(request.source);
    sh.sourceServiceNs[src].sample(service);
    sh.sourceLastReady[src] =
        std::max(sh.sourceLastReady[src], result.dataReady);
    if (request.source == RequestSource::Prime)
        primeHorizon_ = std::max(primeHorizon_, result.dataReady);
    return result;
}

void
MemoryController::scheduleBankQueue(std::span<const PendingRequest> pending,
                                    const SchedulerConfig &sched,
                                    std::vector<RequestResult> *results)
{
    PRIME_ASSERT(sched.window >= 1, "window=", sched.window);
    PRIME_ASSERT(sched.maxBypass >= 0, "maxBypass=", sched.maxBypass);
    if (pending.empty())
        return;
    const std::size_t n = pending.size();

    const int channel_bank =
        pending.front().location.chip * geometry_.banksPerChip +
        pending.front().location.bank;
    BankShard &sh = shard(channel_bank);

    // Row tags once per entry, not once per window scan.
    std::vector<std::int64_t> &tags = tags_;
    std::vector<std::size_t> &order = order_;
    if (tags.size() < n) {
        tags.resize(n);
        order.resize(n);
    }
    for (std::size_t i = 0; i < n; ++i) {
        PRIME_ASSERT(pending[i].location.channel == channel_,
                     "cross-channel entry in bank queue");
        tags[i] = rowTag(pending[i].location);
        order[i] = i;
    }

    // FR-FCFS with a hard starvation bound.  order[head..n) is the
    // pending queue, oldest first.  Each iteration picks, within the
    // first `window` pending entries, a row-hit request if one exists,
    // otherwise the oldest -- but once the oldest entry has been
    // bypassed maxBypass consecutive times, the hit search is
    // suppressed and the oldest goes next.  `bypasses` tracks how many
    // times the *current* front entry has been passed over; it resets
    // whenever the front is serviced (a newly exposed front starts its
    // own count).  Removing the chosen entry shifts only the (at most
    // window - 1) entries ahead of it.
    const std::size_t window = static_cast<std::size_t>(sched.window);
    int bypasses = 0;
    for (std::size_t head = 0; head < n; ++head) {
        std::size_t chosen = head;
        if (bypasses < sched.maxBypass) {
            const std::int64_t open = sh.bank.openRow();
            const std::size_t limit = std::min(n, head + window);
            for (std::size_t i = head; i < limit; ++i) {
                if (tags[order[i]] == open) {
                    chosen = i;
                    break;
                }
            }
        }
        if (chosen == head)
            bypasses = 0;
        else
            ++bypasses;
        const std::size_t next = order[chosen];
        std::copy_backward(order.begin() + static_cast<std::ptrdiff_t>(head),
                           order.begin() + static_cast<std::ptrdiff_t>(chosen),
                           order.begin() +
                               static_cast<std::ptrdiff_t>(chosen + 1));
        const PendingRequest &p = pending[next];
        const RequestResult result =
            accessBank(sh, p.request, p.location, tags[next]);
        if (results)
            results->push_back(result);
    }
}

ChannelTotals
MemoryController::totals() const
{
    ChannelTotals t;
    for (const std::unique_ptr<BankShard> &sh : shards_) {
        t.reads += sh->reads.load(std::memory_order_relaxed);
        t.writes += sh->writes.load(std::memory_order_relaxed);
        t.bytes += sh->bytes;
        t.rowHits += sh->bank.rowHits();
        t.rowMisses += sh->bank.rowMisses();
        t.queueNs.merge(sh->queueNs);
        for (std::size_t s = 0; s < kRequestSources; ++s) {
            t.sourceServiceNs[s].merge(sh->sourceServiceNs[s]);
            t.serviceNs.merge(sh->sourceServiceNs[s]);
            t.sourceLastReady[s] = std::max(t.sourceLastReady[s],
                                            sh->sourceLastReady[s]);
        }
    }
    return t;
}

double
MemoryController::rowHitRate() const
{
    std::uint64_t hits = 0, total = 0;
    for (const std::unique_ptr<BankShard> &sh : shards_) {
        hits += sh->bank.rowHits();
        total += sh->bank.rowHits() + sh->bank.rowMisses();
    }
    return total ? static_cast<double>(hits) / total : 0.0;
}

void
MemoryController::resetStats()
{
    for (const std::unique_ptr<BankShard> &sh : shards_) {
        sh->reads.store(0, std::memory_order_relaxed);
        sh->writes.store(0, std::memory_order_relaxed);
        sh->bytes = 0.0;
        sh->queueNs.reset();
        for (std::size_t s = 0; s < kRequestSources; ++s) {
            sh->sourceServiceNs[s].reset();
            sh->sourceLastReady[s] = 0.0;
        }
        sh->bank.resetCounters();
    }
}

Ns
MemoryController::bankBacklogNs(int channel_bank) const
{
    const Ns backlog =
        shard(channel_bank).nextFree.load(std::memory_order_relaxed) -
        channelFree();
    return backlog > 0.0 ? backlog : 0.0;
}

std::uint64_t
MemoryController::bankReads(int channel_bank) const
{
    return shard(channel_bank).reads.load(std::memory_order_relaxed);
}

std::uint64_t
MemoryController::bankWrites(int channel_bank) const
{
    return shard(channel_bank).writes.load(std::memory_order_relaxed);
}

} // namespace prime::memory
