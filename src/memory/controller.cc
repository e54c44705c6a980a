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

namespace {

/**
 * FR-FCFS with a hard starvation bound, the one selection loop of the
 * timing model.  The queue is @p n entries, oldest first; @p tag_of(i)
 * is entry i's row tag, @p bank the bank they all go to, and
 * @p serve(i) serves entry i there.  Each iteration picks, within the
 * first sched.window pending entries, one that hits the bank's open
 * row if one exists, otherwise the oldest -- but once the oldest entry
 * has been bypassed sched.maxBypass consecutive times, the hit search
 * is suppressed and the oldest goes next.  `bypasses` counts how many
 * times the *current* oldest entry has been passed over; it resets
 * whenever the oldest is served (a newly exposed oldest entry starts
 * its own count).  @p order (the caller's scratch) holds the pending
 * queue as entry indices, order[head..n); removing the chosen entry
 * shifts only the (at most window - 1) entries ahead of it.
 */
template <typename TagOf, typename Serve>
void
frFcfs(std::size_t n, const SchedulerConfig &sched, const BankModel &bank,
       std::vector<std::size_t> &order, TagOf tag_of, Serve serve)
{
    PRIME_ASSERT(sched.window >= 1, "window=", sched.window);
    PRIME_ASSERT(sched.maxBypass >= 0, "maxBypass=", sched.maxBypass);
    if (order.size() < n)
        order.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    const std::size_t window = static_cast<std::size_t>(sched.window);
    int bypasses = 0;
    for (std::size_t head = 0; head < n; ++head) {
        std::size_t chosen = head;
        if (bypasses < sched.maxBypass) {
            const std::int64_t open = bank.openRow();
            const std::size_t limit = std::min(n, head + window);
            for (std::size_t i = head; i < limit; ++i) {
                if (tag_of(order[i]) == open) {
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
        serve(next);
    }
}

} // namespace

RequestResult
MemoryController::access(const Request &request, const Location &loc)
{
    PRIME_ASSERT(loc.channel == channel_, "request for channel ",
                 loc.channel, " routed to controller ", channel_);
    const int channel_bank =
        loc.chip * geometry_.banksPerChip + loc.bank;
    RequestResult result;
    result.request = request;
    result.location = loc;
    result.bank = serve(shard(channel_bank),
                        Burst{rowTag(loc), busNs(request.bytes),
                              request.bytes},
                        request.issue, request.isWrite, request.source,
                        result.dataReady);
    return result;
}

void
MemoryController::scheduleBankQueue(std::span<const PendingRequest> pending,
                                    const SchedulerConfig &sched,
                                    std::vector<RequestResult> *results)
{
    if (pending.empty())
        return;
    const std::size_t n = pending.size();
    const int channel_bank =
        pending.front().location.chip * geometry_.banksPerChip +
        pending.front().location.bank;
    BankShard &sh = shard(channel_bank);

    // Row tags once per entry, not once per window scan.
    if (tags_.size() < n)
        tags_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        PRIME_ASSERT(pending[i].location.channel == channel_,
                     "cross-channel entry in bank queue");
        tags_[i] = rowTag(pending[i].location);
    }
    frFcfs(n, sched, sh.bank, order_,
           [this](std::size_t i) { return tags_[i]; },
           [&](std::size_t i) {
               const PendingRequest &p = pending[i];
               RequestResult result;
               result.request = p.request;
               result.location = p.location;
               result.bank = serve(
                   sh,
                   Burst{tags_[i], busNs(p.request.bytes), p.request.bytes},
                   p.request.issue, p.request.isWrite, p.request.source,
                   result.dataReady);
               if (results)
                   results->push_back(result);
           });
}

void
MemoryController::scheduleGroup(std::span<const Burst> group, Ns issue,
                                bool is_write, RequestSource source,
                                const SchedulerConfig &sched)
{
    if (group.empty())
        return;
    BankShard &sh = shard(group.front().bank);
    Ns data_ready = 0.0;
    // Cold start (see the declaration): served oldest first.
    const std::int64_t open = sh.bank.openRow();
    if (open == group.front().rowTag ||
        std::none_of(group.begin() + 1, group.end(),
                     [open](const Burst &b) { return b.rowTag == open; })) {
        for (const Burst &b : group)
            serve(sh, b, issue, is_write, source, data_ready);
        return;
    }
    frFcfs(group.size(), sched, sh.bank, order_,
           [group](std::size_t i) { return group[i].rowTag; },
           [&](std::size_t i) {
               serve(sh, group[i], issue, is_write, source, data_ready);
           });
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
