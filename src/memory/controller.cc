#include "memory/controller.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace prime::memory {

MemoryController::MemoryController(int channel,
                                   const nvmodel::TechParams &params,
                                   std::span<const BankCounters> counters)
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
    PRIME_ASSERT(static_cast<int>(counters.size()) ==
                     geometry_.banksPerChannel(),
                 counters.size(), " bank counters for ",
                 geometry_.banksPerChannel(), " banks");
    banks_.reserve(counters.size());
    for (const BankCounters &c : counters) {
        PRIME_ASSERT(c.reads && c.writes, "unbound bank counter");
        banks_.push_back(Bank{BankModel(params.timing), 0.0, c});
    }
}

MemoryController::Bank &
MemoryController::bankAt(int channel_bank)
{
    PRIME_ASSERT(channel_bank >= 0 &&
                     channel_bank < static_cast<int>(banks_.size()),
                 "bank ", channel_bank, " of channel ", channel_);
    return banks_[static_cast<std::size_t>(channel_bank)];
}

const MemoryController::Bank &
MemoryController::bankAt(int channel_bank) const
{
    return const_cast<MemoryController *>(this)->bankAt(channel_bank);
}

const BankModel &
MemoryController::bank(int channel_bank) const
{
    return bankAt(channel_bank).model;
}

BankModel &
MemoryController::bank(int channel_bank)
{
    return bankAt(channel_bank).model;
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
 * first kFrFcfsWindow pending entries, one that hits the bank's open
 * row if one exists, otherwise the oldest -- but once the oldest entry
 * has been bypassed kFrFcfsMaxBypass consecutive times, the hit search
 * is suppressed and the oldest goes next.  `bypasses` counts how many
 * times the *current* oldest entry has been passed over; it resets
 * whenever the oldest is served (a newly exposed oldest entry starts
 * its own count).  @p order (the caller's scratch) holds the pending
 * queue as entry indices, order[head..n); removing the chosen entry
 * shifts only the (at most window - 1) entries ahead of it.
 */
template <typename TagOf, typename Serve>
void
frFcfs(std::size_t n, const BankModel &bank,
       std::vector<std::size_t> &order, TagOf tag_of, Serve serve)
{
    if (order.size() < n)
        order.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    const std::size_t window = static_cast<std::size_t>(kFrFcfsWindow);
    int bypasses = 0;
    for (std::size_t head = 0; head < n; ++head) {
        std::size_t chosen = head;
        if (bypasses < kFrFcfsMaxBypass) {
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
    result.bank = serve(bankAt(channel_bank),
                        Burst{rowTag(loc), busNs(request.bytes),
                              request.bytes},
                        request.issue, request.isWrite, request.source,
                        result.dataReady);
    return result;
}

void
MemoryController::scheduleBankQueue(std::span<const PendingRequest> pending,
                                    std::vector<RequestResult> *results)
{
    if (pending.empty())
        return;
    const std::size_t n = pending.size();
    const int channel_bank =
        pending.front().location.chip * geometry_.banksPerChip +
        pending.front().location.bank;
    Bank &b = bankAt(channel_bank);

    // Row tags once per entry, not once per window scan.
    if (tags_.size() < n)
        tags_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        PRIME_ASSERT(pending[i].location.channel == channel_,
                     "cross-channel entry in bank queue");
        tags_[i] = rowTag(pending[i].location);
    }
    frFcfs(n, b.model, order_,
           [this](std::size_t i) { return tags_[i]; },
           [&](std::size_t i) {
               const PendingRequest &p = pending[i];
               RequestResult result;
               result.request = p.request;
               result.location = p.location;
               result.bank = serve(
                   b,
                   Burst{tags_[i], busNs(p.request.bytes), p.request.bytes},
                   p.request.issue, p.request.isWrite, p.request.source,
                   result.dataReady);
               if (results)
                   results->push_back(result);
           });
}

void
MemoryController::scheduleGroup(std::span<const Burst> group, Ns issue,
                                bool is_write, RequestSource source)
{
    if (group.empty())
        return;
    Bank &bank = bankAt(group.front().bank);
    Ns data_ready = 0.0;
    // Cold start (see the declaration): served oldest first.
    const std::int64_t open = bank.model.openRow();
    if (open == group.front().rowTag ||
        std::none_of(group.begin() + 1, group.end(),
                     [open](const Burst &b) { return b.rowTag == open; })) {
        for (const Burst &b : group)
            serve(bank, b, issue, is_write, source, data_ready);
        return;
    }
    frFcfs(group.size(), bank.model, order_,
           [group](std::size_t i) { return group[i].rowTag; },
           [&](std::size_t i) {
               serve(bank, group[i], issue, is_write, source, data_ready);
           });
}

ChannelTotals
MemoryController::totals() const
{
    ChannelTotals t;
    for (const Bank &b : banks_) {
        t.reads += b.counters.reads->count();
        t.writes += b.counters.writes->count();
        t.rowHits += b.model.rowHits();
        t.rowMisses += b.model.rowMisses();
    }
    t.bytes = bytes_;
    t.queueNs = queueNs_;
    for (std::size_t s = 0; s < kRequestSources; ++s) {
        t.sourceServiceNs[s] = sourceServiceNs_[s];
        t.serviceNs.merge(sourceServiceNs_[s]);
    }
    return t;
}

double
MemoryController::rowHitRate() const
{
    std::uint64_t hits = 0, total = 0;
    for (const Bank &b : banks_) {
        hits += b.model.rowHits();
        total += b.model.rowHits() + b.model.rowMisses();
    }
    return total ? static_cast<double>(hits) / total : 0.0;
}

void
MemoryController::resetStats()
{
    for (Bank &b : banks_) {
        b.counters.reads->reset();
        b.counters.writes->reset();
        b.model.resetCounters();
    }
    bytes_ = 0.0;
    queueNs_.reset();
    for (std::size_t s = 0; s < kRequestSources; ++s) {
        sourceServiceNs_[s].reset();
        sourceLastReady_[s].store(0.0, std::memory_order_relaxed);
    }
}

Ns
MemoryController::bankBacklogNs(int channel_bank) const
{
    const Ns backlog =
        std::atomic_ref<Ns>(bankAt(channel_bank).nextFree)
            .load(std::memory_order_relaxed) -
        channelFree();
    return backlog > 0.0 ? backlog : 0.0;
}

} // namespace prime::memory
