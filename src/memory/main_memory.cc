#include "memory/main_memory.hh"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "common/telemetry/trace_session.hh"
#include "memory/cpu_traffic.hh"

namespace prime::memory {

MainMemory::MainMemory(const nvmodel::TechParams &params)
    : params_(params), mapper_(params.geometry)
{
    // A recorded Burst names its channel and bank in 16 bits each.
    PRIME_ASSERT(params.geometry.channels <= 65536 &&
                     params.geometry.banksPerChannel() <= 65536,
                 "geometry too large for a recorded burst");
    // Live occupancy (see occupancy()).  Global bank numbering, so
    // dashboards keep one flat mem.bankN.* namespace regardless of
    // channel count.  Each bank's read/write counters are Stats of
    // this group, bound here once and bumped by its controller.
    occupancy_.formula("mem.channel_free_ns",
                       [this] { return channelFree(); });
    const int per = params_.geometry.banksPerChannel();
    std::vector<BankCounters> counters(static_cast<std::size_t>(per));
    controllers_.reserve(
        static_cast<std::size_t>(params.geometry.channels));
    for (int ch = 0; ch < params.geometry.channels; ++ch) {
        for (int cb = 0; cb < per; ++cb) {
            const std::string prefix =
                "mem.bank" + std::to_string(ch * per + cb) + ".";
            counters[static_cast<std::size_t>(cb)] = {
                &occupancy_.get(prefix + "reads"),
                &occupancy_.get(prefix + "writes")};
        }
        controllers_.push_back(
            std::make_unique<MemoryController>(ch, params, counters));
        const MemoryController *ctrl = controllers_.back().get();
        occupancy_.formula("mem.ch" + std::to_string(ch) + ".free_ns",
                           [ctrl] { return ctrl->channelFree(); });
        for (int cb = 0; cb < per; ++cb)
            occupancy_.formula(
                "mem.bank" + std::to_string(ch * per + cb) + ".backlog_ns",
                [ctrl, cb] { return ctrl->bankBacklogNs(cb); });
    }
    issue_.resize(controllers_.size());
    // Derived at read time from the hit/miss counters (std::map nodes
    // are address-stable, so the captured pointers stay valid; the
    // counters themselves are refreshed from the controllers by
    // syncStats before any read).
    stats_.formula("mem.row_hit_rate",
                   [hits = &stats_.get("mem.row_hits"),
                    misses = &stats_.get("mem.row_misses")] {
                       const double total = static_cast<double>(
                           hits->count() + misses->count());
                       return total > 0.0 ? hits->count() / total : 0.0;
                   });
    for (int ch = 0; ch < channels(); ++ch) {
        const std::string prefix = "mem.ch" + std::to_string(ch) + ".";
        stats_.formula(prefix + "row_hit_rate",
                       [hits = &stats_.get(prefix + "row_hits"),
                        misses = &stats_.get(prefix + "row_misses")] {
                           const double total = static_cast<double>(
                               hits->count() + misses->count());
                           return total > 0.0 ? hits->count() / total
                                              : 0.0;
                       });
    }
    // Makespan horizons: the latest completion each class has seen
    // since the last resetStats, read from the controllers.
    for (const RequestSource source :
         {RequestSource::Prime, RequestSource::Cpu})
        stats_.formula(source == RequestSource::Prime
                           ? "mem.prime.last_ready_ns"
                           : "mem.cpu.last_ready_ns",
                       [this, source] {
                           Ns latest = 0.0;
                           for (const std::unique_ptr<MemoryController> &c :
                                controllers_)
                               latest = std::max(latest,
                                                 c->lastReadyNs(source));
                           return latest;
                       });
}

MemoryController &
MainMemory::controller(int channel)
{
    PRIME_ASSERT(channel >= 0 &&
                     channel < static_cast<int>(controllers_.size()),
                 "channel ", channel);
    return *controllers_[static_cast<std::size_t>(channel)];
}

const MemoryController &
MainMemory::controller(int channel) const
{
    PRIME_ASSERT(channel >= 0 &&
                     channel < static_cast<int>(controllers_.size()),
                 "channel ", channel);
    return *controllers_[static_cast<std::size_t>(channel)];
}

const BankModel &
MainMemory::bank(int global_bank) const
{
    const int per = params_.geometry.banksPerChannel();
    return controller(global_bank / per).bank(global_bank % per);
}

BankModel &
MainMemory::bank(int global_bank)
{
    const int per = params_.geometry.banksPerChannel();
    return controller(global_bank / per).bank(global_bank % per);
}

Ns
MainMemory::channelFree() const
{
    Ns latest = 0.0;
    for (const std::unique_ptr<MemoryController> &c : controllers_)
        latest = std::max(latest, c->channelFree());
    return latest;
}

Ns
MainMemory::primeProgressNs() const
{
    Ns latest = 0.0;
    for (const std::unique_ptr<MemoryController> &c : controllers_)
        latest = std::max(latest, c->primeHorizon());
    return latest;
}

RequestResult
MainMemory::access(const Request &request)
{
    const Location loc = mapper_.decode(request.addr);
    return controller(loc.channel).access(request, loc);
}

std::vector<RequestResult>
MainMemory::scheduleBatch(std::vector<Request> requests)
{
    std::vector<RequestResult> results;
    results.reserve(requests.size());
    decoded_.clear();
    for (const Request &r : requests)
        decoded_.push_back(PendingRequest{r, mapper_.decode(r.addr)});
    // Keep requests sorted by issue time, then partition by bank (banks
    // in first-request order): the row-hit reordering window only ever
    // matters within a bank, so each group is one FR-FCFS queue.
    std::stable_sort(decoded_.begin(), decoded_.end(),
                     [](const PendingRequest &a, const PendingRequest &b) {
                         return a.request.issue < b.request.issue;
                     });
    bankOrder_.clear();
    for (const PendingRequest &p : decoded_)
        if (std::find(bankOrder_.begin(), bankOrder_.end(),
                      p.location.globalBank) == bankOrder_.end())
            bankOrder_.push_back(p.location.globalBank);
    for (const int bank : bankOrder_) {
        queue_.clear();
        for (const PendingRequest &p : decoded_)
            if (p.location.globalBank == bank)
                queue_.push_back(p);
        controller(queue_.front().location.channel)
            .scheduleBankQueue(queue_, &results);
    }
    return results;
}

namespace {

bool
sameBank(const Burst &a, const Burst &b)
{
    return a.channel == b.channel && a.bank == b.bank;
}

/**
 * Merge the runs of @p t -- its bursts in address order, groupEnds
 * marking where the bank changes -- into one group per bank, banks in
 * first-appearance order, address order within a bank.  Only needed
 * when a bank has two runs: the 64-byte lines rotate over channels, or
 * the transfer wraps round every bank of a channel.
 */
void
mergeBankRuns(Transfer &t)
{
    const std::vector<Burst> runs = std::move(t.bursts);
    const std::vector<std::uint32_t> run_ends = std::move(t.groupEnds);
    t.bursts.clear();
    t.bursts.reserve(runs.size());
    t.groupEnds.clear();
    std::vector<bool> taken(run_ends.size(), false);
    for (std::size_t r = 0; r < run_ends.size(); ++r) {
        if (taken[r])
            continue;
        const Burst &first = runs[r == 0 ? 0 : run_ends[r - 1]];
        for (std::size_t q = r; q < run_ends.size(); ++q) {
            const std::uint32_t begin = q == 0 ? 0 : run_ends[q - 1];
            if (taken[q] || !sameBank(runs[begin], first))
                continue;
            taken[q] = true;
            t.bursts.insert(t.bursts.end(),
                            runs.begin() + static_cast<std::ptrdiff_t>(begin),
                            runs.begin() +
                                static_cast<std::ptrdiff_t>(run_ends[q]));
        }
        t.groupEnds.push_back(static_cast<std::uint32_t>(t.bursts.size()));
    }
}

} // namespace

Transfer
MainMemory::recordTransfer(std::uint64_t addr, std::size_t bytes,
                           bool is_write, RequestSource source) const
{
    Transfer transfer;
    transfer.isWrite = is_write;
    transfer.source = source;
    if (bytes == 0)
        return transfer;
    // Decode the first burst, then step: every later burst starts one
    // 64-byte line on.  Its decode asserts the start is in range; check
    // the last burst's start once here.
    const std::size_t last = (bytes - 1) / AddressMapper::kLineBytes *
                             AddressMapper::kLineBytes;
    PRIME_ASSERT(addr + last < mapper_.capacityBytes(), "transfer of ",
                 bytes, " bytes at ", addr, " beyond capacity ",
                 mapper_.capacityBytes());
    const std::size_t n = last / AddressMapper::kLineBytes + 1;
    const int per_chip = params_.geometry.banksPerChip;
    // Group per bank in first-appearance order, keeping each bank's
    // bursts in address order: the per-bank queues scheduleBatch forms
    // for these bursts, whatever the channel cursors (a channel's
    // bursts share one issue time, so its banks keep this order).  One
    // pass in address order compiles each burst and cuts the transfer
    // where the bank changes; only a bank with a second run sends the
    // runs through mergeBankRuns.
    transfer.bursts.resize(n);
    bool revisits = false;
    Location loc = mapper_.decode(addr);
    for (std::size_t k = 0; k < n; ++k) {
        if (k != 0)
            mapper_.stepLine(loc);
        const MemoryController &ctrl = *controllers_[
            static_cast<std::size_t>(loc.channel)];
        const std::uint32_t b_bytes =
            static_cast<std::uint32_t>(std::min<std::size_t>(
                AddressMapper::kLineBytes,
                bytes - k * AddressMapper::kLineBytes));
        Burst &b = transfer.bursts[k];
        b.rowTag = ctrl.rowTag(loc);
        b.busNs = ctrl.busNs(b_bytes);
        b.bytes = b_bytes;
        b.channel = static_cast<std::uint16_t>(loc.channel);
        b.bank = static_cast<std::uint16_t>(loc.chip * per_chip + loc.bank);
        if (k == 0 || sameBank(b, transfer.bursts[k - 1]))
            continue;
        // A new run starts at k: compare it with every earlier run's
        // first burst.
        if (!revisits) {
            revisits = sameBank(b, transfer.bursts.front());
            for (const std::uint32_t start : transfer.groupEnds)
                revisits = revisits || sameBank(b, transfer.bursts[start]);
        }
        transfer.groupEnds.push_back(static_cast<std::uint32_t>(k));
    }
    transfer.groupEnds.push_back(static_cast<std::uint32_t>(n));
    if (revisits)
        mergeBankRuns(transfer);
    // Within a bank, addresses order the row tags, so every row's
    // bursts are adjacent in its group: what lets schedule() serve a
    // cold group in this order (MemoryController::scheduleGroup).
    for (std::size_t k = 1; k < n; ++k) {
        const Burst &prev = transfer.bursts[k - 1];
        const Burst &b = transfer.bursts[k];
        PRIME_ASSERT(!sameBank(prev, b) || prev.rowTag <= b.rowTag,
                     "row tags out of address order in a bank group");
    }
    return transfer;
}

void
MainMemory::schedule(const Transfer &transfer)
{
    if (transfer.groupEnds.empty())
        return;
    // Co-run merge, in modeled time: the CPU requests that arrive
    // before PRIME's progress plus the pacing lead go first.
    if (coRun_)
        coRun_->issueUntil(primeProgressNs() + coRun_->options().paceLeadNs);
    // Every burst issues at its own channel's cursor as it stands
    // before the transfer: co-running traffic on one channel must not
    // push this transfer's issue time on every other channel.
    for (std::size_t ch = 0; ch < controllers_.size(); ++ch)
        issue_[ch] = controllers_[ch]->channelFree();
    std::uint32_t begin = 0;
    for (const std::uint32_t end : transfer.groupEnds) {
        const std::span<const Burst> group(transfer.bursts.data() + begin,
                                           end - begin);
        const std::size_t ch = group.front().channel;
        controllers_[ch]->scheduleGroup(group, issue_[ch], transfer.isWrite,
                                        transfer.source);
        begin = end;
    }
}

void
MainMemory::writeData(std::uint64_t addr, std::span<const std::uint8_t> data)
{
    PRIME_SPAN(telemetry::globalTrace(), "mem.write_data", "memory");
    // Walk the range one page at a time, locking that page's store
    // stripe: disjoint transfers (the pipeline stages' staging windows)
    // land on different pages and proceed in parallel.
    std::size_t i = 0;
    while (i < data.size()) {
        const std::uint64_t page = (addr + i) / kPageBytes;
        const std::size_t offset = (addr + i) % kPageBytes;
        const std::size_t n =
            std::min(data.size() - i, kPageBytes - offset);
        StoreStripe &stripe = store_[storeStripe(page)];
        MutexLock lock(stripe.mutex);
        std::unique_ptr<std::uint8_t[]> &bytes = stripe.pages[page];
        if (!bytes)
            bytes = std::make_unique<std::uint8_t[]>(kPageBytes);
        std::memcpy(bytes.get() + offset, data.data() + i, n);
        i += n;
    }
}

void
MainMemory::readData(std::uint64_t addr, std::span<std::uint8_t> out) const
{
    PRIME_SPAN(telemetry::globalTrace(), "mem.read_data", "memory");
    std::size_t i = 0;
    while (i < out.size()) {
        const std::uint64_t page = (addr + i) / kPageBytes;
        const std::size_t offset = (addr + i) % kPageBytes;
        const std::size_t n = std::min(out.size() - i, kPageBytes - offset);
        const StoreStripe &stripe = store_[storeStripe(page)];
        MutexLock lock(stripe.mutex);
        const auto it = stripe.pages.find(page);
        if (it != stripe.pages.end())
            std::memcpy(out.data() + i, it->second.get() + offset, n);
        else
            std::memset(out.data() + i, 0, n);
        i += n;
    }
}

double
MainMemory::rowHitRate() const
{
    std::uint64_t hits = 0, total = 0;
    for (int b = 0; b < params_.geometry.totalBanks(); ++b) {
        hits += bank(b).rowHits();
        total += bank(b).rowHits() + bank(b).rowMisses();
    }
    return total ? static_cast<double>(hits) / total : 0.0;
}

StatGroup &
MainMemory::stats()
{
    syncStats();
    return stats_;
}

void
MainMemory::resetStats()
{
    for (const std::unique_ptr<MemoryController> &c : controllers_)
        c->resetStats();
}

void
MainMemory::syncStats()
{
    // Rebuild the published totals from the controllers' absolute
    // books, so the refresh is idempotent and never double-counts.
    auto set_counter = [this](const std::string &name,
                              std::uint64_t count) {
        Stat &s = stats_.get(name);
        s.reset();
        s.increment(count);
    };
    auto set_histogram = [this](const std::string &name,
                                const telemetry::Histogram &src) {
        telemetry::Histogram &h = stats_.histogram(name);
        h.reset();
        h.merge(src);
    };

    ChannelTotals all;
    for (int ch = 0; ch < channels(); ++ch) {
        const ChannelTotals t = controller(ch).totals();
        const std::string prefix = "mem.ch" + std::to_string(ch) + ".";
        set_counter(prefix + "reads", t.reads);
        set_counter(prefix + "writes", t.writes);
        set_counter(prefix + "row_hits", t.rowHits);
        set_counter(prefix + "row_misses", t.rowMisses);
        Stat &cb = stats_.get(prefix + "bytes");
        cb.reset();
        cb.add(t.bytes);
        set_histogram(prefix + "service_ns", t.serviceNs);

        all.reads += t.reads;
        all.writes += t.writes;
        all.bytes += t.bytes;
        all.rowHits += t.rowHits;
        all.rowMisses += t.rowMisses;
        all.queueNs.merge(t.queueNs);
        all.serviceNs.merge(t.serviceNs);
        for (std::size_t s = 0; s < kRequestSources; ++s)
            all.sourceServiceNs[s].merge(t.sourceServiceNs[s]);
    }

    set_counter("mem.reads", all.reads);
    set_counter("mem.writes", all.writes);
    set_counter("mem.row_hits", all.rowHits);
    set_counter("mem.row_misses", all.rowMisses);
    Stat &b = stats_.get("mem.bytes");
    b.reset();
    b.add(all.bytes);
    set_histogram("mem.queue_ns", all.queueNs);
    set_histogram("mem.service_ns", all.serviceNs);
    // Per-source attribution: the Fig 8 interference story needs PRIME
    // and CPU service latency separable at the same controllers.
    set_histogram("mem.prime.service_ns",
                  all.sourceServiceNs[static_cast<std::size_t>(
                      RequestSource::Prime)]);
    set_histogram("mem.cpu.service_ns",
                  all.sourceServiceNs[static_cast<std::size_t>(
                      RequestSource::Cpu)]);
}

} // namespace prime::memory
