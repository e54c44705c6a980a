/**
 * @file
 * ReRAM main-memory tests: address mapping round trips (single and
 * multi channel), bank timing, FR-FCFS scheduling with its starvation
 * bound, per-channel stat shards, recorded transfers and their replay,
 * the co-run merge of CPU traffic, occupancy reads racing a timing
 * pass, and the functional backing store.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "memory/cpu_traffic.hh"
#include "memory/main_memory.hh"

namespace prime::memory {
namespace {

nvmodel::TechParams
tech()
{
    return nvmodel::defaultTechParams();
}

/** Record a transfer and time it once. */
void
timeTransfer(MainMemory &mem, std::uint64_t addr, std::size_t bytes,
             bool is_write)
{
    mem.schedule(mem.recordTransfer(addr, bytes, is_write));
}

constexpr Ns kForever = std::numeric_limits<Ns>::infinity();

TEST(AddressMapper, GeometryDerivedSizes)
{
    AddressMapper m(tech().geometry);
    // 256 cols x 4 arrays = 1024 bits = 128 B per mat row.
    EXPECT_EQ(m.bytesPerMatRow(), 128u);
    EXPECT_EQ(m.bytesPerMat(), 128u * 256);
    EXPECT_EQ(m.bytesPerSubarray(), m.bytesPerMat() * 32);
    EXPECT_EQ(m.bytesPerBank(), m.bytesPerSubarray() * 24);
    EXPECT_EQ(m.capacityBytes(), m.bytesPerBank() * 64);
}

TEST(AddressMapper, EncodeDecodeRoundTrip)
{
    AddressMapper m(tech().geometry);
    const std::vector<std::uint64_t> addrs = {
        0, 1, 127, 128, 4096, 1234567, m.capacityBytes() - 1};
    for (std::uint64_t addr : addrs) {
        Location loc = m.decode(addr);
        EXPECT_EQ(m.encode(loc), addr) << addr;
    }
}

TEST(AddressMapper, DecodedFieldsInRange)
{
    AddressMapper m(tech().geometry);
    const nvmodel::Geometry &g = tech().geometry;
    for (std::uint64_t addr = 0; addr < m.capacityBytes();
         addr += m.capacityBytes() / 997) {
        Location loc = m.decode(addr);
        EXPECT_LT(loc.chip, g.chipsPerRank);
        EXPECT_LT(loc.bank, g.banksPerChip);
        EXPECT_LT(loc.subarray, g.subarraysPerBank);
        EXPECT_LT(loc.mat, g.matsPerSubarray);
        EXPECT_LT(loc.column, static_cast<int>(m.bytesPerMatRow()));
        EXPECT_EQ(loc.globalBank,
                  loc.chip * g.banksPerChip + loc.bank);
    }
}

TEST(AddressMapper, PageStaysInOneBank)
{
    AddressMapper m(tech().geometry);
    // All cache lines of a 4 KiB page decode to the same bank
    // (Section IV-B2 bank-aware placement).
    for (std::uint64_t page = 0; page < 64; ++page) {
        const int bank = m.pageBank(page);
        for (std::uint64_t off = 0; off < 4096; off += 64) {
            EXPECT_EQ(m.decode(page * 4096 + off).globalBank, bank);
        }
    }
}

TEST(AddressMapper, RejectsOutOfRange)
{
    AddressMapper m(tech().geometry);
    EXPECT_DEATH(m.decode(m.capacityBytes()), "capacity");
}

TEST(BankModel, RowMissThenHitLatencies)
{
    nvmodel::TimingParams t;
    BankModel bank(t);
    BankAccess miss = bank.access(0.0, 10, false);
    EXPECT_FALSE(miss.rowHit);
    EXPECT_DOUBLE_EQ(miss.complete, t.tRcd + t.tCl);

    BankAccess hit = bank.access(miss.bankFree, 10, false);
    EXPECT_TRUE(hit.rowHit);
    EXPECT_DOUBLE_EQ(hit.complete - hit.start, t.tCl);
}

TEST(BankModel, ConflictAddsPrecharge)
{
    nvmodel::TimingParams t;
    BankModel bank(t);
    bank.access(0.0, 1, false);
    BankAccess conflict = bank.access(100.0, 2, false);
    EXPECT_FALSE(conflict.rowHit);
    EXPECT_DOUBLE_EQ(conflict.complete - conflict.start,
                     t.tRp + t.tRcd + t.tCl);
}

TEST(BankModel, WriteRecoveryOccupiesBank)
{
    nvmodel::TimingParams t;
    BankModel bank(t);
    BankAccess w = bank.access(0.0, 0, true);
    EXPECT_DOUBLE_EQ(w.bankFree - w.complete, t.tWr);
    // The next access cannot start before write recovery finishes.
    BankAccess next = bank.access(0.0, 0, false);
    EXPECT_GE(next.start, w.bankFree);
}

TEST(BankModel, QueueingDelaysAccesses)
{
    nvmodel::TimingParams t;
    BankModel bank(t);
    BankAccess first = bank.access(0.0, 0, false);
    BankAccess second = bank.access(0.0, 0, false);
    EXPECT_GE(second.start, first.bankFree);
    EXPECT_EQ(bank.rowHits(), 1u);
    EXPECT_EQ(bank.rowMisses(), 1u);
}

TEST(MainMemory, ChannelSerializesTransfers)
{
    MainMemory mem(tech());
    // Two reads to different banks: banks work in parallel but the
    // shared channel serializes the data bursts.
    const nvmodel::Geometry &g = mem.params().geometry;
    const std::uint64_t bank_stride =
        mem.mapper().bytesPerMatRow() *
        static_cast<std::uint64_t>(g.matsPerSubarray) * g.subarraysPerBank;
    Request a{0, 64, false, 0.0};
    Request b{bank_stride, 64, false, 0.0};
    RequestResult ra = mem.access(a);
    RequestResult rb = mem.access(b);
    EXPECT_NE(ra.location.globalBank, rb.location.globalBank);
    EXPECT_GE(rb.dataReady, ra.dataReady);
}

TEST(MainMemory, RowHitRateImprovesWithFrFcfs)
{
    // Interleave two row streams; FCFS ping-pongs rows while FR-FCFS
    // batches row hits.
    auto make_requests = [&](MainMemory &mem) {
        // Stride that increments only the row field: one full sweep of
        // (banks x subarrays x mats x mat-row bytes).
        const nvmodel::Geometry &g = mem.params().geometry;
        const std::uint64_t row_stride =
            mem.mapper().bytesPerMatRow() *
            static_cast<std::uint64_t>(g.matsPerSubarray) *
            g.subarraysPerBank * g.totalBanks();
        std::vector<Request> reqs;
        for (int i = 0; i < 16; ++i) {
            // Same bank and mat, alternating wordlines, distinct columns.
            const std::uint64_t row = static_cast<std::uint64_t>(i % 2);
            const std::uint64_t addr =
                row * row_stride + static_cast<std::uint64_t>(i / 2) * 8;
            reqs.push_back(Request{addr, 8, false, 0.0});
        }
        return reqs;
    };

    MainMemory fcfs(tech());
    for (const Request &r : make_requests(fcfs))
        fcfs.access(r);

    MainMemory frfcfs(tech());
    frfcfs.scheduleBatch(make_requests(frfcfs));

    EXPECT_GT(frfcfs.rowHitRate(), fcfs.rowHitRate());
}

/** @p n bytes of a position-dependent pattern keyed by @p key. */
std::vector<std::uint8_t>
pattern(std::size_t n, unsigned key)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>((i * 131 + key * 29 + 7) & 0xff);
    return v;
}

/** Functional read of @p size bytes into a fresh vector, pre-filled
 *  with a non-zero byte so absent bytes must be written as 0. */
std::vector<std::uint8_t>
readBytes(const MainMemory &mem, std::uint64_t addr, std::size_t size)
{
    std::vector<std::uint8_t> out(size, 0xa5);
    mem.readData(addr, out);
    return out;
}

TEST(MainMemory, FunctionalStoreRoundTrip)
{
    MainMemory mem(tech());
    std::vector<std::uint8_t> data = {1, 2, 3, 250, 0, 9};
    mem.writeData(12345, data);
    EXPECT_EQ(readBytes(mem, 12345, 6), data);
    // Unwritten bytes read as zero.
    EXPECT_EQ(readBytes(mem, 999999, 2),
              (std::vector<std::uint8_t>{0, 0}));

    // A write spanning a 4 KiB page boundary reads back whole, and
    // each side of the boundary holds its own part.
    const std::uint64_t boundary = 8 * 4096;
    const std::vector<std::uint8_t> span = pattern(100, 1);
    mem.writeData(boundary - 40, span);
    EXPECT_EQ(readBytes(mem, boundary - 40, 100), span);
    EXPECT_EQ(readBytes(mem, boundary, 60),
              std::vector<std::uint8_t>(span.begin() + 40, span.end()));

    // Absent bytes read 0 inside a partly written page (around the
    // write above) and in an untouched page; a read straddling the
    // written span sees zeros, the data, zeros.
    EXPECT_EQ(readBytes(mem, boundary - 4096, 4096 - 40),
              std::vector<std::uint8_t>(4096 - 40, 0));
    EXPECT_EQ(readBytes(mem, boundary + 60, 200),
              std::vector<std::uint8_t>(200, 0));
    EXPECT_EQ(readBytes(mem, 40 * 4096 + 17, 5000),
              std::vector<std::uint8_t>(5000, 0));
    std::vector<std::uint8_t> around(10, 0);
    around.insert(around.end(), span.begin(), span.end());
    around.resize(around.size() + 10, 0);
    EXPECT_EQ(readBytes(mem, boundary - 50, 120), around);

    // An overwrite replaces exactly its own bytes.
    const std::vector<std::uint8_t> patch = pattern(20, 2);
    mem.writeData(boundary - 10, patch);
    std::vector<std::uint8_t> patched = span;
    std::copy(patch.begin(), patch.end(), patched.begin() + 30);
    EXPECT_EQ(readBytes(mem, boundary - 40, 100), patched);

    // A migration-sized (one FF mat, 32 KiB) unaligned round trip.
    const std::vector<std::uint8_t> mat = pattern(32 * 1024, 3);
    mem.writeData(1000 * 4096 + 123, mat);
    EXPECT_EQ(readBytes(mem, 1000 * 4096 + 123, mat.size()), mat);
}

TEST(MainMemory, FunctionalStoreConcurrentWritersShareStripes)
{
    // Every touched page is a multiple of 16 pages apart, so all of
    // them land on one store stripe; the writers also share each page,
    // each owning one quarter of it.  Interleaved writes must never
    // lose or corrupt a byte.
    MainMemory mem(tech());
    constexpr int kWriters = 4;
    constexpr int kPages = 8;
    constexpr std::size_t kQuarter = 4096 / kWriters;
    auto addr = [](int page, int writer) {
        return static_cast<std::uint64_t>(page) * 16 * 4096 +
               static_cast<std::uint64_t>(writer) * kQuarter;
    };
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w)
        writers.emplace_back([&mem, &addr, w] {
            for (int round = 0; round < 20; ++round)
                for (int p = 0; p < kPages; ++p)
                    mem.writeData(addr(p, w),
                                  pattern(kQuarter, static_cast<unsigned>(
                                                        round * 64 + p * 4 +
                                                        w)));
        });
    for (std::thread &t : writers)
        t.join();
    for (int p = 0; p < kPages; ++p)
        for (int w = 0; w < kWriters; ++w)
            EXPECT_EQ(readBytes(mem, addr(p, w), kQuarter),
                      pattern(kQuarter,
                              static_cast<unsigned>(19 * 64 + p * 4 + w)))
                << "page " << p << " writer " << w;
}

TEST(MainMemory, StatsAccumulate)
{
    MainMemory mem(tech());
    mem.access(Request{0, 64, false, 0.0});
    mem.access(Request{64, 64, true, 0.0});
    EXPECT_EQ(mem.stats().get("mem.reads").count(), 1u);
    EXPECT_EQ(mem.stats().get("mem.writes").count(), 1u);
    EXPECT_DOUBLE_EQ(mem.stats().get("mem.bytes").sum(), 128.0);
}

// Stride that increments only the row field of the decoded address:
// one full sweep of (banks x subarrays x mats x mat-row bytes).
std::uint64_t
rowStride(const MainMemory &mem)
{
    const nvmodel::Geometry &g = mem.params().geometry;
    return mem.mapper().bytesPerMatRow() *
           static_cast<std::uint64_t>(g.matsPerSubarray) *
           g.subarraysPerBank * g.totalBanks();
}

// A batch engineered to starve its second entry: the first request
// opens row B, the second (the victim) wants row A, and every later
// request is a row-B hit sitting inside the lookahead window.
std::vector<Request>
starvationBatch(const MainMemory &mem, int hits)
{
    const std::uint64_t stride = rowStride(mem);
    std::vector<Request> reqs;
    reqs.push_back(Request{stride, 8, false, 0.0});      // opens row B
    reqs.push_back(Request{0, 8, false, 0.0});           // victim, row A
    for (int i = 0; i < hits; ++i)                       // row-B hits
        reqs.push_back(Request{
            stride + 8 + static_cast<std::uint64_t>(i) * 8, 8, false,
            0.0});
    return reqs;
}

TEST(MainMemory, FrFcfsStarvationBoundHolds)
{
    // Regression for the documented-but-unenforced starvation bound:
    // before the fix the victim was bypassed by every row hit the
    // window could see and completed dead last.  Now the oldest entry
    // is forced after at most kFrFcfsMaxBypass consecutive bypasses.
    MainMemory mem(tech());
    std::vector<RequestResult> results =
        mem.scheduleBatch(starvationBatch(mem, 24));

    std::size_t victim_pos = results.size();
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].request.addr == 0)
            victim_pos = i;
    }
    ASSERT_LT(victim_pos, results.size());
    // Position 0 is the row-B opener; then at most kFrFcfsMaxBypass
    // row-B hits may overtake the victim.
    EXPECT_LE(victim_pos, 1u + static_cast<std::size_t>(kFrFcfsMaxBypass));
    // The bound must bind strictly before the end of the batch (the
    // pre-fix behavior): 24 hits were available for bypassing.
    static_assert(kFrFcfsMaxBypass < 24);
    EXPECT_LT(victim_pos, results.size() - 1);
}

nvmodel::TechParams
multiChannelTech(int channels)
{
    nvmodel::TechParams t = nvmodel::defaultTechParams();
    t.geometry.channels = channels;
    return t;
}

TEST(AddressMapper, MultiChannelRoundTripAndInterleave)
{
    const nvmodel::Geometry g = multiChannelTech(4).geometry;
    AddressMapper m(g);
    EXPECT_EQ(m.capacityBytes(), m.bytesPerChannel() * 4);
    const std::vector<std::uint64_t> addrs = {
        0, 1, 63, 64, 127, 128, 4096, 1234567, m.capacityBytes() - 1};
    for (std::uint64_t addr : addrs) {
        const Location loc = m.decode(addr);
        EXPECT_EQ(m.encode(loc), addr) << addr;
        // Consecutive 64B lines rotate across channels.
        EXPECT_EQ(loc.channel,
                  static_cast<int>((addr / 64) % 4)) << addr;
        EXPECT_EQ(loc.channel, m.channelOf(addr)) << addr;
        EXPECT_EQ(loc.globalBank,
                  loc.channel * g.banksPerChannel() +
                      loc.chip * g.banksPerChip + loc.bank) << addr;
    }
    // Dense round-trip sweep across the whole space.
    for (std::uint64_t addr = 0; addr < m.capacityBytes();
         addr += m.capacityBytes() / 997)
        EXPECT_EQ(m.encode(m.decode(addr)), addr) << addr;
}

TEST(MainMemory, MultiChannelSpreadsStreamEvenly)
{
    MainMemory mem(multiChannelTech(4));
    ASSERT_EQ(mem.channels(), 4);
    // A 64-line stream is a whole number of rotations: every channel
    // serves exactly 16 lines.
    timeTransfer(mem, 0, 64 * 64, false);
    StatGroup &stats = mem.stats();
    for (int ch = 0; ch < 4; ++ch) {
        EXPECT_EQ(stats.get("mem.ch" + std::to_string(ch) + ".reads")
                      .count(),
                  16u) << ch;
    }
    EXPECT_EQ(stats.get("mem.reads").count(), 64u);
}

TEST(MainMemory, RowTagIsInt64AndDoesNotAlias)
{
    // Regression for the 32-bit rowTag overflow: with 768 wordline
    // tags per row index, rows 0 and 2^24 alias exactly (3 * 2^32)
    // when the tag is computed in int, so the second access counted a
    // bogus row hit.  A geometry with 2^25 rows per mat makes both
    // rows addressable; the backing store is sparse, so the huge
    // capacity costs nothing.
    nvmodel::TechParams t = nvmodel::defaultTechParams();
    t.geometry.chipsPerRank = 1;
    t.geometry.banksPerChip = 1;
    t.geometry.matRows = 1 << 25;
    MainMemory mem(t);
    const std::uint64_t stride = rowStride(mem);

    mem.access(Request{0, 8, false, 0.0});
    const RequestResult aliased =
        mem.access(Request{(1ull << 24) * stride, 8, false, 0.0});
    EXPECT_FALSE(aliased.bank.rowHit);
    EXPECT_EQ(mem.stats().get("mem.row_hits").count(), 0u);
    EXPECT_EQ(mem.stats().get("mem.row_misses").count(), 2u);
}

TEST(MainMemory, PerChannelShardTotalsExact)
{
    // Requests striding a prime through the line space hit every
    // channel; the published totals must be exactly the sum of what was
    // issued, per channel and overall, with the source attribution
    // partitioning the service histogram.
    MainMemory mem(multiChannelTech(4));
    constexpr std::uint64_t kTotal = 2048;
    const std::uint64_t lines =
        mem.mapper().capacityBytes() / AddressMapper::kLineBytes;
    for (std::uint64_t i = 0; i < kTotal; ++i) {
        Request r;
        r.addr = (i * 104729 + (i / 512) * 7919) % lines *
                 AddressMapper::kLineBytes;
        r.bytes = 64;
        r.isWrite = (i % 3) == 0;
        r.issue = 0.0;
        r.source = (i / 512) % 2 ? RequestSource::Cpu : RequestSource::Prime;
        mem.access(r);
    }

    StatGroup &stats = mem.stats();
    EXPECT_EQ(stats.get("mem.reads").count() +
                  stats.get("mem.writes").count(),
              kTotal);
    EXPECT_DOUBLE_EQ(stats.get("mem.bytes").sum(),
                     static_cast<double>(kTotal) * 64.0);
    std::uint64_t channel_sum = 0;
    for (int ch = 0; ch < mem.channels(); ++ch) {
        const std::string prefix = "mem.ch" + std::to_string(ch) + ".";
        channel_sum += stats.get(prefix + "reads").count() +
                       stats.get(prefix + "writes").count();
        EXPECT_EQ(stats.histogram(prefix + "service_ns").count(),
                  stats.get(prefix + "reads").count() +
                      stats.get(prefix + "writes").count()) << ch;
    }
    EXPECT_EQ(channel_sum, kTotal);
    EXPECT_EQ(stats.histogram("mem.prime.service_ns").count() +
                  stats.histogram("mem.cpu.service_ns").count(),
              kTotal);
    EXPECT_EQ(stats.histogram("mem.prime.service_ns").count(), kTotal / 2);
    EXPECT_EQ(stats.histogram("mem.service_ns").count(), kTotal);
}

TEST(MainMemory, ResetStatsZeroesCountersKeepsTiming)
{
    MainMemory mem(multiChannelTech(2));
    timeTransfer(mem, 0, 4096, false);
    const Ns horizon = mem.channelFree();
    EXPECT_GT(horizon, 0.0);
    // The per-source makespan horizons are gauges: read-time formulas
    // over the last sync, never scalars with a count.
    double prime_ready = -1.0, cpu_ready = -1.0;
    ASSERT_TRUE(mem.stats().evalFormula("mem.prime.last_ready_ns",
                                        prime_ready));
    ASSERT_TRUE(mem.stats().evalFormula("mem.cpu.last_ready_ns",
                                        cpu_ready));
    EXPECT_DOUBLE_EQ(prime_ready, mem.primeProgressNs());
    EXPECT_GT(prime_ready, 0.0);
    EXPECT_DOUBLE_EQ(cpu_ready, 0.0);
    EXPECT_EQ(mem.stats().find("mem.prime.last_ready_ns"), nullptr);
    mem.resetStats();
    StatGroup &stats = mem.stats();
    EXPECT_EQ(stats.get("mem.reads").count(), 0u);
    EXPECT_EQ(stats.get("mem.row_hits").count(), 0u);
    EXPECT_EQ(stats.histogram("mem.service_ns").count(), 0u);
    EXPECT_DOUBLE_EQ(mem.rowHitRate(), 0.0);
    ASSERT_TRUE(stats.evalFormula("mem.prime.last_ready_ns", prime_ready));
    EXPECT_DOUBLE_EQ(prime_ready, 0.0);
    // The hardware stays warm: cursors and open rows survive.
    EXPECT_DOUBLE_EQ(mem.channelFree(), horizon);
}

TEST(CpuTraffic, GeneratesTaggedOpenLoopTraffic)
{
    MainMemory mem(multiChannelTech(2));
    CpuTrafficOptions opt;
    opt.pattern = CpuPattern::Random;
    opt.intensity = 0.5;
    opt.seed = 7;
    CpuTrafficGenerator gen(mem, opt, 256);
    gen.issueUntil(kForever);
    const CpuRunStats &run = gen.stats();
    EXPECT_EQ(run.requests, 256u);
    EXPECT_EQ(gen.remaining(), 0u);
    EXPECT_EQ(run.serviceNs.count(), 256u);
    EXPECT_GT(run.lastDataReady, 0.0);
    // Every request is attributed to the CPU class.
    StatGroup &stats = mem.stats();
    EXPECT_EQ(stats.histogram("mem.cpu.service_ns").count(), 256u);
    EXPECT_EQ(stats.histogram("mem.prime.service_ns").count(), 0u);
}

TEST(CpuTraffic, HorizonBoundsIssueAndZeroIntensityIsIdle)
{
    MainMemory mem(tech());
    CpuTrafficOptions opt;
    opt.intensity = 0.0;
    CpuTrafficGenerator idle(mem, opt, 128);
    idle.issueUntil(kForever);
    EXPECT_EQ(idle.stats().requests, 0u);

    // Arrivals start at the channel horizon (0 on fresh hardware) and
    // are pulled in order: a horizon below the first arrival issues
    // nothing, one past some arrivals issues exactly those.
    opt.intensity = 1.0;
    CpuTrafficGenerator gen(mem, opt, 16);
    gen.issueUntil(0.0);
    EXPECT_EQ(gen.stats().requests, 0u);
    const double peak =
        mem.params().timing.channelBandwidth() * mem.channels();
    const Ns mean_gap = opt.bytes / (opt.intensity * peak);
    gen.issueUntil(4.0 * mean_gap);
    const std::uint64_t early = gen.stats().requests;
    EXPECT_LT(early, 16u);
    EXPECT_EQ(gen.remaining(), 16u - early);
    gen.issueUntil(kForever);
    EXPECT_EQ(gen.stats().requests, 16u);
    EXPECT_EQ(gen.remaining(), 0u);
}

/**
 * Seeded PRIME-like transfers -- 25-B Fetch reads and 512-B Commit
 * writes spread over the space -- recorded on @p mem.
 */
std::vector<Transfer>
fetchCommitStream(const MainMemory &mem, int n)
{
    std::vector<Transfer> out;
    Rng rng(77);
    const std::uint64_t cap = mem.mapper().capacityBytes();
    for (int i = 0; i < n; ++i) {
        const std::uint64_t addr = static_cast<std::uint64_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(cap - 4096)));
        out.push_back(mem.recordTransfer(addr, 25, false));
        out.push_back(mem.recordTransfer(addr + 1024, 512, true));
    }
    return out;
}

TEST(CpuTraffic, CoRunMergeFollowsThePacingRule)
{
    // Attached to a memory, the stream issues before each PRIME
    // transfer every request arriving within paceLeadNs of PRIME's
    // progress: the same as a caller pulling the stream by hand before
    // each schedule(), and both twins end bit-identical.
    CpuTrafficOptions opt;
    opt.pattern = CpuPattern::Random;
    opt.intensity = 4.0;
    opt.paceLeadNs = 300.0;
    opt.seed = 5;
    constexpr std::uint64_t kBudget = 1u << 20;
    MainMemory merged(multiChannelTech(2)), manual(multiChannelTech(2));
    CpuTrafficGenerator merged_gen(merged, opt, kBudget);
    CpuTrafficGenerator manual_gen(manual, opt, kBudget);
    merged.setCoRun(&merged_gen);
    const std::vector<Transfer> stream = fetchCommitStream(merged, 200);

    // The throttle: before the first transfer PRIME has made no
    // progress, so only the arrivals of the first paceLeadNs issue --
    // Poisson with mean paceLeadNs * intensity * peak / bytes; 10x the
    // mean plus slack is astronomically safe.
    merged.schedule(stream.front());
    const double peak =
        merged.params().timing.channelBandwidth() * merged.channels();
    const double expected =
        opt.paceLeadNs * opt.intensity * peak / opt.bytes;
    EXPECT_GT(merged_gen.stats().requests, 0u);
    EXPECT_LT(merged_gen.stats().requests,
              static_cast<std::uint64_t>(10.0 * expected) + 16);

    for (std::size_t i = 1; i < stream.size(); ++i)
        merged.schedule(stream[i]);
    merged.setCoRun(nullptr);
    for (const Transfer &t : stream) {
        manual_gen.issueUntil(manual.primeProgressNs() + opt.paceLeadNs);
        manual.schedule(t);
    }

    EXPECT_EQ(merged_gen.stats().requests, manual_gen.stats().requests);
    EXPECT_EQ(merged.primeProgressNs(), manual.primeProgressNs());
    std::ostringstream a, b;
    merged.stats().dump(a);
    manual.stats().dump(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(CpuTraffic, SmallCoRunIsDeterministic)
{
    // Two fresh memories, the same recorded stream and CPU seed: every
    // mem.* stat, the cursors and the PRIME progress are identical.
    auto corun = [] {
        MainMemory mem(multiChannelTech(2));
        CpuTrafficOptions opt;
        opt.pattern = CpuPattern::Random;
        opt.intensity = 2.0;
        opt.paceLeadNs = 512.0;
        opt.seed = 17;
        CpuTrafficGenerator gen(mem, opt, 4096);
        mem.setCoRun(&gen);
        for (const Transfer &t : fetchCommitStream(mem, 100))
            mem.schedule(t);
        mem.setCoRun(nullptr);
        std::ostringstream out;
        mem.stats().dump(out);
        out << mem.primeProgressNs() << ' ' << mem.channelFree() << ' '
            << gen.stats().requests;
        return out.str();
    };
    const std::string first = corun();
    EXPECT_NE(first.find("mem.cpu.service_ns"), std::string::npos);
    EXPECT_EQ(corun(), first);
}

TEST(BankModel, WriteToReadTurnaroundCharged)
{
    nvmodel::TimingParams t;
    BankModel bank(t);
    BankAccess w = bank.access(0.0, 0, true);
    // Read-after-write to the open row: tWTR + tCL.
    BankAccess r = bank.access(w.bankFree, 0, false);
    EXPECT_DOUBLE_EQ(r.complete - r.start, t.tWtr + t.tCl);
    // Read-after-read: tCL only.
    BankAccess r2 = bank.access(r.bankFree, 0, false);
    EXPECT_DOUBLE_EQ(r2.complete - r2.start, t.tCl);
}

TEST(MainMemoryStats, ServiceLatencyHistogramAndHitRateFormula)
{
    MainMemory mem(tech());
    // 256 bytes -> four 64B bursts through the timed path.
    timeTransfer(mem, 0, 256, false);
    EXPECT_EQ(mem.stats().get("mem.reads").count(), 4u);

    const telemetry::Histogram *service =
        mem.stats().findHistogram("mem.service_ns");
    ASSERT_NE(service, nullptr);
    EXPECT_EQ(service->count(), 4u);
    EXPECT_GT(service->min(), 0.0);
    EXPECT_GT(service->quantile(0.5), 0.0);
    EXPECT_LE(service->quantile(0.5), service->quantile(0.99));
    ASSERT_NE(mem.stats().findHistogram("mem.queue_ns"), nullptr);

    // The derived hit rate matches the bank counters.
    double rate = -1.0;
    ASSERT_TRUE(mem.stats().evalFormula("mem.row_hit_rate", rate));
    EXPECT_DOUBLE_EQ(rate, mem.rowHitRate());
}

// ------------------------------------------------------------------
// Burst path: stepped decode and recorded transfers against their
// references.

/**
 * A small geometry where nothing is a power of two: three channels,
 * and 24-byte mat rows, so one 64-byte step carries through the column
 * more than once.  8 rows keep each channel a whole number of lines.
 */
nvmodel::TechParams
oddTech()
{
    nvmodel::TechParams t = nvmodel::defaultTechParams();
    nvmodel::Geometry &g = t.geometry;
    g.channels = 3;
    g.chipsPerRank = 3;
    g.banksPerChip = 2;
    g.subarraysPerBank = 5;
    g.matsPerSubarray = 3;
    g.matRows = 8;
    g.matCols = 48;
    g.arraysPerFfMat = 4;
    return t;
}

/** The three burst-path geometries: default, two channels, odd. */
std::vector<nvmodel::TechParams>
burstGeometries()
{
    return {tech(), multiChannelTech(2), oddTech()};
}

void
expectSameLocation(const Location &got, const Location &want,
                   std::uint64_t addr)
{
    EXPECT_EQ(got.channel, want.channel) << addr;
    EXPECT_EQ(got.chip, want.chip) << addr;
    EXPECT_EQ(got.bank, want.bank) << addr;
    EXPECT_EQ(got.globalBank, want.globalBank) << addr;
    EXPECT_EQ(got.subarray, want.subarray) << addr;
    EXPECT_EQ(got.mat, want.mat) << addr;
    EXPECT_EQ(got.row, want.row) << addr;
    EXPECT_EQ(got.column, want.column) << addr;
}

/** Step from decode(addr) through a bytes-long transfer, checking
 *  every burst start against a fresh decode. */
void
expectSteppedDecodeMatches(const AddressMapper &m, std::uint64_t addr,
                           std::uint64_t bytes)
{
    Location loc = m.decode(addr);
    for (std::uint64_t off = AddressMapper::kLineBytes; off < bytes;
         off += AddressMapper::kLineBytes) {
        m.stepLine(loc);
        expectSameLocation(loc, m.decode(addr + off), addr + off);
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(AddressMapper, SteppedDecodeMatchesDecode)
{
    for (const nvmodel::TechParams &t : burstGeometries()) {
        const AddressMapper m(t.geometry);
        const std::uint64_t cap = m.capacityBytes();
        const std::uint64_t ch =
            static_cast<std::uint64_t>(t.geometry.channels);
        SCOPED_TRACE("channels=" + std::to_string(ch) +
                     " mat row=" + std::to_string(m.bytesPerMatRow()));
        // Transfers that straddle a mat row, a subarray, a bank and a
        // row (decode strides of the per-channel address, hence x
        // channels in the flat space), from unaligned starts.
        const std::uint64_t mat_row = m.bytesPerMatRow();
        const std::uint64_t subarray =
            mat_row * static_cast<std::uint64_t>(t.geometry.matsPerSubarray);
        const std::uint64_t bank =
            subarray * static_cast<std::uint64_t>(t.geometry.subarraysPerBank);
        const std::uint64_t row =
            bank * static_cast<std::uint64_t>(t.geometry.banksPerChannel());
        for (const std::uint64_t boundary : {mat_row, subarray, bank, row})
            for (const std::uint64_t before : {1ull, 37ull, 200ull}) {
                if (boundary * ch < before)
                    continue;
                const std::uint64_t start = boundary * ch - before;
                expectSteppedDecodeMatches(
                    m, start, std::min<std::uint64_t>(4096, cap - start));
            }
        // Seeded random (addr, bytes), up to migration size.
        Rng rng(404);
        for (int i = 0; i < 300; ++i) {
            const std::uint64_t bytes = static_cast<std::uint64_t>(
                rng.uniformInt(1, std::min<std::int64_t>(
                                      8192, static_cast<std::int64_t>(
                                                cap / 4))));
            const std::uint64_t addr = static_cast<std::uint64_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(cap - bytes)));
            expectSteppedDecodeMatches(m, addr, bytes);
        }
    }
    // The odd geometry end to end: every carry, up to the row, from two
    // start phases.
    const AddressMapper odd(oddTech().geometry);
    expectSteppedDecodeMatches(odd, 0, odd.capacityBytes());
    expectSteppedDecodeMatches(odd, 5, odd.capacityBytes() - 5);
}

void
expectSameHistogram(const telemetry::Histogram &got,
                    const telemetry::Histogram &want, const char *what)
{
    EXPECT_EQ(got.count(), want.count()) << what;
    EXPECT_EQ(got.sum(), want.sum()) << what;
    EXPECT_EQ(got.min(), want.min()) << what;
    EXPECT_EQ(got.max(), want.max()) << what;
    EXPECT_EQ(got.buckets(), want.buckets()) << what;
}

/**
 * The reference a replayed transfer must match: its bursts as plain
 * requests, each issued at its own channel's cursor of @p mem, as one
 * FR-FCFS batch.  Returns the completions (grouped by bank in
 * first-appearance order, completion order within a bank).
 */
std::vector<RequestResult>
scheduleAsBatch(MainMemory &mem, std::uint64_t addr, std::size_t bytes,
                bool is_write)
{
    std::vector<Request> bursts;
    for (std::size_t off = 0; off < bytes; off += 64)
        bursts.push_back(Request{
            addr + off,
            static_cast<std::uint32_t>(std::min<std::size_t>(64, bytes - off)),
            is_write,
            mem.controller(mem.mapper().channelOf(addr + off)).channelFree(),
            RequestSource::Prime});
    const Ns progress = mem.primeProgressNs();
    std::vector<RequestResult> results = mem.scheduleBatch(bursts);
    // The horizon is the latest PRIME dataReady so far.
    Ns ready = progress;
    for (const RequestResult &r : results)
        ready = std::max(ready, r.dataReady);
    EXPECT_EQ(results.size(), bursts.size());
    EXPECT_EQ(mem.primeProgressNs(), ready);
    return results;
}

/** Every bank, counter, histogram and published stat of the two
 *  memories agrees. */
void
expectSameTimingState(MainMemory &got_mem, MainMemory &want_mem)
{
    for (int b = 0; b < got_mem.params().geometry.totalBanks(); ++b) {
        EXPECT_EQ(got_mem.bank(b).openRow(), want_mem.bank(b).openRow())
            << b;
        EXPECT_EQ(got_mem.bank(b).nextFree(), want_mem.bank(b).nextFree())
            << b;
    }
    EXPECT_EQ(got_mem.primeProgressNs(), want_mem.primeProgressNs());
    for (int ch = 0; ch < got_mem.channels(); ++ch) {
        EXPECT_EQ(got_mem.controller(ch).channelFree(),
                  want_mem.controller(ch).channelFree()) << ch;
        const ChannelTotals got = got_mem.controller(ch).totals();
        const ChannelTotals want = want_mem.controller(ch).totals();
        EXPECT_EQ(got.reads, want.reads) << ch;
        EXPECT_EQ(got.writes, want.writes) << ch;
        EXPECT_EQ(got.bytes, want.bytes) << ch;
        EXPECT_EQ(got.rowHits, want.rowHits) << ch;
        EXPECT_EQ(got.rowMisses, want.rowMisses) << ch;
        expectSameHistogram(got.queueNs, want.queueNs, "queue_ns");
        expectSameHistogram(got.serviceNs, want.serviceNs, "service_ns");
        for (std::size_t src = 0; src < kRequestSources; ++src) {
            expectSameHistogram(got.sourceServiceNs[src],
                                want.sourceServiceNs[src],
                                "source service_ns");
        }
        for (const RequestSource src :
             {RequestSource::Prime, RequestSource::Cpu})
            EXPECT_EQ(got_mem.controller(ch).lastReadyNs(src),
                      want_mem.controller(ch).lastReadyNs(src));
    }
    // The published documents agree too.
    std::ostringstream a, b;
    got_mem.stats().dump(a);
    want_mem.stats().dump(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(MainMemory, ReplayedTransfersMatchScheduleBatchOfTheirBursts)
{
    for (const nvmodel::TechParams &t : burstGeometries()) {
        SCOPED_TRACE("channels=" + std::to_string(t.geometry.channels));
        MainMemory replay_mem(t), batch_mem(t);
        const std::uint64_t cap = replay_mem.mapper().capacityBytes();
        // The stream is recorded up front, before any timing: a record
        // holds no time, so its replay issues at the cursors of the
        // moment.
        struct Draw
        {
            std::uint64_t addr;
            std::size_t bytes;
            bool isWrite;
        };
        Rng rng(405);
        std::vector<Draw> draws;
        std::vector<Transfer> records;
        for (int i = 0; i < 400; ++i) {
            const std::size_t bytes = static_cast<std::size_t>(
                rng.uniformInt(1, i % 10 == 0 ? 6000 : 600));
            const std::uint64_t addr = static_cast<std::uint64_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(cap - bytes)));
            draws.push_back(Draw{addr, bytes, rng.bernoulli(0.5)});
            records.push_back(replay_mem.recordTransfer(
                addr, bytes, draws.back().isWrite));
        }
        for (int i = 0; i < 400; ++i) {
            SCOPED_TRACE("transfer " + std::to_string(i));
            const Draw &d = draws[static_cast<std::size_t>(i)];
            // CPU requests on both twins skew the channel cursors, so
            // multi-channel transfers issue out of order and sort.
            if (i % 3 == 0) {
                const Request cpu{
                    static_cast<std::uint64_t>(rng.uniformInt(
                        0, static_cast<std::int64_t>(cap - 64))),
                    64, rng.bernoulli(0.5),
                    replay_mem.channelFree() + rng.uniform(0.0, 50.0),
                    RequestSource::Cpu};
                replay_mem.access(cpu);
                batch_mem.access(cpu);
            }
            scheduleAsBatch(batch_mem, d.addr, d.bytes, d.isWrite);
            replay_mem.schedule(records[static_cast<std::size_t>(i)]);
            ASSERT_EQ(replay_mem.primeProgressNs(),
                      batch_mem.primeProgressNs());
            for (int ch = 0; ch < replay_mem.channels(); ++ch)
                ASSERT_EQ(replay_mem.controller(ch).channelFree(),
                          batch_mem.controller(ch).channelFree())
                    << "channel " << ch;
        }
        expectSameTimingState(replay_mem, batch_mem);
        for (int ch = 0; ch < replay_mem.channels(); ++ch) {
            const ChannelTotals got = replay_mem.controller(ch).totals();
            EXPECT_GT(got.rowHits, 0u) << ch;
            EXPECT_GT(got.rowMisses, 0u) << ch;
        }
    }
}

TEST(MainMemory, ReplayMatchesScheduleBatchOnWarmStarts)
{
    // The replay serves a bank group oldest first unless the bank
    // starts open on one of the group's rows after its first (a warm
    // start), and only then runs the FR-FCFS selection.  Here a CPU
    // access often opens the row of a later burst of the next
    // transfer, or the previous transfer is repeated (its last row is
    // still open).  On the default geometry every 128-byte mat row is
    // two bursts, so groups repeat their row tags.  A recorded group's
    // tags never decrease, so its cold order is always its address
    // order; what a group can be served in other than address order
    // comes from a warm start, and the reference's completion order
    // shows it was reached.
    for (const nvmodel::TechParams &t : burstGeometries()) {
        SCOPED_TRACE(::testing::Message()
                     << "channels=" << t.geometry.channels);
        MainMemory replay_mem(t);
        MainMemory batch_mem(t);
        const std::uint64_t cap = replay_mem.mapper().capacityBytes();
        Rng rng(407);
        std::uint64_t addr = 0;
        std::size_t bytes = 0;
        bool is_write = false;
        int warm_starts = 0, reordered = 0, repeated_tags = 0;
        for (int i = 0; i < 300; ++i) {
            SCOPED_TRACE("transfer " + std::to_string(i));
            if (i == 0 || !rng.bernoulli(0.25)) {
                bytes = static_cast<std::size_t>(rng.uniformInt(65, 700));
                addr = static_cast<std::uint64_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(cap - bytes)));
                is_write = rng.bernoulli(0.5);
            }
            const Transfer record =
                replay_mem.recordTransfer(addr, bytes, is_write);
            // Open the row of one of the first few later bursts
            // (any of them, now and then) on both twins.
            if (rng.bernoulli(0.6)) {
                const std::int64_t bursts =
                    static_cast<std::int64_t>((bytes + 63) / 64);
                const std::int64_t j = rng.uniformInt(
                    1, rng.bernoulli(0.7) ? std::min<std::int64_t>(
                                                3, bursts - 1)
                                          : bursts - 1);
                const Request cpu{addr + static_cast<std::uint64_t>(j) * 64,
                                  64, rng.bernoulli(0.5),
                                  replay_mem.channelFree(),
                                  RequestSource::Cpu};
                replay_mem.access(cpu);
                batch_mem.access(cpu);
            }
            // Which groups start warm: the bank is open on a row
            // of the group other than its first.
            std::size_t begin = 0;
            for (const std::uint32_t end : record.groupEnds) {
                const Burst &front = record.bursts[begin];
                const std::int64_t open =
                    replay_mem.controller(front.channel)
                        .bank(front.bank)
                        .openRow();
                for (std::size_t k = begin + 1; k < end; ++k) {
                    repeated_tags += record.bursts[k].rowTag ==
                                     record.bursts[k - 1].rowTag;
                    if (open != front.rowTag &&
                        record.bursts[k].rowTag == open) {
                        ++warm_starts;
                        break;
                    }
                }
                begin = end;
            }

            const std::vector<RequestResult> results =
                scheduleAsBatch(batch_mem, addr, bytes, is_write);
            replay_mem.schedule(record);
            for (std::size_t k = 1; k < results.size(); ++k)
                if (results[k].location.globalBank ==
                        results[k - 1].location.globalBank &&
                    results[k].request.addr <
                        results[k - 1].request.addr) {
                    ++reordered;
                    break;
                }
            ASSERT_EQ(replay_mem.primeProgressNs(),
                      batch_mem.primeProgressNs());
            for (int ch = 0; ch < replay_mem.channels(); ++ch)
                ASSERT_EQ(replay_mem.controller(ch).channelFree(),
                          batch_mem.controller(ch).channelFree())
                    << "channel " << ch;
        }
        expectSameTimingState(replay_mem, batch_mem);
        EXPECT_GT(warm_starts, 10);
        EXPECT_GT(reordered, 5);
        if (t.geometry.channels == 1) {
            EXPECT_GT(repeated_tags, 100);
        }
    }
}

TEST(MainMemory, RecordedTransferGroupsBurstsPerBank)
{
    // A record touches no timing state, compiles every burst (row tag,
    // bus time, bytes, bank) and groups the bursts per bank in
    // first-appearance order, one direction for the whole transfer.
    // Address order within a group is pinned by the replay matching
    // scheduleBatch (ReplayedTransfersMatchScheduleBatchOfTheirBursts).
    for (const nvmodel::TechParams &tp : burstGeometries()) {
        SCOPED_TRACE("channels=" + std::to_string(tp.geometry.channels));
        MainMemory mem(tp);
        // Start 1000 bytes before the first bank change.
        const nvmodel::Geometry &g = tp.geometry;
        const std::uint64_t addr =
            mem.mapper().bytesPerMatRow() * g.matsPerSubarray *
                g.subarraysPerBank * g.channels -
            1000 + 5;
        const Transfer t = mem.recordTransfer(addr, 3000, true);
        EXPECT_EQ(mem.channelFree(), 0.0);
        EXPECT_TRUE(t.isWrite);
        EXPECT_EQ(t.source, RequestSource::Prime);
        ASSERT_EQ(t.bursts.size(), (3000u + 63) / 64);
        ASSERT_FALSE(t.groupEnds.empty());
        EXPECT_EQ(t.groupEnds.back(), t.bursts.size());

        // The banks in first-appearance order, and each burst's own
        // tag and size, from the plain decode of its address.
        const int per = tp.geometry.banksPerChannel();
        std::vector<int> want_banks;
        std::vector<std::size_t> want_count;
        std::map<int, std::vector<std::int64_t>> tags_of_bank;
        std::uint64_t bytes = 0;
        for (std::uint64_t off = 0; off < 3000; off += 64) {
            const Location loc = mem.mapper().decode(addr + off);
            const auto it = std::find(want_banks.begin(), want_banks.end(),
                                      loc.globalBank);
            if (it == want_banks.end()) {
                want_banks.push_back(loc.globalBank);
                want_count.push_back(0);
            }
            ++want_count[static_cast<std::size_t>(
                std::find(want_banks.begin(), want_banks.end(),
                          loc.globalBank) -
                want_banks.begin())];
            tags_of_bank[loc.globalBank].push_back(
                mem.controller(loc.channel).rowTag(loc));
        }
        ASSERT_EQ(t.groupEnds.size(), want_banks.size());
        EXPECT_GT(want_banks.size(), 1u);
        std::size_t begin = 0;
        for (std::size_t g = 0; g < t.groupEnds.size(); ++g) {
            const std::size_t end = t.groupEnds[g];
            ASSERT_EQ(end - begin, want_count[g]) << "group " << g;
            std::vector<std::int64_t> tags;
            for (std::size_t i = begin; i < end; ++i) {
                const Burst &b = t.bursts[i];
                EXPECT_EQ(b.channel * per + b.bank, want_banks[g]) << i;
                EXPECT_EQ(b.busNs,
                          mem.controller(b.channel).busNs(b.bytes)) << i;
                bytes += b.bytes;
                tags.push_back(b.rowTag);
            }
            EXPECT_EQ(tags, tags_of_bank[want_banks[g]]) << "group " << g;
            begin = end;
        }
        EXPECT_EQ(bytes, 3000u);

        const Transfer empty = mem.recordTransfer(64, 0, false);
        EXPECT_TRUE(empty.bursts.empty());
        EXPECT_TRUE(empty.groupEnds.empty());
        EXPECT_FALSE(empty.isWrite);
    }
}

TEST(MainMemory, FrFcfsOrderMatchesEraseReference)
{
    // The controller keeps its bank queue as a compacting index list;
    // the reference is the plain form: a vector of pending requests,
    // scanned for a row hit within the window and erased from.  The
    // open row after each access is that access's row, so the service
    // order follows from the row tags.
    Rng rng(406);
    for (int trial = 0; trial < 60; ++trial) {
        MainMemory mem(tech());
        const std::uint64_t stride = rowStride(mem);
        std::vector<Request> batch;
        const int n = static_cast<int>(rng.uniformInt(1, 90));
        for (int i = 0; i < n; ++i)
            batch.push_back(Request{
                static_cast<std::uint64_t>(rng.uniformInt(0, 3)) * stride +
                    static_cast<std::uint64_t>(i) * 8,
                8, rng.bernoulli(0.3), 0.0});
        const MemoryController &ctrl = mem.controller(0);
        std::vector<Request> pending = batch;
        std::vector<std::uint64_t> want;
        std::int64_t open = -1;
        int bypasses = 0;
        while (!pending.empty()) {
            std::size_t chosen = 0;
            if (bypasses < kFrFcfsMaxBypass)
                for (std::size_t i = 0;
                     i < std::min<std::size_t>(
                             static_cast<std::size_t>(kFrFcfsWindow),
                             pending.size());
                     ++i)
                    if (ctrl.rowTag(mem.mapper().decode(pending[i].addr)) ==
                        open) {
                        chosen = i;
                        break;
                    }
            bypasses = chosen == 0 ? 0 : bypasses + 1;
            open = ctrl.rowTag(mem.mapper().decode(pending[chosen].addr));
            want.push_back(pending[chosen].addr);
            pending.erase(pending.begin() +
                          static_cast<std::ptrdiff_t>(chosen));
        }
        std::vector<std::uint64_t> got;
        for (const RequestResult &r : mem.scheduleBatch(batch))
            got.push_back(r.request.addr);
        ASSERT_EQ(got, want) << "trial " << trial;
    }
}

TEST(MainMemory, OccupancySampledDuringReplayIsRaceFree)
{
    // The one concurrent reader the timing model has: a metrics
    // sampler evaluating occupancy() while a timing pass (PRIME
    // transfers with a co-run CPU stream merged in) runs.  The bank
    // counters only grow and the backlogs stay non-negative; once the
    // pass is over the counters equal the published totals.  The race
    // check itself is the ThreadSanitizer build.
    MainMemory mem(multiChannelTech(2));
    const std::vector<Transfer> stream = fetchCommitStream(mem, 2000);
    CpuTrafficOptions opt;
    opt.pattern = CpuPattern::Random;
    opt.intensity = 0.5;
    opt.paceLeadNs = 200.0;
    opt.seed = 9;
    CpuTrafficGenerator gen(mem, opt, 1u << 20);
    const int banks = mem.params().geometry.totalBanks();
    std::atomic<bool> done{false};
    std::atomic<bool> went_backwards{false};
    std::atomic<bool> negative_backlog{false};
    std::thread sampler([&] {
        const StatGroup &occ = mem.occupancy();
        double last_reads = 0.0;
        while (!done.load(std::memory_order_acquire)) {
            double reads = 0.0, value = 0.0;
            for (int b = 0; b < banks; ++b) {
                const std::string prefix =
                    "mem.bank" + std::to_string(b) + ".";
                if (const Stat *bank_reads = occ.find(prefix + "reads"))
                    reads += static_cast<double>(bank_reads->count());
                if (occ.evalFormula(prefix + "backlog_ns", value) &&
                    value < 0.0) {
                    negative_backlog.store(true, std::memory_order_relaxed);
                }
            }
            if (reads < last_reads)
                went_backwards.store(true, std::memory_order_relaxed);
            last_reads = reads;
            (void)occ.evalFormula("mem.channel_free_ns", value);
        }
    });
    mem.setCoRun(&gen);
    for (const Transfer &t : stream)
        mem.schedule(t);
    mem.setCoRun(nullptr);
    done.store(true, std::memory_order_release);
    sampler.join();

    EXPECT_FALSE(went_backwards.load());
    EXPECT_FALSE(negative_backlog.load());
    EXPECT_GT(gen.stats().requests, 0u);
    double reads = 0.0, writes = 0.0;
    for (int b = 0; b < banks; ++b) {
        const std::string prefix = "mem.bank" + std::to_string(b) + ".";
        const Stat *bank_reads = mem.occupancy().find(prefix + "reads");
        const Stat *bank_writes = mem.occupancy().find(prefix + "writes");
        ASSERT_NE(bank_reads, nullptr);
        ASSERT_NE(bank_writes, nullptr);
        reads += static_cast<double>(bank_reads->count());
        writes += static_cast<double>(bank_writes->count());
    }
    StatGroup &stats = mem.stats();
    EXPECT_EQ(reads, static_cast<double>(stats.get("mem.reads").count()));
    EXPECT_EQ(writes, static_cast<double>(stats.get("mem.writes").count()));
    EXPECT_EQ(stats.histogram("mem.prime.service_ns").count(),
              2000u * (1u + 8u));
}

} // namespace
} // namespace prime::memory
