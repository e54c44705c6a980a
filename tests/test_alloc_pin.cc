/**
 * @file
 * Allocation pin of the run-time data flow.  After warm-up, replaying a
 * programmed layer's Table I stream -- Fetch, Load, computeMats, Store,
 * Commit through PrimeController and MainMemory -- allocates nothing,
 * in exact mode and on the noisy analog path; the timing pass's
 * replay of recorded transfers allocates nothing; a whole run() or
 * calibrate() allocates equally often whatever its layers' tile
 * counts, so the tiled MVM replays its tape -- or merges its tiles'
 * untruncated dot products -- without allocating; run() of the
 * CNN-1 and MLP-S benchmark nets stays at its pinned count per image;
 * and so does a pipelined runBatch on a 4-stage plan.  Building a
 * default MainMemory or PrimeSystem allocates at most its pinned
 * number of bytes.
 *
 * This executable replaces the global operator new/delete with
 * counting versions, which is why it is a binary of its own.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "common/thread_pool.hh"
#include "nn/network.hh"
#include "nn/topology.hh"
#include "prime/prime_system.hh"

namespace {

/** operator new calls so far, from every thread. */
std::atomic<std::size_t> g_allocations{0};
/** Bytes those calls asked for (frees are not subtracted). */
std::atomic<std::size_t> g_bytes{0};

// The replacement operator new/delete sit on the C allocator: they
// cannot call themselves.
void *
countedAlloc(std::size_t size, std::size_t align = 0) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
    size = size ? size : 1;
    if (align <= alignof(std::max_align_t))
        // NOLINTNEXTLINE(cppcoreguidelines-no-malloc): see above.
        return std::malloc(size);
    return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void
release(void *p) noexcept
{
    // NOLINTNEXTLINE(cppcoreguidelines-no-malloc): see countedAlloc.
    std::free(p);
}

void *
countedAllocOrThrow(std::size_t size, std::size_t align = 0)
{
    if (void *p = countedAlloc(size, align))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAllocOrThrow(size); }
void *operator new[](std::size_t size) { return countedAllocOrThrow(size); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAllocOrThrow(size, static_cast<std::size_t>(align));
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAllocOrThrow(size, static_cast<std::size_t>(align));
}
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}
void operator delete(void *p) noexcept { release(p); }
void operator delete[](void *p) noexcept { release(p); }
void operator delete(void *p, std::size_t) noexcept { release(p); }
void operator delete[](void *p, std::size_t) noexcept { release(p); }
void operator delete(void *p, std::align_val_t) noexcept { release(p); }
void operator delete[](void *p, std::align_val_t) noexcept { release(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}

namespace prime::core {
namespace {

using mapping::Command;
using mapping::CommandOp;

/** 600 inputs: the first layer spans three row tiles of a 256-row mat. */
const nn::Topology &
topology()
{
    static const nn::Topology t =
        nn::parseTopology("mlp-600-40-10", "600-40-10", 1, 20, 30);
    return t;
}

const nn::Network &
network()
{
    static const nn::Network net = [] {
        Rng rng(3);
        return nn::buildNetwork(topology(), rng);
    }();
    return net;
}

/** A programmed, configured system (with programming variation). */
std::unique_ptr<PrimeSystem>
programmed(const nvmodel::TechParams &tech)
{
    auto prime = std::make_unique<PrimeSystem>(tech);
    prime->mapTopology(topology());
    Rng variation(17);
    prime->programWeight(network(), &variation);
    prime->configDatapath();
    return prime;
}

/**
 * The first layer's data flow, laid out from the public plan the way
 * PrimeSystem lowers it: inputs at the bottom of the Buffer subarray,
 * one output slot per tile in its top half.
 */
struct LayerReplay
{
    PrimeSystem *prime = nullptr;
    std::vector<int> mats;
    /** Each mat's latched rows: computeMats fires one vector each. */
    std::vector<std::span<const std::uint8_t>> latched;
    std::vector<Command> loads;
    std::vector<Command> stores;
    Command fetch;
    Command commit;
    std::vector<std::uint8_t> codes;

    static constexpr std::uint64_t kInputAddr = 1 << 20;
    static constexpr std::uint64_t kOutputAddr = 2 << 20;

    explicit LayerReplay(PrimeSystem &system) : prime(&system)
    {
        const mapping::LayerMapping &m = system.plan().layers.front();
        const nvmodel::Geometry g = nvmodel::defaultTechParams().geometry;
        const std::uint64_t buf_out = system.buffer(0).capacity() / 2;
        const std::uint32_t slot =
            2 * static_cast<std::uint32_t>(g.matCols);
        for (const mapping::MatTile &t : m.tiles) {
            if (t.replica != 0)
                continue;
            EXPECT_EQ(t.bank, 0);
            const int mat = t.subarray * g.matsPerSubarray + t.mat;
            const std::uint64_t ff = static_cast<std::uint64_t>(mat) *
                                     PrimeController::kFfMatStride;
            loads.push_back(Command{
                CommandOp::Load, 0, 0,
                static_cast<std::uint64_t>(t.rowTile * g.matRows), ff,
                static_cast<std::uint32_t>(t.rowsUsed)});
            stores.push_back(Command{
                CommandOp::Store, 0, 0, ff, buf_out + mats.size() * slot,
                static_cast<std::uint32_t>(2 * t.colsUsed)});
            mats.push_back(mat);
            latched.push_back(system.controller(0).latch(mat).first(
                static_cast<std::size_t>(t.rowsUsed)));
        }
        fetch = Command{CommandOp::Fetch, 0, 0, kInputAddr, 0,
                        static_cast<std::uint32_t>(m.info.rows)};
        commit = Command{CommandOp::Commit, 0, 0, buf_out, kOutputAddr,
                         static_cast<std::uint32_t>(mats.size()) * slot};
        codes.resize(static_cast<std::size_t>(m.info.rows));
        for (std::size_t i = 0; i < codes.size(); ++i)
            codes[i] = static_cast<std::uint8_t>((i * 7 + 3) % 64);
    }

    void
    operator()()
    {
        PrimeController &ctrl = prime->controller(0);
        prime->mainMemory().writeData(kInputAddr, codes);
        ctrl.execute(fetch);
        for (const Command &c : loads)
            ctrl.execute(c);
        ctrl.computeMats(mats, latched);
        for (const Command &c : stores)
            ctrl.execute(c);
        ctrl.execute(commit);
    }

    /** The committed output registers of the last replay. */
    std::vector<std::uint8_t>
    committed() const
    {
        std::vector<std::uint8_t> out(commit.bytes);
        prime->mainMemory().readData(kOutputAddr, out);
        return out;
    }
};

/** operator new calls made by @p n calls of @p fn after three warm-ups. */
template <typename Fn>
std::size_t
steadyStateAllocations(Fn &&fn, int n)
{
    for (int i = 0; i < 3; ++i)
        fn();
    const std::size_t before = g_allocations.load();
    for (int i = 0; i < n; ++i)
        fn();
    return g_allocations.load() - before;
}

void
expectReplayAllocatesNothing(PrimeSystem &prime, const char *what)
{
    LayerReplay replay(prime);
    ASSERT_GE(replay.mats.size(), 3u) << what << ": not a multi-tile layer";
    const std::uint64_t commands = prime.controller(0).commandCount();
    EXPECT_EQ(steadyStateAllocations(replay, 20), 0u) << what;
    EXPECT_EQ(prime.controller(0).commandCount() - commands,
              23 * (replay.loads.size() + replay.stores.size() + 2))
        << what;
    // The replays did real, repeatable work: the committed codes are
    // not all zero and a further replay commits the same bytes.
    const std::vector<std::uint8_t> first = replay.committed();
    EXPECT_NE(first, std::vector<std::uint8_t>(first.size(), 0)) << what;
    replay();
    EXPECT_EQ(replay.committed(), first) << what;
}

TEST(AllocationPin, LayerReplayAllocatesNothingExact)
{
    std::unique_ptr<PrimeSystem> prime =
        programmed(nvmodel::defaultTechParams());
    expectReplayAllocatesNothing(*prime, "exact");
}

TEST(AllocationPin, LayerReplayAllocatesNothingNoisyAnalog)
{
    nvmodel::TechParams tech = nvmodel::defaultTechParams();
    tech.device.programVariation = 0.03;
    std::unique_ptr<PrimeSystem> prime = programmed(tech);
    Rng noise(29);
    prime->setAnalogCompute(true, &noise);
    expectReplayAllocatesNothing(*prime, "noisy analog");
}

TEST(AllocationPin, RunAllocationsDoNotDependOnTileCount)
{
    // The same network on 256x256 mats (3 + 1 tiles) and on 64x64 mats
    // (10 + 1 tiles): run() and calibrate() allocate for their tensors
    // and activation codes, never per tile or per command.
    nvmodel::TechParams small = nvmodel::defaultTechParams();
    small.geometry.matRows = 64;
    small.geometry.matCols = 64;
    std::unique_ptr<PrimeSystem> wide =
        programmed(nvmodel::defaultTechParams());
    std::unique_ptr<PrimeSystem> narrow = programmed(small);
    ASSERT_LT(wide->plan().totalMats(), narrow->plan().totalMats());

    nn::Tensor input({1, 20, 30});
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<double>(i % 17) / 17.0;
    const std::vector<nn::Sample> samples = {{input, 0}};
    for (int threads : {1, 4}) {
        ThreadPool::setGlobalThreadCount(threads);
        const std::size_t per_wide =
            steadyStateAllocations([&] { wide->run(input); }, 10);
        const std::size_t per_narrow =
            steadyStateAllocations([&] { narrow->run(input); }, 10);
        EXPECT_EQ(per_wide, per_narrow) << "threads=" << threads;
        const std::size_t calibrate_wide = steadyStateAllocations(
            [&] { wide->calibrate(samples); }, 10);
        const std::size_t calibrate_narrow = steadyStateAllocations(
            [&] { narrow->calibrate(samples); }, 10);
        EXPECT_EQ(calibrate_wide, calibrate_narrow)
            << "calibrate, threads=" << threads;
    }
    ThreadPool::setGlobalThreadCount(0);
}

TEST(AllocationPin, ScheduleTransferAllocatesNothing)
{
    // The timing pass alone: recorded Commit-sized transfers that cross
    // a bank boundary (two bank queues) and a migration-sized one of
    // 128 bursts (past the 64 a page takes) replay through the
    // memory's own queue scratch after warm-up.
    memory::MainMemory mem(nvmodel::defaultTechParams());
    const memory::AddressMapper &m = mem.mapper();
    const nvmodel::Geometry &g = m.geometry();
    // Consecutive addresses change bank after every mat row of every
    // mat of every subarray.
    const std::uint64_t bank_edge =
        m.bytesPerMatRow() *
        static_cast<std::uint64_t>(g.matsPerSubarray * g.subarraysPerBank);
    ASSERT_NE(m.decode(bank_edge - 256).globalBank,
              m.decode(bank_edge).globalBank);
    std::vector<memory::Transfer> commits;
    for (std::uint64_t shift = 0; shift < 64; shift += 8)
        commits.push_back(
            mem.recordTransfer(bank_edge - 256 + shift, 512, true));
    ASSERT_EQ(commits.front().groupEnds.size(), 2u);
    std::size_t next = 0;
    const std::size_t multi_bank = steadyStateAllocations(
        [&] {
            mem.schedule(commits[next]);
            next = (next + 1) % commits.size();
        },
        20);
    EXPECT_EQ(multi_bank, 0u);
    const memory::Transfer migration =
        mem.recordTransfer(3 * bank_edge - 4096, 128 * 64, true);
    const std::size_t migrate = steadyStateAllocations(
        [&] { mem.schedule(migration); }, 20);
    EXPECT_EQ(migrate, 0u);
    EXPECT_GT(mem.rowHitRate(), 0.0);
}

/** Bytes operator new handed out while @p fn ran, after one warm-up
 *  call (first-use statics are not the footprint). */
template <typename Fn>
std::size_t
allocatedBytes(Fn &&fn)
{
    fn();
    const std::size_t before = g_bytes.load();
    fn();
    return g_bytes.load() - before;
}

TEST(AllocationPin, ConstructionFootprintPinned)
{
    // A default MainMemory keeps one set of stat books per channel and
    // per bank only its timing state, its next-free copy and its
    // occupancy counters: about 64 KB, most of it the occupancy group's
    // per-bank entries.  Per-bank latency histograms (6 KB each, three
    // per bank) would cost over 1 MB and fail the bound.
    const std::size_t memory = allocatedBytes(
        [] { memory::MainMemory mem(nvmodel::defaultTechParams()); });
    EXPECT_LE(memory, 128u * 1024);
    // A bare PrimeSystem (its MainMemory, buffers and controllers):
    // 3,383,306 bytes when this pin was set, plus a 10% margin.
    const std::size_t system = allocatedBytes([] { PrimeSystem prime; });
    EXPECT_LE(system, 3'720'000u);
}

/** Steady-state operator new calls per run() of a benchmark net. */
std::size_t
runAllocationsPerImage(const char *name)
{
    const nn::Topology topo = nn::mlBenchByName(name);
    Rng rng(5);
    const nn::Network net = nn::buildNetwork(topo, rng);
    PrimeSystem prime;
    prime.mapTopology(topo);
    prime.programWeight(net);
    prime.configDatapath();
    nn::Tensor input({1, 28, 28});
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<double>(i % 13) / 13.0;
    constexpr int kImages = 4;
    return steadyStateAllocations([&] { prime.run(input); }, kImages) /
           kImages;
}

TEST(AllocationPin, RunAllocationsPerImagePinned)
{
    // run() allocates for its tensors and activation codes only; the
    // Fetch/Commit log it appends to is reserved when the tape is
    // lowered and its timing pass replays without allocating.  The
    // counts are those of the inline-timing design this replaced.
    ThreadPool::setGlobalThreadCount(1);
    EXPECT_LE(runAllocationsPerImage("CNN-1"), 14u);
    EXPECT_LE(runAllocationsPerImage("MLP-S"), 12u);
    ThreadPool::setGlobalThreadCount(0);
}

/** Steady-state operator new calls per image of a pipelined runBatch
 *  of @p batch images on the 4-stage 64-256-256-256-256 plan (one mat
 *  per bank), on a global pool of 4, counted on every thread. */
double
pipelinedAllocationsPerImage(std::size_t batch)
{
    nvmodel::TechParams tech = nvmodel::defaultTechParams();
    tech.geometry.ffSubarraysPerBank = 1;
    tech.geometry.matsPerSubarray = 1;
    const nn::Topology topo = nn::parseTopology(
        "mlp-pipeline", "64-256-256-256-256", 1, 8, 8);
    Rng rng(7);
    const nn::Network net = nn::buildNetwork(topo, rng);
    PrimeSystem prime(tech);
    prime.mapTopology(topo);
    prime.programWeight(net);
    prime.configDatapath();
    EXPECT_EQ(prime.stages().size(), 4u);
    std::vector<nn::Tensor> inputs(batch, nn::Tensor({1, 8, 8}));
    for (std::size_t i = 0; i < batch; ++i)
        for (std::size_t k = 0; k < inputs[i].size(); ++k)
            inputs[i][k] = static_cast<double>((i * 7 + k) % 11) / 11.0;
    constexpr int kBatches = 4;
    ThreadPool::setGlobalThreadCount(4);
    const std::size_t total = steadyStateAllocations(
        [&] { (void)prime.runBatch(std::span<const nn::Tensor>(inputs)); },
        kBatches);
    ThreadPool::setGlobalThreadCount(0);
    return static_cast<double>(total) /
           static_cast<double>(kBatches * batch);
}

TEST(AllocationPin, PipelinedBatchAllocationsPerImagePinned)
{
    // The executor's own share is a few vectors per batch (the results,
    // the step and chunk stamps) and nothing per step: the batch stats
    // are bound once and each stage step moves its image along.  The
    // rest is the stages' tensors and activation codes.  This design
    // counts 12.25 per image (the executor that looked its stats up per
    // batch and copied every image into each stage counted 18.56, the
    // free-running ring executor before it 24.81); one allocation more
    // per step (7 steps of 16 images) crosses the bound.
    EXPECT_LE(pipelinedAllocationsPerImage(16), 12.5);
}

} // namespace
} // namespace prime::core
