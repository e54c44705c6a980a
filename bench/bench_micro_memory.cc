/**
 * @file
 * Google-benchmark microbenchmarks of the memory substrate and the
 * PRIME controller path: request scheduling, address decode and Table I
 * command round trips.  Also reports the modeled Buffer-subarray bypass
 * latency delta (a Section III-A design note).
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "mapping/commands.hh"
#include "memory/main_memory.hh"
#include "nvmodel/latency_model.hh"
#include "nn/dataset.hh"
#include "prime/prime_system.hh"

using namespace prime;

namespace {

void
BM_AddressDecode(benchmark::State &state)
{
    memory::AddressMapper mapper(nvmodel::defaultTechParams().geometry);
    std::uint64_t addr = 0;
    const std::uint64_t cap = mapper.capacityBytes();
    for (auto _ : state) {
        benchmark::DoNotOptimize(mapper.decode(addr));
        addr = (addr + 4093) % cap;
    }
}
BENCHMARK(BM_AddressDecode);

void
BM_MemoryAccess(benchmark::State &state)
{
    memory::MainMemory mem(nvmodel::defaultTechParams());
    std::uint64_t addr = 0;
    const std::uint64_t cap = mem.mapper().capacityBytes();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mem.access(memory::Request{addr, 64, false, 0.0}));
        addr = (addr + 8191) % cap;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemoryAccess);

void
BM_FrFcfsBatch(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    nvmodel::TechParams tech = nvmodel::defaultTechParams();
    for (auto _ : state) {
        state.PauseTiming();
        memory::MainMemory mem(tech);
        std::vector<memory::Request> reqs;
        reqs.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i)
            reqs.push_back(memory::Request{
                static_cast<std::uint64_t>(i) * 4099 % 1000000, 64,
                (i % 3) == 0, 0.0});
        state.ResumeTiming();
        benchmark::DoNotOptimize(mem.scheduleBatch(std::move(reqs)));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FrFcfsBatch)->Arg(64)->Arg(512);

/**
 * The timing pass's cost per Table I transfer: one recorded transfer
 * scheduled again and again, as PRIME's replay times each logged
 * command.  A 25-B read is CNN-1's Fetch of a 5x5 receptive field, a
 * 512-B write the Commit of one output slot; 16 records at addresses
 * 1088 B apart give a mix of row hits and misses.
 */
void
BM_ScheduleTransfer(benchmark::State &state)
{
    const std::size_t bytes = static_cast<std::size_t>(state.range(0));
    const bool is_write = state.range(1) != 0;
    memory::MainMemory mem(nvmodel::defaultTechParams());
    std::vector<memory::Transfer> records;
    for (std::uint64_t i = 0; i < 16; ++i)
        records.push_back(mem.recordTransfer(i * 1088, bytes, is_write));
    std::size_t next = 0;
    for (auto _ : state) {
        mem.schedule(records[next]);
        benchmark::ClobberMemory();
        next = (next + 1) % records.size();
    }
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ScheduleTransfer)->Args({25, 0})->Args({512, 1});

/**
 * The record side: compiling one transfer when a tape is lowered.
 * analog_mc re-records every tape and migration transfer on each
 * trial's programWeight, so this is its per-trial cost per transfer.
 * A 25-B Fetch and a 512-B Commit as above, and an 8-KiB migration
 * write that starts 4 KiB before a bank change, so it spans two banks.
 */
void
BM_RecordTransfer(benchmark::State &state)
{
    const std::size_t bytes = static_cast<std::size_t>(state.range(0));
    const bool is_write = state.range(1) != 0;
    memory::MainMemory mem(nvmodel::defaultTechParams());
    const memory::AddressMapper &m = mem.mapper();
    const nvmodel::Geometry &g = m.geometry();
    // Consecutive addresses change bank after every mat row of every
    // mat of every subarray.
    const std::uint64_t bank_edge =
        m.bytesPerMatRow() *
        static_cast<std::uint64_t>(g.matsPerSubarray * g.subarraysPerBank);
    std::vector<std::uint64_t> addrs;
    for (std::uint64_t i = 0; i < 16; ++i)
        addrs.push_back(bytes > 4096 ? (i + 1) * bank_edge - 4096
                                     : i * 1088);
    std::size_t next = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mem.recordTransfer(addrs[next], bytes, is_write));
        next = (next + 1) % addrs.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordTransfer)
    ->Args({25, 0})
    ->Args({512, 1})
    ->Args({8192, 1});

void
BM_CommandRoundTrip(benchmark::State &state)
{
    mapping::Command c;
    c.op = mapping::CommandOp::Load;
    c.src = 0x40;
    c.dst = 0x1234;
    c.bytes = 192;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            mapping::decodeCommand(mapping::encodeCommand(c)));
}
BENCHMARK(BM_CommandRoundTrip);

/** Not a timing benchmark: prints the modeled buffer-bypass ablation. */
void
BM_ModeledBufferBypass(benchmark::State &state)
{
    nvmodel::LatencyModel lat(nvmodel::defaultTechParams());
    // With the Buffer subarray, a 256-value activation vector pays one
    // buffered transfer; bypassing (output of one mat feeds the next via
    // the intermediate register) drops the access latency.
    const double bytes = 256 * 0.75;
    const Ns buffered = lat.bufferTransfer(bytes);
    const Ns bypassed = bytes / 32.0;  // register-to-register stream
    for (auto _ : state)
        benchmark::DoNotOptimize(buffered - bypassed);
    state.counters["buffered_ns"] = buffered;
    state.counters["bypassed_ns"] = bypassed;
}
BENCHMARK(BM_ModeledBufferBypass);

/** Simulator throughput of one full functional PRIME inference. */
void
BM_PrimeSystemInference(benchmark::State &state)
{
    static core::PrimeSystem *prime = [] {
        nn::Topology topo =
            nn::parseTopology("bench-mlp", "784-64-10", 1, 28, 28);
        nn::SyntheticMnist gen;
        auto train = gen.generate(200);
        Rng rng(1);
        static nn::Network net = nn::buildNetwork(topo, rng);
        nn::Trainer::Options opt;
        opt.epochs = 1;
        opt.learningRate = 0.3;
        nn::Trainer::train(net, train, opt);
        auto *p = new core::PrimeSystem();
        p->mapTopology(topo);
        p->programWeight(net);
        p->configDatapath();
        return p;
    }();
    nn::SyntheticMnist gen;
    nn::Sample sample = gen.generateDigit(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(prime->run(sample.input));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrimeSystemInference);

} // namespace

BENCHMARK_MAIN();
