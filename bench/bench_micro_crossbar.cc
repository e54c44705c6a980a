/**
 * @file
 * Google-benchmark microbenchmarks of the ReRAM compute substrate:
 * crossbar MVMs, the composing pipeline and cell programming.
 * These measure the *simulator's* throughput (useful when scaling
 * experiments), not modeled hardware time.  Every MVM benchmark times a
 * span kernel on the path PrimeController::computeMat runs (composed
 * engine, then the analog crossbar), writing into buffers reused across
 * iterations.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "reram/composing.hh"

using namespace prime;
using namespace prime::reram;

namespace {

Crossbar &
sharedCrossbar(int rows, int cols)
{
    static std::map<std::pair<int, int>, std::unique_ptr<Crossbar>> cache;
    auto key = std::make_pair(rows, cols);
    auto it = cache.find(key);
    if (it == cache.end()) {
        CrossbarParams p;
        p.rows = rows;
        p.cols = cols;
        auto xbar = std::make_unique<Crossbar>(p);
        Rng rng(rows * 31 + cols);
        std::vector<std::vector<int>> levels(rows, std::vector<int>(cols));
        for (auto &r : levels)
            for (int &v : r)
                v = static_cast<int>(rng.uniformInt(0, 15));
        xbar->programLevels(levels);
        it = cache.emplace(key, std::move(xbar)).first;
    }
    return *it->second;
}

/** @p n input codes drawn uniformly from [0, @p max]. */
std::vector<std::uint8_t>
randomCodes(int n, int max, Rng &rng)
{
    std::vector<std::uint8_t> codes(static_cast<std::size_t>(n));
    for (std::uint8_t &v : codes)
        v = static_cast<std::uint8_t>(rng.uniformInt(0, max));
    return codes;
}

/** A composed engine of rows x cols logical weights, programmed once. */
const ComposedMatrixEngine &
sharedEngine(int rows, int cols)
{
    static std::map<std::pair<int, int>,
                    std::unique_ptr<ComposedMatrixEngine>>
        cache;
    const std::pair<int, int> key{rows, cols};
    auto it = cache.find(key);
    if (it == cache.end()) {
        auto engine = std::make_unique<ComposedMatrixEngine>(
            rows, cols, ComposingParams{}, CrossbarParams{});
        Rng rng(9);
        std::vector<int> w(static_cast<std::size_t>(rows) * cols);
        for (int &v : w)
            v = static_cast<int>(rng.uniformInt(-255, 255));
        engine->programWeights(w);
        it = cache.emplace(key, std::move(engine)).first;
    }
    return *it->second;
}

void
BM_CrossbarMvmAnalog(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Crossbar &xbar = sharedCrossbar(n, n);
    Rng rng(8);
    const std::vector<std::uint8_t> in = randomCodes(n, 7, rng);
    std::vector<double> out(static_cast<std::size_t>(n));
    for (auto _ : state) {
        xbar.mvmAnalog(in, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n) * n);
}
BENCHMARK(BM_CrossbarMvmAnalog)->Arg(64)->Arg(256);

/** Analog MVM with the first-order wire model active: the IR drop is
 *  folded into the conductance plane when a cell is programmed, so
 *  this should track the plain analog timing. */
void
BM_CrossbarMvmAnalogIrDrop(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    static std::map<int, std::unique_ptr<Crossbar>> cache;
    auto it = cache.find(n);
    if (it == cache.end()) {
        CrossbarParams p;
        p.rows = n;
        p.cols = n;
        p.wireResistancePerCell = 1.0;
        auto xbar = std::make_unique<Crossbar>(p);
        Rng rng(n * 37);
        std::vector<std::vector<int>> levels(n, std::vector<int>(n));
        for (auto &r : levels)
            for (int &v : r)
                v = static_cast<int>(rng.uniformInt(0, 15));
        xbar->programLevels(levels);
        it = cache.emplace(n, std::move(xbar)).first;
    }
    Rng rng(13);
    const std::vector<std::uint8_t> in = randomCodes(n, 7, rng);
    std::vector<double> out(static_cast<std::size_t>(n));
    for (auto _ : state) {
        it->second->mvmAnalog(in, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n) * n);
}
BENCHMARK(BM_CrossbarMvmAnalogIrDrop)->Arg(64)->Arg(256);

/** The exact composed MVM of an FF mat (computeMat's ideal path), on
 *  rows x cols logical weights; 25 x 5 is CNN-1's conv tile. */
void
BM_ComposedMatMvm(benchmark::State &state)
{
    const int rows = static_cast<int>(state.range(0));
    const int cols = static_cast<int>(state.range(1));
    const ComposedMatrixEngine &engine = sharedEngine(rows, cols);
    Rng rng(10);
    const std::vector<std::uint8_t> in = randomCodes(rows, 63, rng);
    ComposedMatrixEngine::MvmScratch scratch;
    std::vector<std::int64_t> out(static_cast<std::size_t>(cols));
    for (auto _ : state) {
        engine.mvmExact(in, out, scratch);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(rows) * cols);
    state.SetLabel(reram::detail::dispatchedSignedPlaneKernel().name);
}
BENCHMARK(BM_ComposedMatMvm)
    ->Args({64, 64})
    ->Args({256, 256})
    ->Args({25, 5});

/** The exact composed MVM over a batch of rows x cols input vectors in
 *  one call (a conv layer's call); 25 x 5 x 576 is CNN-1's conv layer,
 *  256 x 256 x 4 a 4-vector batch of a full mat. */
void
BM_ComposedMatMvmBatch(benchmark::State &state)
{
    const int rows = static_cast<int>(state.range(0));
    const int cols = static_cast<int>(state.range(1));
    const int vectors = static_cast<int>(state.range(2));
    const ComposedMatrixEngine &engine = sharedEngine(rows, cols);
    Rng rng(10);
    const std::vector<std::uint8_t> in = randomCodes(rows * vectors, 63, rng);
    ComposedMatrixEngine::MvmScratch scratch;
    std::vector<std::int64_t> out(static_cast<std::size_t>(cols) * vectors);
    for (auto _ : state) {
        engine.mvmExact(in, out, scratch);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(rows) * cols *
                            vectors);
    state.SetLabel(reram::detail::dispatchedSignedPlaneKernel().name);
}
BENCHMARK(BM_ComposedMatMvmBatch)
    ->Args({25, 5, 576})
    ->Args({256, 256, 4});

/**
 * One ISA variant of the pair's exact kernel, called directly on a
 * rows x bitlines pair with composed-engine levels (7-bit signed) and
 * 3-bit phases; registered per variant by main() as
 * BM_SignedPlaneKernel/<variant>/rows/bitlines.
 */
void
BM_SignedPlaneKernel(benchmark::State &state,
                     const reram::detail::SignedPlaneKernel &kernel)
{
    if (!kernel.supported) {
        state.SkipWithError("this CPU lacks the variant's ISA");
        return;
    }
    const int rows = static_cast<int>(state.range(0));
    const int lines = static_cast<int>(state.range(1));
    CrossbarParams p;
    p.rows = rows;
    p.cols = lines;
    p.cellBits = 7;
    DifferentialPair pair(p);
    Rng rng(11);
    std::vector<int> w(static_cast<std::size_t>(rows) * lines);
    for (int &v : w)
        v = static_cast<int>(rng.uniformInt(-127, 127));
    pair.programSigned(w, 1);
    // A high and a low phase: one composed input vector.
    const std::vector<std::uint8_t> phases = randomCodes(2 * rows, 7, rng);
    std::vector<std::int64_t> passes(2 * static_cast<std::size_t>(lines));
    for (auto _ : state) {
        kernel.run(pair.quadPlane().data(), rows, lines, 2, phases.data(),
                   passes.data());
        benchmark::DoNotOptimize(passes.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(rows) * lines);
}

/** The analog composed MVM of an FF mat (computeMat's analog path):
 *  two input phases through the conductance planes, SA-quantized. */
void
BM_ComposedMatMvmAnalog(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    const ComposedMatrixEngine &engine = sharedEngine(n, n);
    Rng rng(17);
    const std::vector<std::uint8_t> in = randomCodes(n, 63, rng);
    ComposedMatrixEngine::MvmScratch scratch;
    std::vector<std::int64_t> out(static_cast<std::size_t>(n));
    for (auto _ : state) {
        engine.mvmAnalog(in, out, scratch);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n) * n);
}
BENCHMARK(BM_ComposedMatMvmAnalog)->Arg(64)->Arg(256);

void
BM_ComposedApprox(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    ComposingParams cp;
    Rng rng(11);
    std::vector<int> in(static_cast<std::size_t>(n)),
        w(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        in[static_cast<std::size_t>(i)] =
            static_cast<int>(rng.uniformInt(0, 63));
        w[static_cast<std::size_t>(i)] =
            static_cast<int>(rng.uniformInt(-255, 255));
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(composedApprox(in, w, cp));
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ComposedApprox)->Arg(256)->Arg(1024);

/** A mat's reprogramming with variation (one Monte-Carlo trial's
 *  per-mat work): construct a rows x cols composed engine and program
 *  it, every cell drawing its programming error. */
void
BM_ProgramWeights(benchmark::State &state)
{
    const int rows = static_cast<int>(state.range(0));
    const int cols = static_cast<int>(state.range(1));
    Rng rng(13);
    std::vector<int> w(static_cast<std::size_t>(rows) * cols);
    for (int &v : w)
        v = static_cast<int>(rng.uniformInt(-255, 255));
    CrossbarParams xp;
    xp.device.programVariation = 0.03;
    for (auto _ : state) {
        ComposedMatrixEngine engine(rows, cols, ComposingParams{}, xp);
        engine.programWeights(w, &rng);
        benchmark::DoNotOptimize(engine.arrays().quadPlane().data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(rows) * cols);
}
BENCHMARK(BM_ProgramWeights)->Args({256, 256});

/** Gaussian draws, the variation and read-noise draw shape. */
void
BM_RngGaussian(benchmark::State &state)
{
    Rng rng(14);
    double sum = 0.0;
    for (auto _ : state)
        benchmark::DoNotOptimize(sum += rng.gaussian(0.0, 0.03));
}
BENCHMARK(BM_RngGaussian);

} // namespace

/**
 * Custom main: unless the caller passes --benchmark_out explicitly, dump
 * machine-readable results to BENCH_micro_crossbar.json so every run
 * leaves a perf-trajectory data point for later comparison.
 */
int
main(int argc, char **argv)
{
    std::vector<char *> args(argv, argv + argc);
    bool has_out = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0)
            has_out = true;
    std::string out = "--benchmark_out=BENCH_micro_crossbar.json";
    std::string fmt = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out.data());
        args.push_back(fmt.data());
    }
    for (const reram::detail::SignedPlaneKernel &kernel :
         reram::detail::signedPlaneKernels())
        benchmark::RegisterBenchmark(
            (std::string("BM_SignedPlaneKernel/") + kernel.name).c_str(),
            BM_SignedPlaneKernel, kernel)
            ->Args({256, 512});
    int ac = static_cast<int>(args.size());
    benchmark::Initialize(&ac, args.data());
    if (benchmark::ReportUnrecognizedArguments(ac, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
