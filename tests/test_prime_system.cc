/**
 * @file
 * End-to-end PrimeSystem tests: the Figure 7 API flow on trained
 * networks, split-merge fidelity, morphing/release, accounting, and the
 * per-mat RNG streams that keep noisy analog runs identical at any
 * thread count and on every executor.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hh"
#include "nn/dataset.hh"
#include "prime/prime_system.hh"

namespace prime::core {
namespace {

/** Shared trained MLP whose first layer splits across row tiles. */
struct TrainedSetup
{
    nn::Topology topology;
    nn::Network net;
    std::vector<nn::Sample> train;
    std::vector<nn::Sample> test;

    TrainedSetup()
        // 784 inputs -> first FC layer spans 4 row tiles (784 > 256).
        : topology(nn::parseTopology("mlp-784-64-10", "784-64-10",
                                     1, 28, 28))
    {
        nn::SyntheticMnistOptions o;
        o.seed = 21;
        nn::SyntheticMnist gen(o);
        train = gen.generate(600);
        test = gen.generate(200);
        Rng rng(33);
        net = nn::buildNetwork(topology, rng);
        nn::Trainer::Options opt;
        opt.epochs = 5;
        opt.learningRate = 0.3;
        nn::Trainer::train(net, train, opt);
    }
};

TrainedSetup &
setup()
{
    static TrainedSetup instance;
    return instance;
}

TEST(PrimeSystem, ApiOrderEnforced)
{
    PrimeSystem prime;
    nn::Tensor input({1, 28, 28});
    EXPECT_DEATH(prime.run(input), "programWeight");
    prime.mapTopology(setup().topology);
    EXPECT_DEATH(prime.run(input), "programWeight");
    prime.programWeight(setup().net);
    EXPECT_DEATH(prime.run(input), "configDatapath");
}

TEST(PrimeSystem, MappingReservesAndMorphs)
{
    PrimeSystem prime;
    const std::size_t before = prime.availableFfMemoryBytes();
    prime.mapTopology(setup().topology);
    prime.programWeight(setup().net);
    // Morphed mats no longer serve as memory...
    EXPECT_LT(prime.availableFfMemoryBytes(), before);
    // ...and their resident data was migrated (counted in stats).
    EXPECT_GT(prime.stats().get("morph.mats_to_compute").count(), 0u);
    // Release restores the full FF memory capacity.
    prime.release();
    EXPECT_EQ(prime.availableFfMemoryBytes(), before);
    EXPECT_EQ(prime.stats().get("morph.mats_to_memory").count(),
              prime.stats().get("morph.mats_to_compute").count());
}

TEST(PrimeSystem, ConfigCommandsCoverEveryTileMat)
{
    PrimeSystem prime;
    prime.mapTopology(setup().topology);
    prime.programWeight(setup().net);
    // 4 config commands per replica-0 tile mat (Table I left half).
    long long tiles = 0;
    for (const auto &m : prime.plan().layers)
        tiles += m.matsPerReplica();
    EXPECT_EQ(prime.configCommands().size(),
              static_cast<std::size_t>(4 * tiles));
    prime.configDatapath();
    EXPECT_GE(prime.controller().commandCount(),
              prime.configCommands().size());
}

TEST(PrimeSystem, EndToEndClassificationMatchesFloat)
{
    PrimeSystem prime;
    prime.mapTopology(setup().topology);
    prime.programWeight(setup().net);
    prime.configDatapath();
    prime.calibrate(std::vector<nn::Sample>(setup().train.begin(),
                                            setup().train.begin() + 50));

    const double float_acc =
        nn::Trainer::evaluate(setup().net, setup().test);
    std::size_t correct = 0, agree = 0;
    for (const nn::Sample &s : setup().test) {
        const int hw = static_cast<int>(prime.run(s.input).argmax());
        if (hw == s.label)
            ++correct;
        if (hw == setup().net.predict(s.input))
            ++agree;
    }
    const double hw_acc =
        static_cast<double>(correct) / setup().test.size();
    // 6-bit inputs / 8-bit composed weights keep classification close
    // to the float baseline (the Section III-D claim).
    EXPECT_GT(hw_acc, float_acc - 0.1);
    EXPECT_GT(static_cast<double>(agree) / setup().test.size(), 0.8);
}

TEST(PrimeSystem, PostProcIsSoftmax)
{
    PrimeSystem prime;
    nn::Tensor logits = nn::Tensor::vector1d({1.0, 2.0, 3.0});
    auto p = prime.postProc(logits);
    ASSERT_EQ(p.size(), 3u);
    double sum = 0.0;
    for (double v : p)
        sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_GT(p[2], p[1]);
}

TEST(PrimeSystem, SplitMergeMatchesWholeLayerMvm)
{
    // The 784-row layer spans 4 row tiles; the merged result must be
    // close to a direct quantized MVM over the whole layer.
    PrimeSystem prime;
    prime.mapTopology(setup().topology);
    prime.programWeight(setup().net);
    prime.configDatapath();
    prime.calibrate(std::vector<nn::Sample>(setup().train.begin(),
                                            setup().train.begin() + 50));

    const nn::Sample &s = setup().test.front();
    nn::Tensor hw_logits = prime.run(s.input);
    nn::Tensor float_logits = setup().net.forward(s.input);
    ASSERT_EQ(hw_logits.size(), float_logits.size());
    // Logits agree to quantization tolerance: each of the 4 row tiles
    // contributes up to ~2 codes of composing/rounding error at the
    // 6-bit SA window, on top of the 6-bit activation quantization.
    for (std::size_t i = 0; i < hw_logits.size(); ++i)
        EXPECT_NEAR(hw_logits[i], float_logits[i],
                    0.25 * std::max(1.0, std::fabs(float_logits[i])) +
                        1.0)
            << "logit " << i;
}

TEST(PrimeSystem, PerformanceAccountingAvailable)
{
    PrimeSystem prime;
    prime.mapTopology(setup().topology);
    auto perf = prime.estimatePerformance();
    EXPECT_GT(perf.latency, 0.0);
    EXPECT_GT(perf.energy.total(), 0.0);
    EXPECT_GT(prime.configurationTime(), 0.0);
    EXPECT_GT(prime.configurationEnergy(), 0.0);
}

TEST(PrimeSystem, RunStatsAccumulate)
{
    PrimeSystem prime;
    prime.mapTopology(setup().topology);
    prime.programWeight(setup().net);
    prime.configDatapath();
    prime.run(setup().test.front().input);
    EXPECT_EQ(prime.stats().get("run.inferences").count(), 1u);
    EXPECT_GT(prime.stats().get("run.tiled_mvms").count(), 0u);
    EXPECT_GT(prime.buffer().trafficBytes(), 0u);
}

TEST(PrimeSystem, CalibrationSamplesAreNotInferences)
{
    PrimeSystem prime;
    prime.mapTopology(setup().topology);
    prime.programWeight(setup().net);
    prime.configDatapath();
    prime.calibrate(std::vector<nn::Sample>(setup().train.begin(),
                                            setup().train.begin() + 8));
    EXPECT_EQ(prime.stats().get("run.calibrations").count(), 1u);
    EXPECT_EQ(prime.stats().get("run.inferences").count(), 0u);
    constexpr std::uint64_t n = 3;
    for (std::uint64_t i = 0; i < n; ++i)
        prime.run(setup().test.front().input);
    EXPECT_EQ(prime.stats().get("run.inferences").count(), n);
}

TEST(PrimeSystem, ProgramWeightRejectsMismatchedNetwork)
{
    // Multi-bank plans execute functionally now, but programWeight
    // still validates the trained network against the mapped topology
    // before touching any bank.
    PrimeSystem prime;
    prime.mapTopology(nn::mlBenchByName("VGG-D"));
    nn::Network dummy;  // empty: layer count cannot match VGG-D
    EXPECT_THROW(prime.programWeight(dummy), std::runtime_error);
    EXPECT_EQ(prime.stats().get("morph.mats_to_compute").count(), 0u);
}

TEST(PrimeSystem, ProgramWeightRejectsNonFiniteParameters)
{
    // A NaN or infinite weight or bias has no fixed-point code:
    // programWeight names the layer and programs nothing.
    const nn::Topology topo = nn::mlBenchByName("MLP-S");
    std::vector<std::size_t> weighted;
    {
        Rng rng(3);
        const nn::Network net = nn::buildNetwork(topo, rng);
        for (std::size_t i = 0; i < net.layerCount(); ++i)
            if (net.layer(i).weights())
                weighted.push_back(i);
    }
    ASSERT_GE(weighted.size(), 2u);
    const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
    for (const double value : bad)
        for (const bool in_bias : {false, true}) {
            Rng rng(3);
            nn::Network net = nn::buildNetwork(topo, rng);
            const std::size_t index = weighted[in_bias ? 1 : 0];
            nn::Layer &layer = net.layer(index);
            std::vector<double> &params =
                in_bias ? *layer.bias() : *layer.weights();
            params[params.size() / 2] = value;
            PrimeSystem prime;
            prime.mapTopology(topo);
            std::string message;
            try {
                prime.programWeight(net);
            } catch (const std::runtime_error &e) {
                message = e.what();
            }
            EXPECT_NE(message.find("layer " + std::to_string(index) +
                                   " has a non-finite weight or bias"),
                      std::string::npos)
                << "'" << message << "'";
            EXPECT_EQ(prime.stats().get("morph.mats_to_compute").count(),
                      0u);
        }
}

TEST(PrimeSystem, CnnEndToEnd)
{
    // A small CNN exercises the conv lowering path on hardware.
    nn::Topology topo =
        nn::parseTopology("cnn-tiny", "conv5x5-pool-720-10", 1, 28, 28);
    nn::SyntheticMnistOptions o;
    o.seed = 55;
    nn::SyntheticMnist gen(o);
    auto train = gen.generate(300);
    auto test = gen.generate(60);
    Rng rng(5);
    nn::Network net = nn::buildNetwork(topo, rng);
    nn::Trainer::Options opt;
    opt.epochs = 4;
    opt.learningRate = 0.1;
    nn::Trainer::train(net, train, opt);
    const double float_acc = nn::Trainer::evaluate(net, test);

    PrimeSystem prime;
    prime.mapTopology(topo);
    prime.programWeight(net);
    prime.configDatapath();
    prime.calibrate(std::vector<nn::Sample>(train.begin(),
                                            train.begin() + 20));
    std::size_t correct = 0;
    for (const nn::Sample &s : test)
        if (static_cast<int>(prime.run(s.input).argmax()) == s.label)
            ++correct;
    EXPECT_GT(static_cast<double>(correct) / test.size(),
              float_acc - 0.15);
}

/** Analog devices with programming variation. */
nvmodel::TechParams
variationParams(nvmodel::TechParams tech = nvmodel::defaultTechParams())
{
    tech.device.programVariation = 0.03;
    return tech;
}

/** One FF mat per bank: the 4-layer MLP below maps across 4 banks and
 *  pipelines in 4 bank-disjoint stages. */
nvmodel::TechParams
tinyBankParams()
{
    nvmodel::TechParams tech = nvmodel::defaultTechParams();
    tech.geometry.ffSubarraysPerBank = 1;
    tech.geometry.matsPerSubarray = 1;
    return tech;
}

/** Exact (bitwise) equality of two output sets. */
void
expectSameBits(const std::vector<nn::Tensor> &got,
               const std::vector<nn::Tensor> &want, const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].size(), want[i].size()) << what;
        for (std::size_t k = 0; k < got[i].size(); ++k)
            EXPECT_EQ(got[i][k], want[i][k])
                << what << " sample=" << i << " element=" << k;
    }
}

/**
 * A fresh system programmed with variation seed @p variation_seed,
 * computing on the analog path with noise seed @p noise_seed:
 * the outputs of @p inputs through pipelined runBatch, or through
 * per-sample run() when @p batched is false.
 */
std::vector<nn::Tensor>
analogOutputs(const nvmodel::TechParams &tech, const nn::Topology &topology,
             const nn::Network &net, const std::vector<nn::Tensor> &inputs,
             bool batched, std::uint64_t noise_seed = 202,
             std::uint64_t variation_seed = 101)
{
    PrimeSystem prime(tech);
    prime.mapTopology(topology);
    Rng variation(variation_seed);
    prime.programWeight(net, &variation);
    prime.configDatapath();
    Rng noise(noise_seed);
    prime.setAnalogCompute(true, &noise);
    if (batched)
        return prime.runBatch(std::span<const nn::Tensor>(inputs));
    std::vector<nn::Tensor> out;
    for (const nn::Tensor &in : inputs)
        out.push_back(prime.run(in));
    return out;
}

TEST(PrimeSystem, NoisyAnalogBitIdenticalAcrossThreadsAndPipeline)
{
    // Single bank, 5 mats fired together per layer (4 row tiles of the
    // 784-input layer): the mats programmed from their own variation
    // streams compute on the pool.
    std::vector<nn::Tensor> inputs;
    for (std::size_t i = 0; i < 12; ++i)
        inputs.push_back(setup().test[i].input);
    ThreadPool::setGlobalThreadCount(1);
    const std::vector<nn::Tensor> reference = analogOutputs(
        variationParams(), setup().topology, setup().net, inputs, false);
    for (int threads : {1, 4, 8}) {
        ThreadPool::setGlobalThreadCount(threads);
        expectSameBits(analogOutputs(variationParams(), setup().topology,
                                    setup().net, inputs, true),
                       reference,
                       "single bank, threads=" + std::to_string(threads));
    }
    // The variation is really drawn: another variation seed moves the
    // outputs.
    ThreadPool::setGlobalThreadCount(1);
    const std::vector<nn::Tensor> reseeded =
        analogOutputs(variationParams(), setup().topology, setup().net, inputs,
                     false, 202, 102);
    bool moved = false;
    for (std::size_t i = 0; i < inputs.size(); ++i)
        for (std::size_t k = 0; k < reseeded[i].size(); ++k)
            moved = moved || reseeded[i][k] != reference[i][k];
    EXPECT_TRUE(moved);

    // Four banks, four pipeline stages: pipelined runBatch equals the
    // per-sample run() reference at every pool size.
    const nn::Topology mlp =
        nn::parseTopology("mlp-4stage", "64-256-256-256-10", 1, 8, 8);
    Rng net_rng(7);
    const nn::Network net = nn::buildNetwork(mlp, net_rng);
    Rng input_rng(11);
    std::vector<nn::Tensor> small;
    for (int i = 0; i < 16; ++i) {
        nn::Tensor t({1, 8, 8});
        for (std::size_t k = 0; k < t.size(); ++k)
            t[k] = input_rng.uniform(0.0, 1.0);
        small.push_back(std::move(t));
    }
    const nvmodel::TechParams tiny = variationParams(tinyBankParams());
    const std::vector<nn::Tensor> sequential =
        analogOutputs(tiny, mlp, net, small, false);
    for (int threads : {1, 4, 8}) {
        ThreadPool::setGlobalThreadCount(threads);
        expectSameBits(analogOutputs(tiny, mlp, net, small, true),
                       sequential,
                       "pipelined, threads=" + std::to_string(threads));
    }
    ThreadPool::setGlobalThreadCount(0);
}

TEST(PrimeSystem, ProgrammedConductancesIdenticalAcrossThreads)
{
    // Every mat programs from its own variation stream, so the
    // parallel programming pass writes the same cells at any pool size.
    auto conductances = [](int threads) {
        ThreadPool::setGlobalThreadCount(threads);
        PrimeSystem prime(variationParams());
        prime.mapTopology(setup().topology);
        Rng rng(77);
        prime.programWeight(setup().net, &rng);
        std::vector<double> g;
        for (const mapping::LayerMapping &m : prime.plan().layers)
            for (const mapping::MatTile &t : m.tiles) {
                if (t.replica != 0)
                    continue;
                const reram::DifferentialPair &pair =
                    prime.controller(t.bank)
                        .mat(t.subarray * nvmodel::defaultTechParams()
                                              .geometry.matsPerSubarray +
                             t.mat)
                        .engine()
                        .arrays();
                for (const reram::Crossbar *x :
                     {&pair.positive(), &pair.negative()})
                    for (int r = 0; r < x->params().rows; ++r)
                        for (int c = 0; c < x->params().cols; ++c)
                            g.push_back(x->conductance(r, c));
            }
        ThreadPool::setGlobalThreadCount(0);
        return g;
    };
    const std::vector<double> one = conductances(1);
    const std::vector<double> eight = conductances(8);
    ASSERT_FALSE(one.empty());
    ASSERT_EQ(one.size(), eight.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < one.size(); ++i)
        differing += one[i] == eight[i] ? 0 : 1;
    EXPECT_EQ(differing, 0u);
}

/** FNV-1a's offset basis: the hash of no bytes. */
constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

/** FNV-1a over @p bytes, continuing from @p h. */
std::uint64_t
fnv1a(std::span<const std::byte> bytes, std::uint64_t h = kFnvBasis)
{
    for (const std::byte b : bytes)
        h = (h ^ std::to_integer<std::uint64_t>(b)) * 1099511628211ull;
    return h;
}

/** The run-time counters of a system, read between run() calls. */
struct RunCounters
{
    std::uint64_t commands = 0;
    double fetchBytes = 0, commitBytes = 0, loadBytes = 0, storeBytes = 0;
    double bufferRead = 0, bufferWrite = 0;
    std::uint64_t tiledMvms = 0, matMvms = 0;
    /** run.tiled_mvms per stage (stage N counts into child "stageN");
     *  tiledMvms is their sum. */
    std::vector<std::uint64_t> stageTiledMvms;
    std::uint64_t bursts = 0, rowHits = 0, rowMisses = 0;
    double progressNs = 0;

    /** Summed over every bank (bank N reports into child "bankN"). */
    explicit RunCounters(PrimeSystem &prime)
    {
        for (int b = 0; b < prime.bankCount(); ++b) {
            StatGroup &s = b == 0 ? prime.stats()
                                  : prime.stats().child(
                                        "bank" + std::to_string(b));
            commands += s.get("controller.commands").count();
            fetchBytes += s.get("controller.fetch_bytes").sum();
            commitBytes += s.get("controller.commit_bytes").sum();
            loadBytes += s.get("controller.load_bytes").sum();
            storeBytes += s.get("controller.store_bytes").sum();
            bufferRead += s.get("buffer.read_bytes").sum();
            bufferWrite += s.get("buffer.write_bytes").sum();
            matMvms += s.get("controller.mat_mvms").count();
        }
        for (std::size_t s = 0; s < prime.stages().size(); ++s) {
            StatGroup &g = s == 0 ? prime.stats()
                                  : prime.stats().child(
                                        "stage" + std::to_string(s));
            stageTiledMvms.push_back(g.get("run.tiled_mvms").count());
            tiledMvms += stageTiledMvms.back();
        }
        StatGroup &m = prime.mainMemory().stats();
        bursts = m.get("mem.reads").count() + m.get("mem.writes").count();
        rowHits = m.get("mem.row_hits").count();
        rowMisses = m.get("mem.row_misses").count();
        progressNs = prime.mainMemory().primeProgressNs();
    }
};

/** Per-image counters of a run, totals over its images, and hashes of
 *  its outputs and of the state its last image leaves behind. */
struct PinnedRun
{
    std::uint64_t commands;
    double fetchBytes, commitBytes, loadBytes, storeBytes;
    double bufferRead, bufferWrite;
    std::uint64_t tiledMvms, matMvms, bursts;
    /** Totals over all images (the row buffers carry state across
     *  images). */
    std::uint64_t rowHits, rowMisses;
    double progressNs;
    std::uint64_t outputHash, stagingHash, bufferHash;
};

/** run() of @p inputs on a programmed, configured system: what
 *  PinnedRun records. */
PinnedRun
pinnedRun(PrimeSystem &prime, const std::vector<nn::Tensor> &inputs)
{
    const RunCounters before(prime);
    std::uint64_t outputs = kFnvBasis;
    for (const nn::Tensor &in : inputs) {
        const nn::Tensor y = prime.run(in);
        outputs = fnv1a(std::as_bytes(std::span(y.flat())), outputs);
    }
    const RunCounters after(prime);
    // Read the final state (Buffer reads are accounted, so after the
    // counters).
    const PrimeSystem::ExecContext &ctx = prime.stageContext(0);
    std::vector<std::uint8_t> window(8192);
    prime.mainMemory().readData(ctx.inputStageAddr, window);
    std::uint64_t staging = fnv1a(std::as_bytes(std::span(window)));
    prime.mainMemory().readData(ctx.outputStageAddr, window);
    staging = fnv1a(std::as_bytes(std::span(window)), staging);
    const std::uint64_t n = inputs.size();
    return PinnedRun{
        (after.commands - before.commands) / n,
        (after.fetchBytes - before.fetchBytes) / n,
        (after.commitBytes - before.commitBytes) / n,
        (after.loadBytes - before.loadBytes) / n,
        (after.storeBytes - before.storeBytes) / n,
        (after.bufferRead - before.bufferRead) / n,
        (after.bufferWrite - before.bufferWrite) / n,
        (after.tiledMvms - before.tiledMvms) / n,
        (after.matMvms - before.matMvms) / n,
        (after.bursts - before.bursts) / n,
        after.rowHits - before.rowHits,
        after.rowMisses - before.rowMisses,
        after.progressNs - before.progressNs,
        outputs,
        staging,
        fnv1a(std::as_bytes(
            prime.buffer(0).read(0, prime.buffer(0).capacity()))),
    };
}

void
expectPinned(const PinnedRun &got, const PinnedRun &want,
             const std::string &where)
{
    EXPECT_EQ(got.commands, want.commands) << where;
    EXPECT_EQ(got.fetchBytes, want.fetchBytes) << where;
    EXPECT_EQ(got.commitBytes, want.commitBytes) << where;
    EXPECT_EQ(got.loadBytes, want.loadBytes) << where;
    EXPECT_EQ(got.storeBytes, want.storeBytes) << where;
    EXPECT_EQ(got.bufferRead, want.bufferRead) << where;
    EXPECT_EQ(got.bufferWrite, want.bufferWrite) << where;
    EXPECT_EQ(got.tiledMvms, want.tiledMvms) << where;
    EXPECT_EQ(got.matMvms, want.matMvms) << where;
    EXPECT_EQ(got.bursts, want.bursts) << where;
    EXPECT_EQ(got.rowHits, want.rowHits) << where;
    EXPECT_EQ(got.rowMisses, want.rowMisses) << where;
    EXPECT_EQ(got.progressNs, want.progressNs) << where;
    EXPECT_EQ(got.outputHash, want.outputHash) << where;
    EXPECT_EQ(got.stagingHash, want.stagingHash) << where;
    EXPECT_EQ(got.bufferHash, want.bufferHash) << where;
}

/**
 * run() of CNN-1 and MLP-S on three seeded images, after a calibration:
 * every Table I command and byte is accounted once per conv window and
 * layer, every window's Fetch/Commit reaches the timing pass, and the
 * outputs, the staging windows and bank 0's Buffer end in the same
 * bytes -- the values of the one-window-at-a-time data flow.  The
 * modeled clock's total is exact (the timing pass is deterministic).
 */
TEST(PrimeSystem, RunCountersPinned)
{
    const std::pair<const char *, PinnedRun> pins[] = {
        {"CNN-1",
         {2316, 15190, 296960, 15190, 6200, 318350, 21390, 578, 580, 5230,
          6981, 8709, 952736.50994430692, 0xd601bc52f0afa1a4ull,
          0x3b4c1384cc79eeedull,
          0x1ed1fabcdc1d6eedull}},
        {"MLP-S",
         {28, 1534, 5632, 2318, 5020, 12970, 6554, 3, 11, 113, 168, 171,
          18285.229268294759, 0x068d512e8dfed67aull, 0x658430e8bf0646e2ull,
          0x44945ef5c5e546e2ull}},
    };
    for (const auto &[name, want] : pins) {
        const nn::Topology topo = nn::mlBenchByName(name);
        Rng rng(5);
        const nn::Network net = nn::buildNetwork(topo, rng);
        nn::SyntheticMnistOptions o;
        o.seed = 3;
        nn::SyntheticMnist gen(o);
        const std::vector<nn::Sample> samples = gen.generate(7);
        PrimeSystem prime;
        prime.mapTopology(topo);
        prime.programWeight(net);
        prime.configDatapath();
        prime.calibrate(
            std::vector<nn::Sample>(samples.begin() + 3, samples.end()));
        std::vector<nn::Tensor> inputs;
        for (std::size_t i = 0; i < 3; ++i)
            inputs.push_back(samples[i].input);
        expectPinned(pinnedRun(prime, inputs), want, name);
    }
}

/**
 * The conv data flow where a layer spans several row and column tiles
 * and several banks: 32 x 16 mats, eight per bank, under a padded 3x3
 * conv of 20 maps over 4 channels (36 rows: two row tiles, two column
 * tiles) and a 5x5 conv over its 20 maps (500 rows: sixteen row
 * tiles).  The plan runs as three pipeline stages.
 */
struct ConvTilesSetup
{
    nvmodel::TechParams tech = nvmodel::defaultTechParams();
    nn::Topology topo = nn::parseTopology(
        "conv-tiles", "conv3x20-conv5x3-pool-12-10", 4, 8, 8);
    nn::Network net;
    std::vector<nn::Tensor> inputs;
    std::vector<nn::Sample> calibration;

    ConvTilesSetup()
    {
        tech.geometry.matRows = 32;
        tech.geometry.matCols = 16;
        tech.geometry.ffSubarraysPerBank = 1;
        tech.geometry.matsPerSubarray = 8;
        Rng rng(9);
        net = nn::buildNetwork(topo, rng);
        for (int i = 0; i < 6; ++i) {
            nn::Tensor t({4, 8, 8});
            for (std::size_t k = 0; k < t.size(); ++k)
                t[k] = rng.uniform(-0.2, 1.0);
            if (i < 3)
                inputs.push_back(t);
            else
                calibration.push_back({t, 0});
        }
    }

    /** Map, program, configure and calibrate @p prime. */
    void
    program(PrimeSystem &prime) const
    {
        prime.mapTopology(topo);
        prime.programWeight(net);
        prime.configDatapath();
        prime.calibrate(calibration);
    }
};

/**
 * The conv-tiles plan: outputs, counters and final state are the values
 * of the one-window-at-a-time data flow, after a calibration, and a
 * pipelined runBatch gives run()'s outputs.  run() stages stage s's
 * traffic through stage s's windows, so the staging hash reads stage
 * 0's windows after its own last layer.
 */
TEST(PrimeSystem, RowTiledMultiBankConvPinned)
{
    const PinnedRun want = {
        1220, 18316, 16416, 12620, 6676, 35712, 24992, 81, 513, 578, 48,
        1686, 91250.921200753219, 0x4ce364bc36cb8fceull,
        0x3a618479591be6d9ull, 0x512d0f90873e96d9ull};
    const ConvTilesSetup conv;
    PrimeSystem prime(conv.tech);
    conv.program(prime);
    ASSERT_EQ(prime.stages().size(), 3u);
    const PinnedRun got = pinnedRun(prime, conv.inputs);
    expectPinned(got, want, "conv-tiles");
    const std::vector<nn::Tensor> batched =
        prime.runBatch(std::span<const nn::Tensor>(conv.inputs));
    std::uint64_t batch_hash = kFnvBasis;
    for (const nn::Tensor &y : batched)
        batch_hash = fnv1a(std::as_bytes(std::span(y.flat())), batch_hash);
    EXPECT_EQ(batch_hash, want.outputHash);
}

/** Equal run-time counters, stage by stage. */
void
expectSameCounters(const RunCounters &got, const RunCounters &want,
                   const std::string &where)
{
    EXPECT_EQ(got.commands, want.commands) << where;
    EXPECT_EQ(got.fetchBytes, want.fetchBytes) << where;
    EXPECT_EQ(got.commitBytes, want.commitBytes) << where;
    EXPECT_EQ(got.loadBytes, want.loadBytes) << where;
    EXPECT_EQ(got.storeBytes, want.storeBytes) << where;
    EXPECT_EQ(got.bufferRead, want.bufferRead) << where;
    EXPECT_EQ(got.bufferWrite, want.bufferWrite) << where;
    EXPECT_EQ(got.stageTiledMvms, want.stageTiledMvms) << where;
    EXPECT_EQ(got.matMvms, want.matMvms) << where;
    EXPECT_EQ(got.bursts, want.bursts) << where;
    EXPECT_EQ(got.rowHits, want.rowHits) << where;
    EXPECT_EQ(got.rowMisses, want.rowMisses) << where;
    EXPECT_EQ(got.progressNs, want.progressNs) << where;
}

/**
 * run() is the one-image case of runBatch: on two freshly programmed,
 * identical systems, run(x) per image and a runBatch of each image
 * alone give the same outputs and leave the same commands, bytes,
 * bursts, row hits and misses, modeled progress and per-stage tiled
 * MVMs after every image -- on the 3-stage conv-tiles plan and on the
 * 4-stage 64-256-256-256-256 MLP (one mat per bank).
 */
TEST(PrimeSystem, RunTimesAsOneImageBatch)
{
    const ConvTilesSetup conv;
    PrimeSystem conv_run(conv.tech), conv_batch(conv.tech);
    conv.program(conv_run);
    conv.program(conv_batch);

    nvmodel::TechParams mlp_tech = nvmodel::defaultTechParams();
    mlp_tech.geometry.ffSubarraysPerBank = 1;
    mlp_tech.geometry.matsPerSubarray = 1;
    const nn::Topology mlp = nn::parseTopology(
        "mlp-pipeline", "64-256-256-256-256", 1, 8, 8);
    Rng rng(7);
    const nn::Network mlp_net = nn::buildNetwork(mlp, rng);
    std::vector<nn::Tensor> mlp_inputs;
    for (int i = 0; i < 3; ++i) {
        nn::Tensor t({1, 8, 8});
        for (std::size_t k = 0; k < t.size(); ++k)
            t[k] = rng.uniform(0.0, 1.0);
        mlp_inputs.push_back(std::move(t));
    }
    PrimeSystem mlp_run(mlp_tech), mlp_batch(mlp_tech);
    for (PrimeSystem *prime : {&mlp_run, &mlp_batch}) {
        prime->mapTopology(mlp);
        prime->programWeight(mlp_net);
        prime->configDatapath();
    }

    struct Case
    {
        const char *name;
        PrimeSystem &run;
        PrimeSystem &batch;
        const std::vector<nn::Tensor> &inputs;
        std::size_t stages;
    };
    for (const Case &c :
         {Case{"conv-tiles", conv_run, conv_batch, conv.inputs, 3},
          Case{"mlp-4stage", mlp_run, mlp_batch, mlp_inputs, 4}}) {
        ASSERT_EQ(c.run.stages().size(), c.stages) << c.name;
        for (std::size_t i = 0; i < c.inputs.size(); ++i) {
            const std::string where =
                std::string(c.name) + " image " + std::to_string(i);
            const nn::Tensor y = c.run.run(c.inputs[i]);
            const std::vector<nn::Tensor> yb = c.batch.runBatch(
                std::span<const nn::Tensor>(&c.inputs[i], 1));
            ASSERT_EQ(yb.size(), 1u) << where;
            ASSERT_EQ(y.size(), yb[0].size()) << where;
            for (std::size_t k = 0; k < y.size(); ++k)
                EXPECT_EQ(y[k], yb[0][k]) << where << " element " << k;
            expectSameCounters(RunCounters(c.batch), RunCounters(c.run),
                               where);
        }
    }
}

/**
 * MLP-S programmed with variation from a fixed seed: a hash of every
 * mat's positive and negative conductances and of 8 noisy analog
 * outputs, pinned, at 1 and 4 pool threads.  Each cell's draw is a
 * function of its mat's stream and its place in the cell order (row,
 * physical column, positive array then negative), so reprogramming
 * faster must leave both hashes as they are.
 */
TEST(PrimeSystem, VariationProgrammingPinned)
{
    constexpr std::uint64_t kConductanceHash = 0x093c0d4b0f97d50dull;
    constexpr std::uint64_t kOutputHash = 0x941c94fd965dcb68ull;
    const nn::Topology topo = nn::mlBenchByName("MLP-S");
    Rng net_rng(5);
    const nn::Network net = nn::buildNetwork(topo, net_rng);
    nn::SyntheticMnistOptions o;
    o.seed = 4;
    const std::vector<nn::Sample> samples =
        nn::SyntheticMnist(o).generate(8);
    const nvmodel::TechParams tech = variationParams();
    for (const int threads : {1, 4}) {
        ThreadPool::setGlobalThreadCount(threads);
        PrimeSystem prime(tech);
        prime.mapTopology(topo);
        Rng variation(2024);
        prime.programWeight(net, &variation);
        std::uint64_t conductances = kFnvBasis;
        std::size_t mats = 0;
        for (const mapping::LayerMapping &m : prime.plan().layers)
            for (const mapping::MatTile &t : m.tiles) {
                if (t.replica != 0)
                    continue;
                const reram::DifferentialPair &pair =
                    prime.controller(t.bank)
                        .mat(t.subarray * tech.geometry.matsPerSubarray +
                             t.mat)
                        .engine()
                        .arrays();
                for (const reram::Crossbar *x :
                     {&pair.positive(), &pair.negative()})
                    for (int r = 0; r < x->params().rows; ++r)
                        for (int c = 0; c < x->params().cols; ++c) {
                            const double g = x->conductance(r, c);
                            conductances = fnv1a(
                                std::as_bytes(std::span(&g, 1)),
                                conductances);
                        }
                ++mats;
            }
        prime.configDatapath();
        Rng noise(77);
        prime.setAnalogCompute(true, &noise);
        std::uint64_t outputs = kFnvBasis;
        for (const nn::Sample &sample : samples) {
            const nn::Tensor y = prime.run(sample.input);
            outputs = fnv1a(std::as_bytes(std::span(y.flat())), outputs);
        }
        const std::string where = "threads=" + std::to_string(threads);
        EXPECT_EQ(mats, 11u) << where;
        EXPECT_EQ(conductances, kConductanceHash) << where;
        EXPECT_EQ(outputs, kOutputHash) << where;
    }
    ThreadPool::setGlobalThreadCount(0);
}

} // namespace
} // namespace prime::core
