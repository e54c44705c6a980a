/**
 * @file
 * Table III topology parser and workload characterization tests.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "nn/topology.hh"

namespace prime::nn {
namespace {

TEST(ParseTopology, MlpShape)
{
    Topology t = parseTopology("MLP-S", "784-500-250-10", 1, 28, 28);
    // flatten, fc, sigmoid, fc, sigmoid, fc
    ASSERT_EQ(t.layers.size(), 6u);
    EXPECT_EQ(t.layers[0].kind, LayerKind::Flatten);
    EXPECT_EQ(t.layers[1].kind, LayerKind::FullyConnected);
    EXPECT_EQ(t.layers[1].inFeatures, 784);
    EXPECT_EQ(t.layers[1].outFeatures, 500);
    EXPECT_EQ(t.layers[2].kind, LayerKind::Sigmoid);
    EXPECT_EQ(t.layers[5].kind, LayerKind::FullyConnected);
    EXPECT_EQ(t.layers[5].outFeatures, 10);
    // No activation after the output layer.
    EXPECT_EQ(t.totalSynapses(),
              784ll * 500 + 500 + 500 * 250 + 250 + 250 * 10 + 10);
}

TEST(ParseTopology, Cnn1Shape)
{
    Topology t = parseTopology("CNN-1", "conv5x5-pool-720-70-10",
                               1, 28, 28);
    // conv, relu, pool, flatten, fc, sigmoid, fc
    ASSERT_EQ(t.layers.size(), 7u);
    const LayerSpec &conv = t.layers[0];
    EXPECT_EQ(conv.kind, LayerKind::Convolution);
    EXPECT_EQ(conv.kernel, 5);
    EXPECT_EQ(conv.outC, 5);
    EXPECT_EQ(conv.outH, 24);
    EXPECT_EQ(conv.padding, 0);
    const LayerSpec &pool = t.layers[2];
    EXPECT_EQ(pool.kind, LayerKind::MaxPool);
    EXPECT_EQ(pool.outH, 12);
    // 12*12*5 = 720 matches the Table III flat size.
    const LayerSpec &fc = t.layers[4];
    EXPECT_EQ(fc.inFeatures, 720);
    EXPECT_EQ(fc.outFeatures, 70);
}

TEST(ParseTopology, FlattenMismatchIsFatal)
{
    EXPECT_THROW(parseTopology("bad", "conv5x5-pool-999-10", 1, 28, 28),
                 std::runtime_error);
}

TEST(ParseTopology, RejectsUnknownToken)
{
    EXPECT_THROW(parseTopology("bad", "784-foo-10", 1, 28, 28),
                 std::runtime_error);
}

TEST(MlBench, SuiteMatchesTableIII)
{
    auto suite = mlBench();
    ASSERT_EQ(suite.size(), 6u);
    EXPECT_EQ(suite[0].name, "CNN-1");
    EXPECT_EQ(suite[1].name, "CNN-2");
    EXPECT_EQ(suite[2].name, "MLP-S");
    EXPECT_EQ(suite[3].name, "MLP-M");
    EXPECT_EQ(suite[4].name, "MLP-L");
    EXPECT_EQ(suite[5].name, "VGG-D");
}

TEST(MlBench, VggMatchesPaperTotals)
{
    Topology vgg = mlBenchByName("VGG-D");
    // Paper: 1.4e8 synapses, ~1.6e10 operations (MAC-counted).
    EXPECT_NEAR(static_cast<double>(vgg.totalSynapses()), 1.4e8, 0.05e8);
    EXPECT_NEAR(static_cast<double>(vgg.totalMacs()), 1.6e10, 0.15e10);
}

TEST(MlBench, VggLayerStructure)
{
    Topology vgg = mlBenchByName("VGG-D");
    int convs = 0, pools = 0, fcs = 0;
    for (const LayerSpec &l : vgg.layers) {
        if (l.kind == LayerKind::Convolution)
            ++convs;
        else if (l.kind == LayerKind::MaxPool)
            ++pools;
        else if (l.kind == LayerKind::FullyConnected)
            ++fcs;
    }
    EXPECT_EQ(convs, 13);  // VGG-16: 13 conv + 3 FC weight layers
    EXPECT_EQ(fcs, 3);
    EXPECT_EQ(pools, 5);
    // Final spatial size before the classifier: 7x7x512 = 25088.
    for (std::size_t i = 0; i < vgg.layers.size(); ++i) {
        if (vgg.layers[i].kind == LayerKind::Flatten) {
            EXPECT_EQ(vgg.layers[i].inC * vgg.layers[i].inH *
                          vgg.layers[i].inW,
                      25088);
        }
    }
}

TEST(MlBench, Cnn2Dimensions)
{
    Topology t = mlBenchByName("CNN-2");
    const LayerSpec &conv = t.layers[0];
    EXPECT_EQ(conv.kernel, 7);
    EXPECT_EQ(conv.outC, 10);
    EXPECT_EQ(conv.outH, 22);
    // 11*11*10 = 1210.
    EXPECT_EQ(t.layers[4].inFeatures, 1210);
}

TEST(LayerSpec, MacsAndCounts)
{
    Topology t = mlBenchByName("CNN-1");
    const LayerSpec &conv = t.layers[0];
    EXPECT_EQ(conv.macs(), 5ll * 24 * 24 * 1 * 5 * 5);
    EXPECT_EQ(conv.weightCount(), 5ll * 1 * 5 * 5 + 5);
    EXPECT_EQ(conv.inputCount(), 28ll * 28);
    EXPECT_EQ(conv.outputCount(), 5ll * 24 * 24);
}

TEST(BuildNetwork, LayersMatchSpecs)
{
    Rng rng(3);
    Topology t = mlBenchByName("MLP-S");
    Network net = buildNetwork(t, rng);
    ASSERT_EQ(net.layerCount(), t.layers.size());
    for (std::size_t i = 0; i < t.layers.size(); ++i)
        EXPECT_EQ(net.layer(i).kind(), t.layers[i].kind);
    // A forward pass produces 10 logits from a 28x28 image.
    Tensor out = net.forward(Tensor({1, 28, 28}));
    EXPECT_EQ(out.size(), 10u);
}

TEST(Topology, PeakActivation)
{
    Topology t = mlBenchByName("MLP-M");
    EXPECT_EQ(t.peakActivation(), 1000);
    Topology vgg = mlBenchByName("VGG-D");
    EXPECT_EQ(vgg.peakActivation(), 64ll * 224 * 224);
}

TEST(ForwardUnweighted, PoolingMatchesAt3Reference)
{
    // The run path's pooling indexes the flat (c, h, w) storage; the
    // reference walks every window through the checked at3 accessor.
    // Sides that are not multiples of k leave a ragged edge the pool
    // must skip.  The outputs must agree bit for bit.
    Rng rng(29);
    for (const LayerKind kind : {LayerKind::MaxPool, LayerKind::MeanPool})
        for (const int k : {2, 3}) {
            SCOPED_TRACE(::testing::Message()
                         << (kind == LayerKind::MaxPool ? "max" : "mean")
                         << " k=" << k);
            const int c = 3, h = 3 * k + 1, w = 2 * k + k - 1;
            LayerSpec spec;
            spec.kind = kind;
            spec.poolK = k;
            spec.inC = spec.outC = c;
            spec.inH = h;
            spec.inW = w;
            spec.outH = h / k;
            spec.outW = w / k;
            Tensor x({c, h, w});
            for (std::size_t i = 0; i < x.size(); ++i)
                x[i] = rng.uniform(-2.0, 2.0);

            Tensor want({c, spec.outH, spec.outW});
            for (int ch = 0; ch < c; ++ch)
                for (int oy = 0; oy < spec.outH; ++oy)
                    for (int ox = 0; ox < spec.outW; ++ox) {
                        double best = -1.0e300, sum = 0.0;
                        for (int dy = 0; dy < k; ++dy)
                            for (int dx = 0; dx < k; ++dx) {
                                const double v =
                                    x.at3(ch, oy * k + dy, ox * k + dx);
                                best = std::max(best, v);
                                sum += v;
                            }
                        want.at3(ch, oy, ox) = kind == LayerKind::MaxPool
                                                   ? best
                                                   : sum / (k * k);
                    }

            const Tensor got = forwardUnweighted(spec, x);
            ASSERT_EQ(got.shape(), want.shape());
            for (std::size_t i = 0; i < got.size(); ++i)
                EXPECT_EQ(got[i], want[i]) << i;
        }
}

} // namespace
} // namespace prime::nn
