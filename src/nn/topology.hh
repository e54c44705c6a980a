/**
 * @file
 * NN topology descriptions: the parser for the paper's Table III strings
 * ("conv5x5-pool-720-70-10", "784-500-250-10", ...), per-layer workload
 * characterization (MACs, weights, activation sizes) used by the mapper
 * and the platform evaluators, and the MlBench benchmark registry.
 */

#ifndef PRIME_NN_TOPOLOGY_HH
#define PRIME_NN_TOPOLOGY_HH

#include <string>
#include <vector>

#include "common/rng.hh"
#include "nn/layer.hh"
#include "nn/network.hh"

namespace prime::nn {

/** Workload-level description of one layer. */
struct LayerSpec
{
    LayerKind kind = LayerKind::FullyConnected;

    // Fully-connected dimensions.
    int inFeatures = 0;
    int outFeatures = 0;

    // Convolution dimensions (also carries pooling input dims).
    int inC = 0, inH = 0, inW = 0;
    int outC = 0, outH = 0, outW = 0;
    int kernel = 0;
    int padding = 0;

    // Pooling.
    int poolK = 2;

    /** Multiply-accumulate count of one inference through this layer. */
    long long macs() const;
    /** Trainable weight count including bias ("synapses"). */
    long long weightCount() const;
    /** Input activation element count. */
    long long inputCount() const;
    /** Output activation element count. */
    long long outputCount() const;
    /** Short description like "conv5x5 1x28x28->5x24x24". */
    std::string describe() const;
};

/**
 * Inference forward of an unweighted layer -- max/mean pooling,
 * sigmoid, ReLU, flatten -- shared by every inference path that runs
 * them on the digital side (QuantizedNetwork, PrimeSystem).  @p spec
 * must not be a weighted layer.
 */
Tensor forwardUnweighted(const LayerSpec &spec, Tensor x);

/** A named topology: ordered layer specs plus totals. */
struct Topology
{
    std::string name;
    std::string spec;
    std::vector<LayerSpec> layers;

    long long totalMacs() const;
    long long totalSynapses() const;
    /** Largest activation footprint between two layers (bytes at 1B/elem). */
    long long peakActivation() const;
};

/**
 * Parse a Table III topology string.
 *
 * Tokens separated by '-':
 *   convKxN   K x K convolution to N output maps (+ReLU); padding 1 for
 *             3x3 kernels (VGG style), 0 otherwise (LeNet style)
 *   pool      2x2 max pooling
 *   <int>     fully-connected layer to that many neurons (+sigmoid on
 *             hidden layers, none on the final layer)
 *
 * @param input_c/h/w the input image shape (1x28x28 for the MNIST nets,
 *        3x224x224 for VGG-D).
 */
Topology parseTopology(const std::string &name, const std::string &spec,
                       int input_c, int input_h, int input_w,
                       LayerKind hidden_activation = LayerKind::Sigmoid);

/** Build a trainable functional network realizing @p topology. */
Network buildNetwork(const Topology &topology, Rng &rng);

/** The paper's Table III benchmark suite. */
std::vector<Topology> mlBench();

/** Look up one MlBench entry by name (CNN-1, CNN-2, MLP-S/M/L, VGG-D). */
Topology mlBenchByName(const std::string &name);

} // namespace prime::nn

#endif // PRIME_NN_TOPOLOGY_HH
