#include "nn/snn.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "nn/layers.hh"

namespace prime::nn {

SpikingNetwork::SpikingNetwork(const Topology &topology,
                               const Network &trained,
                               const std::vector<Sample> &calibration,
                               const LifParams &params)
    : params_(params)
{
    PRIME_ASSERT(topology.layers.size() == trained.layerCount(),
                 "topology/network mismatch");
    PRIME_ASSERT(!calibration.empty(), "calibration data required");

    // Collect the FC layers; conv/pool are out of scope for the SNN
    // extension (rate-coded cores are MLP-style).
    std::vector<std::size_t> fc_indices;
    for (std::size_t i = 0; i < topology.layers.size(); ++i) {
        const LayerKind kind = topology.layers[i].kind;
        PRIME_FATAL_IF(kind == LayerKind::Convolution ||
                           kind == LayerKind::MaxPool ||
                           kind == LayerKind::MeanPool,
                       "SpikingNetwork supports fully-connected "
                       "topologies only");
        if (kind == LayerKind::FullyConnected)
            fc_indices.push_back(i);
    }
    PRIME_ASSERT(!fc_indices.empty(), "no weighted layers");

    // Data-based threshold balancing (Diehl-style): record the maximum
    // positive activation each FC layer produces on the calibration
    // set, then rescale weights so unit spike rates stay meaningful.
    std::vector<double> max_act(fc_indices.size(), 1e-9);
    Network &net = const_cast<Network &>(trained);  // forward only
    for (const Sample &s : calibration) {
        Tensor x = s.input;
        std::size_t fc = 0;
        for (std::size_t i = 0; i < trained.layerCount(); ++i) {
            x = net.layer(i).forward(x);
            if (topology.layers[i].kind == LayerKind::FullyConnected) {
                for (std::size_t j = 0; j < x.size(); ++j)
                    max_act[fc] = std::max(max_act[fc], x[j]);
                ++fc;
            }
        }
    }

    double prev_scale = 1.0;  // inputs are already in [0, 1]
    for (std::size_t f = 0; f < fc_indices.size(); ++f) {
        const Layer &layer = trained.layer(fc_indices[f]);
        const auto *w = layer.weights();
        const auto *b = layer.bias();
        PRIME_ASSERT(w && b, "FC layer without parameters");
        const nn::LayerSpec &spec =
            topology.layers[fc_indices[f]];

        SpikingLayer sl;
        sl.inFeatures = spec.inFeatures;
        sl.outFeatures = spec.outFeatures;
        sl.weights.resize(w->size());
        sl.bias.resize(b->size());
        const double lam = max_act[f];
        for (std::size_t i = 0; i < w->size(); ++i)
            sl.weights[i] = (*w)[i] * prev_scale / lam;
        for (std::size_t i = 0; i < b->size(); ++i)
            sl.bias[i] = (*b)[i] / lam;
        prev_scale = lam;  // next layer sees normalized units
        layers_.push_back(std::move(sl));
    }
}

std::vector<int>
SpikingNetwork::simulate(const Tensor &input, int timesteps,
                         Rng &rng) const
{
    PRIME_ASSERT(timesteps > 0, "timesteps=", timesteps);
    PRIME_ASSERT(input.size() ==
                     static_cast<std::size_t>(layers_.front().inFeatures),
                 "input size ", input.size());

    // Membrane potentials per layer.
    std::vector<std::vector<double>> v;
    for (const SpikingLayer &l : layers_)
        v.emplace_back(static_cast<std::size_t>(l.outFeatures), 0.0);

    std::vector<int> out_spikes(
        static_cast<std::size_t>(layers_.back().outFeatures), 0);

    std::vector<std::uint8_t> spikes;
    std::vector<std::uint8_t> next;
    for (int t = 0; t < timesteps; ++t) {
        // Rate-coded input: Bernoulli with probability = pixel value
        // (spikes holds the last layer's output after each step).
        spikes.resize(input.size());
        for (std::size_t i = 0; i < input.size(); ++i)
            spikes[i] =
                rng.bernoulli(std::clamp(input[i], 0.0, 1.0)) ? 1 : 0;

        for (std::size_t lidx = 0; lidx < layers_.size(); ++lidx) {
            const SpikingLayer &l = layers_[lidx];
            next.assign(static_cast<std::size_t>(l.outFeatures), 0);
            for (int o = 0; o < l.outFeatures; ++o) {
                // Binary-input crossbar pass: accumulate the columns of
                // the spiking rows plus the (per-timestep) bias.
                double current = l.bias[static_cast<std::size_t>(o)];
                const double *row =
                    &l.weights[static_cast<std::size_t>(o) *
                               l.inFeatures];
                for (int i = 0; i < l.inFeatures; ++i)
                    if (spikes[static_cast<std::size_t>(i)])
                        current += row[i];
                double &pot = v[lidx][static_cast<std::size_t>(o)];
                pot = pot * params_.leak + current;
                if (pot >= params_.threshold) {
                    next[static_cast<std::size_t>(o)] = 1;
                    pot = params_.resetBySubtraction
                              ? pot - params_.threshold
                              : 0.0;
                }
            }
            spikes = next;
        }
        for (std::size_t o = 0; o < spikes.size(); ++o)
            out_spikes[o] += spikes[o];
    }
    return out_spikes;
}

int
SpikingNetwork::predict(const Tensor &input, int timesteps, Rng &rng) const
{
    std::vector<int> counts = simulate(input, timesteps, rng);
    return static_cast<int>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
}

double
SpikingNetwork::accuracy(const std::vector<Sample> &samples, int timesteps,
                         Rng &rng) const
{
    PRIME_ASSERT(!samples.empty(), "empty sample set");
    std::size_t correct = 0;
    for (const Sample &s : samples) {
        Tensor flat = s.input.reshaped(
            {static_cast<int>(s.input.size())});
        if (predict(flat, timesteps, rng) == s.label)
            ++correct;
    }
    return static_cast<double>(correct) / samples.size();
}

Ns
SpikingNetwork::modeledLatency(const nvmodel::LatencyModel &lat,
                               int timesteps) const
{
    // Binary spikes need one input phase instead of two: half the MVM
    // passes of the rate-based datapath, per layer, per timestep.
    const Ns per_layer = lat.matMvm(false) / 2.0;
    return static_cast<double>(timesteps) * layers_.size() * per_layer;
}

PicoJoule
SpikingNetwork::modeledEnergy(const nvmodel::EnergyModel &energy,
                              int timesteps) const
{
    const PicoJoule per_layer = energy.matMvm(false) / 2.0;
    return static_cast<double>(timesteps) * layers_.size() * per_layer;
}

} // namespace prime::nn
