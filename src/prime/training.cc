#include "prime/training.hh"

#include <algorithm>
#include <cmath>

#include "common/fixed_point.hh"
#include "common/logging.hh"
#include "nn/network.hh"

namespace prime::core {

InSituTrainer::InSituTrainer(const nn::Topology &topology,
                             const nvmodel::TechParams &tech,
                             const InSituOptions &options, Rng &rng)
    : tech_(tech), options_(options), rng_(&rng)
{
    PRIME_ASSERT(options.reprogramBatch >= 1, "reprogramBatch");
    const std::vector<nn::LayerSpec> &specs = topology.layers;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const nn::LayerSpec &s = specs[i];
        PRIME_FATAL_IF(s.kind == nn::LayerKind::Convolution ||
                           s.kind == nn::LayerKind::MaxPool ||
                           s.kind == nn::LayerKind::MeanPool,
                       "in-situ training supports FC topologies only");
        if (s.kind != nn::LayerKind::FullyConnected)
            continue;

        TrainLayer layer;
        layer.spec = s;
        layer.shadowW.resize(static_cast<std::size_t>(s.inFeatures) *
                             s.outFeatures);
        layer.shadowB.assign(static_cast<std::size_t>(s.outFeatures),
                             0.0);
        layer.gradW.assign(layer.shadowW.size(), 0.0);
        layer.gradB.assign(layer.shadowB.size(), 0.0);
        const double scale =
            std::sqrt(2.0 / (s.inFeatures + s.outFeatures));
        for (double &w : layer.shadowW)
            w = rng.gaussian(0.0, scale);

        if (i + 1 < specs.size()) {
            layer.sigmoidAfter =
                specs[i + 1].kind == nn::LayerKind::Sigmoid;
            layer.reluAfter = specs[i + 1].kind == nn::LayerKind::Relu;
        }

        reram::ComposingParams cp;
        cp.inputBits = tech.inputBits;
        cp.inputPhaseBits = tech.inputPhaseBits;
        cp.weightBits = tech.weightBits;
        cp.cellBits = tech.cellBits;
        cp.outputBits = tech.outputBits;
        reram::CrossbarParams xp;
        xp.device = tech.device;
        xp.device.programVariation = options.programVariation;
        layer.engine = std::make_unique<reram::ComposedMatrixEngine>(
            s.inFeatures, s.outFeatures, cp, xp);
        layers_.push_back(std::move(layer));
    }
    PRIME_ASSERT(!layers_.empty(), "no weighted layers");
    layers_.back().lastLayer = true;

    for (TrainLayer &layer : layers_)
        reprogram(layer);
}

void
InSituTrainer::reprogram(TrainLayer &layer)
{
    layer.format = DfxFormat::choose(
        std::span<const double>(layer.shadowW.data(),
                                layer.shadowW.size()),
        tech_.weightBits, 0.01);
    const std::size_t rows =
        static_cast<std::size_t>(layer.spec.inFeatures);
    const std::size_t cols =
        static_cast<std::size_t>(layer.spec.outFeatures);
    // shadowW is [out][in]; the crossbar takes [in][out].
    std::vector<int> by_col(rows * cols);
    quantizeWeightCodes(layer.shadowW, layer.format.fracLength,
                        tech_.weightBits, by_col);
    std::vector<int> codes(rows * cols);
    for (std::size_t o = 0; o < cols; ++o)
        for (std::size_t i = 0; i < rows; ++i)
            codes[i * cols + o] = by_col[o * rows + i];
    const std::uint64_t before = layer.engine->totalCellWrites();
    layer.engine->programWeights(
        codes, options_.programVariation > 0.0 ? rng_ : nullptr);
    layer.engine->calibrateOutputShift();
    cellsReprogrammed_ += layer.engine->totalCellWrites() - before;
    ++reprogramEvents_;
    programmedRows_ += rows;
}

std::vector<double>
InSituTrainer::layerForward(TrainLayer &layer,
                            const std::vector<double> &input)
{
    layer.codes.resize(input.size());
    const int in_frac =
        quantizeActivationCodes(input, tech_.inputBits, layer.codes);
    std::vector<std::int64_t> &targets = layer.targets;
    targets.resize(static_cast<std::size_t>(layer.engine->cols()));
    layer.engine->mvmExact(layer.codes, targets, layer.scratch);
    const int shift = layer.engine->outputShift();
    std::vector<double> out(targets.size());
    for (std::size_t o = 0; o < targets.size(); ++o)
        out[o] = std::ldexp(static_cast<double>(targets[o]),
                            shift - in_frac - layer.format.fracLength) +
                 layer.shadowB[o];
    return out;
}

nn::Tensor
InSituTrainer::forward(const nn::Tensor &input)
{
    std::vector<double> x(input.flat());
    for (TrainLayer &layer : layers_) {
        layer.lastInput = x;
        std::vector<double> pre = layerForward(layer, x);
        layer.lastPreAct = pre;
        if (layer.sigmoidAfter)
            for (double &v : pre)
                v = 1.0 / (1.0 + std::exp(-v));
        else if (layer.reluAfter)
            for (double &v : pre)
                v = v < 0.0 ? 0.0 : v;
        layer.lastOutput = pre;
        x = pre;
    }
    return nn::Tensor::vector1d(x);
}

void
InSituTrainer::applyGradients()
{
    for (TrainLayer &layer : layers_) {
        for (std::size_t i = 0; i < layer.shadowW.size(); ++i) {
            layer.shadowW[i] -= options_.learningRate * layer.gradW[i];
            layer.gradW[i] = 0.0;
        }
        for (std::size_t i = 0; i < layer.shadowB.size(); ++i) {
            layer.shadowB[i] -= options_.learningRate * layer.gradB[i];
            layer.gradB[i] = 0.0;
        }
    }
}

double
InSituTrainer::trainEpoch(const std::vector<nn::Sample> &samples)
{
    PRIME_ASSERT(!samples.empty(), "empty training set");
    double loss_sum = 0.0;
    for (const nn::Sample &sample : samples) {
        nn::Tensor flat = sample.input.reshaped(
            {static_cast<int>(sample.input.size())});
        nn::Tensor logits = forward(flat);
        nn::Tensor grad;
        loss_sum += nn::softmaxCrossEntropy(logits, sample.label, grad);

        // Digital backward pass over the float shadow weights
        // (straight-through across the crossbar quantization).
        std::vector<double> delta(grad.flat());
        for (std::size_t l = layers_.size(); l-- > 0;) {
            TrainLayer &layer = layers_[l];
            if (layer.sigmoidAfter)
                for (std::size_t o = 0; o < delta.size(); ++o) {
                    const double y = layer.lastOutput[o];
                    delta[o] *= y * (1.0 - y);
                }
            else if (layer.reluAfter)
                for (std::size_t o = 0; o < delta.size(); ++o)
                    if (layer.lastPreAct[o] < 0.0)
                        delta[o] = 0.0;

            const int rows = layer.spec.inFeatures;
            const int cols = layer.spec.outFeatures;
            std::vector<double> prev(static_cast<std::size_t>(rows),
                                     0.0);
            for (int o = 0; o < cols; ++o) {
                const double g = delta[static_cast<std::size_t>(o)];
                layer.gradB[static_cast<std::size_t>(o)] += g;
                double *wrow =
                    &layer.shadowW[static_cast<std::size_t>(o) * rows];
                double *grow =
                    &layer.gradW[static_cast<std::size_t>(o) * rows];
                for (int i = 0; i < rows; ++i) {
                    grow[i] +=
                        g * layer.lastInput[static_cast<std::size_t>(i)];
                    prev[static_cast<std::size_t>(i)] += g * wrow[i];
                }
            }
            delta = std::move(prev);
        }
        applyGradients();

        // Batched reprogramming: write-verify touches only the cells
        // whose level changed, so the wear grows sublinearly.
        if (++sinceReprogram_ >= options_.reprogramBatch) {
            sinceReprogram_ = 0;
            for (TrainLayer &layer : layers_)
                reprogram(layer);
        }
    }
    return loss_sum / samples.size();
}

double
InSituTrainer::evaluate(const std::vector<nn::Sample> &samples)
{
    PRIME_ASSERT(!samples.empty(), "empty sample set");
    std::size_t correct = 0;
    for (const nn::Sample &sample : samples) {
        nn::Tensor flat = sample.input.reshaped(
            {static_cast<int>(sample.input.size())});
        if (static_cast<int>(forward(flat).argmax()) == sample.label)
            ++correct;
    }
    return static_cast<double>(correct) / samples.size();
}

PicoJoule
InSituTrainer::programmingEnergy() const
{
    nvmodel::EnergyModel energy(tech_);
    return energy.weightProgramming(
        static_cast<long long>(cellsReprogrammed_));
}

Ns
InSituTrainer::programmingTime() const
{
    nvmodel::LatencyModel lat(tech_);
    return lat.weightProgramming(
        static_cast<long long>(programmedRows_));
}

std::uint64_t
InSituTrainer::maxCellWear() const
{
    std::uint64_t w = 0;
    for (const TrainLayer &layer : layers_)
        w = std::max(w, layer.engine->maxCellWear());
    return w;
}

} // namespace prime::core
