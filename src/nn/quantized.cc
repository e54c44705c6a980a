#include "nn/quantized.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "nn/layers.hh"

namespace prime::nn {

QuantizedNetwork::QuantizedNetwork(const Topology &topology,
                                   const Network &trained,
                                   const QuantizedOptions &options)
    : topology_(topology), options_(options)
{
    PRIME_ASSERT(topology.layers.size() == trained.layerCount(),
                 "topology/network layer count mismatch: ",
                 topology.layers.size(), " vs ", trained.layerCount());
    if (options_.fidelity == Fidelity::ComposedHardware) {
        PRIME_FATAL_IF(options_.inputBits != options_.composing.inputBits ||
                           options_.weightBits !=
                               options_.composing.weightBits,
                       "ComposedHardware fidelity requires inputBits/"
                       "weightBits to match the composing parameters");
        PRIME_FATAL_IF(!options_.composing.consistent(),
                       "inconsistent composing parameters");
    }

    for (std::size_t i = 0; i < topology.layers.size(); ++i) {
        QLayer q;
        q.spec = topology.layers[i];
        const Layer &layer = trained.layer(i);
        PRIME_ASSERT(layer.kind() == q.spec.kind,
                     "layer kind mismatch at index ", i);
        if (const auto *w = layer.weights()) {
            q.weights = *w;
            // Courbariaux-style scaling: tolerate ~1% clipped outliers
            // for a finer step.
            q.weightFormat =
                dfxRoundVector(q.weights, options_.weightBits, 0.01);
        }
        if (const auto *b = layer.bias()) {
            q.bias = *b;
            // Bias is accumulated digitally; keep it at weight precision
            // with its own dynamic scale.
            dfxRoundVector(q.bias, options_.weightBits);
        }
        qlayers_.push_back(std::move(q));
    }
}

void
QuantizedNetwork::injectCellFaults(const reram::FaultModel &model,
                                   Rng &rng)
{
    for (QLayer &q : qlayers_) {
        if (q.weights.empty())
            continue;
        // Lift weights to composing codes, corrupt, drop back.
        std::vector<std::vector<int>> codes(
            1, std::vector<int>(q.weights.size()));
        quantizeWeightCodes(q.weights, q.weightFormat.fracLength,
                            options_.composing.weightBits, codes[0]);
        std::vector<std::vector<int>> faulty =
            reram::injectWeightFaults(codes, options_.composing, model,
                                      rng);
        for (std::size_t i = 0; i < q.weights.size(); ++i)
            q.weights[i] = std::ldexp(static_cast<double>(faulty[0][i]),
                                      -q.weightFormat.fracLength);
    }
}

void
QuantizedNetwork::applyProgrammingVariation(double sigma, Rng &rng)
{
    PRIME_ASSERT(sigma >= 0.0, "sigma=", sigma);
    for (QLayer &q : qlayers_)
        for (double &w : q.weights)
            w *= std::exp(rng.gaussian(0.0, sigma));
}

Tensor
QuantizedNetwork::quantizeActivations(const Tensor &x) const
{
    Tensor y = x;
    DfxFormat fmt = DfxFormat::choose(
        std::span<const double>(y.flat().data(), y.size()),
        options_.inputBits + 1);  // activations are non-negative: the
                                  // sign bit of the dfx mantissa is free,
                                  // so Pin magnitude bits remain.
    for (std::size_t i = 0; i < y.size(); ++i)
        y[i] = dfxRound(y[i], fmt);
    return y;
}

void
QuantizedNetwork::calibrate(const std::vector<Sample> &samples)
{
    PRIME_FATAL_IF(options_.fidelity != Fidelity::ComposedHardware,
                   "calibrate() applies to ComposedHardware fidelity");
    for (QLayer &q : qlayers_) {
        q.calibrationPeak = 0;
        q.outputShift = -1;
    }
    calibrating_ = true;
    for (const Sample &s : samples)
        forward(s.input);
    calibrating_ = false;
    for (QLayer &q : qlayers_) {
        if (q.weights.empty())
            continue;
        // 2x headroom over the observed peak, floor of one SA window.
        const std::int64_t bound =
            std::max<std::int64_t>(2 * q.calibrationPeak, 1);
        int bits = 0;
        while ((std::int64_t{1} << bits) <= bound)
            ++bits;
        q.outputShift = std::max(0, bits - options_.composing.outputBits);
    }
}

std::vector<double>
QuantizedNetwork::composedMvm(
    QLayer &q, const std::vector<double> &inputs,
    const std::vector<std::vector<double>> &weight_cols) const
{
    const reram::ComposingParams &cp = options_.composing;

    // Unsigned Pin-bit input codes with a shared power-of-two scale.
    double max_abs = 0.0;
    for (double v : inputs)
        max_abs = std::max(max_abs, std::fabs(v));
    int exp = 0;
    if (max_abs > 0.0)
        std::frexp(max_abs, &exp);  // max_abs <= 2^exp
    const int in_frac = cp.inputBits - exp;
    const int max_code = (1 << cp.inputBits) - 1;
    std::vector<int> codes(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        double scaled = std::ldexp(std::max(inputs[i], 0.0), in_frac);
        codes[i] = static_cast<int>(
            std::clamp(std::nearbyint(scaled), 0.0,
                       static_cast<double>(max_code)));
    }

    const int w_frac = q.weightFormat.fracLength;

    // Quantize every weight column first, then calibrate the SA window
    // to the worst-case column range (the per-layer reconfigurable-SA
    // setting the controller programs).
    std::vector<std::vector<int>> wcodes(
        weight_cols.size(), std::vector<int>(inputs.size()));
    for (std::size_t c = 0; c < weight_cols.size(); ++c) {
        PRIME_ASSERT(weight_cols[c].size() == inputs.size(),
                     "weight column length mismatch");
        quantizeWeightCodes(weight_cols[c], w_frac, cp.weightBits,
                            wcodes[c]);
    }
    std::vector<double> out(weight_cols.size(), 0.0);
    if (calibrating_) {
        // Record the peak integer dot product and return exact values so
        // downstream layers see realistic activations.
        for (std::size_t c = 0; c < weight_cols.size(); ++c) {
            std::int64_t full = 0;
            for (std::size_t i = 0; i < inputs.size(); ++i)
                full += static_cast<std::int64_t>(codes[i]) * wcodes[c][i];
            q.calibrationPeak =
                std::max<std::int64_t>(q.calibrationPeak, std::abs(full));
            out[c] = std::ldexp(static_cast<double>(full),
                                -in_frac - w_frac);
        }
        return out;
    }

    int shift = q.outputShift;
    if (shift < 0) {
        // Uncalibrated: conservative worst-case-weight window.
        const std::size_t cols = weight_cols.size();
        std::vector<int> by_row(inputs.size() * cols);
        for (std::size_t c = 0; c < cols; ++c)
            for (std::size_t i = 0; i < inputs.size(); ++i)
                by_row[i * cols + c] = wcodes[c][i];
        shift = reram::calibratedOutputShift(
            by_row, static_cast<int>(cols), cp);
    }

    for (std::size_t c = 0; c < weight_cols.size(); ++c) {
        const std::int64_t target =
            reram::composedApproxShifted(codes, wcodes[c], cp, shift);
        // Undo the output shift and both quantization scales.
        out[c] = std::ldexp(static_cast<double>(target),
                            shift - in_frac - w_frac);
    }
    return out;
}

Tensor
QuantizedNetwork::forwardFc(QLayer &q, const Tensor &x) const
{
    const LayerSpec &s = q.spec;
    Tensor y({s.outFeatures});
    if (options_.fidelity == Fidelity::DynamicFixedPoint) {
        for (int o = 0; o < s.outFeatures; ++o) {
            const double *row =
                &q.weights[static_cast<std::size_t>(o) * s.inFeatures];
            double acc = q.bias[static_cast<std::size_t>(o)];
            for (int i = 0; i < s.inFeatures; ++i)
                acc += row[i] * x[static_cast<std::size_t>(i)];
            y[static_cast<std::size_t>(o)] = acc;
        }
        return y;
    }
    // ComposedHardware: run all output columns through the composing
    // integer pipeline; bias accumulates digitally afterwards.
    std::vector<double> inputs(x.flat());
    std::vector<std::vector<double>> cols(
        static_cast<std::size_t>(s.outFeatures));
    for (int o = 0; o < s.outFeatures; ++o) {
        cols[static_cast<std::size_t>(o)].resize(
            static_cast<std::size_t>(s.inFeatures));
        for (int i = 0; i < s.inFeatures; ++i)
            cols[static_cast<std::size_t>(o)][static_cast<std::size_t>(i)] =
                q.weights[static_cast<std::size_t>(o) * s.inFeatures + i];
    }
    std::vector<double> mvm = composedMvm(q, inputs, cols);
    for (int o = 0; o < s.outFeatures; ++o)
        y[static_cast<std::size_t>(o)] =
            mvm[static_cast<std::size_t>(o)] +
            q.bias[static_cast<std::size_t>(o)];
    return y;
}

Tensor
QuantizedNetwork::forwardConv(QLayer &q, const Tensor &x) const
{
    const LayerSpec &s = q.spec;
    Tensor y({s.outC, s.outH, s.outW});
    auto w_at = [&](int oc, int ic, int kh, int kw) {
        return q.weights[((static_cast<std::size_t>(oc) * s.inC + ic) *
                              s.kernel + kh) * s.kernel + kw];
    };
    if (options_.fidelity == Fidelity::DynamicFixedPoint) {
        for (int oc = 0; oc < s.outC; ++oc)
            for (int oy = 0; oy < s.outH; ++oy)
                for (int ox = 0; ox < s.outW; ++ox) {
                    double acc = q.bias[static_cast<std::size_t>(oc)];
                    for (int ic = 0; ic < s.inC; ++ic)
                        for (int kh = 0; kh < s.kernel; ++kh) {
                            const int iy = oy + kh - s.padding;
                            if (iy < 0 || iy >= s.inH)
                                continue;
                            for (int kw = 0; kw < s.kernel; ++kw) {
                                const int ix = ox + kw - s.padding;
                                if (ix < 0 || ix >= s.inW)
                                    continue;
                                acc += w_at(oc, ic, kh, kw) *
                                       x.at3(ic, iy, ix);
                            }
                        }
                    y.at3(oc, oy, ox) = acc;
                }
        return y;
    }
    // ComposedHardware: lower each output position to an MVM over its
    // receptive field (the paper maps kernel elements to bitlines).
    const int field = s.inC * s.kernel * s.kernel;
    std::vector<double> inputs(static_cast<std::size_t>(field));
    std::vector<std::vector<double>> cols(
        static_cast<std::size_t>(s.outC),
        std::vector<double>(static_cast<std::size_t>(field)));
    for (int oc = 0; oc < s.outC; ++oc) {
        std::size_t idx = 0;
        for (int ic = 0; ic < s.inC; ++ic)
            for (int kh = 0; kh < s.kernel; ++kh)
                for (int kw = 0; kw < s.kernel; ++kw)
                    cols[static_cast<std::size_t>(oc)][idx++] =
                        w_at(oc, ic, kh, kw);
    }
    for (int oy = 0; oy < s.outH; ++oy)
        for (int ox = 0; ox < s.outW; ++ox) {
            std::size_t idx = 0;
            for (int ic = 0; ic < s.inC; ++ic)
                for (int kh = 0; kh < s.kernel; ++kh)
                    for (int kw = 0; kw < s.kernel; ++kw) {
                        const int iy = oy + kh - s.padding;
                        const int ix = ox + kw - s.padding;
                        inputs[idx++] =
                            (iy < 0 || iy >= s.inH || ix < 0 ||
                             ix >= s.inW)
                                ? 0.0
                                : x.at3(ic, iy, ix);
                    }
            std::vector<double> mvm = composedMvm(q, inputs, cols);
            for (int oc = 0; oc < s.outC; ++oc)
                y.at3(oc, oy, ox) =
                    mvm[static_cast<std::size_t>(oc)] +
                    q.bias[static_cast<std::size_t>(oc)];
        }
    return y;
}

Tensor
QuantizedNetwork::forward(const Tensor &input) const
{
    Tensor x = input;
    for (QLayer &q : qlayers_) {
        switch (q.spec.kind) {
          case LayerKind::FullyConnected:
            x = quantizeActivations(x);
            x = forwardFc(q, x);
            break;
          case LayerKind::Convolution:
            x = quantizeActivations(x);
            x = forwardConv(q, x);
            break;
          case LayerKind::MaxPool:
          case LayerKind::MeanPool:
          case LayerKind::Sigmoid:
          case LayerKind::Relu:
          case LayerKind::Flatten:
            x = forwardUnweighted(q.spec, std::move(x));
            break;
        }
    }
    return x;
}

int
QuantizedNetwork::predict(const Tensor &input) const
{
    return static_cast<int>(forward(input).argmax());
}

double
QuantizedNetwork::accuracy(const std::vector<Sample> &samples) const
{
    PRIME_ASSERT(!samples.empty(), "empty sample set");
    std::size_t correct = 0;
    for (const Sample &s : samples)
        if (predict(s.input) == s.label)
            ++correct;
    return static_cast<double>(correct) / samples.size();
}

} // namespace prime::nn
