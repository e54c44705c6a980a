#include "nn/layers.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace prime::nn {

const char *
layerKindName(LayerKind kind)
{
    switch (kind) {
      case LayerKind::FullyConnected: return "fc";
      case LayerKind::Convolution: return "conv";
      case LayerKind::MaxPool: return "maxpool";
      case LayerKind::MeanPool: return "meanpool";
      case LayerKind::Sigmoid: return "sigmoid";
      case LayerKind::Relu: return "relu";
      case LayerKind::Flatten: return "flatten";
    }
    return "?";
}

// ---------------------------------------------------------------- FC --

FullyConnected::FullyConnected(int in_features, int out_features, Rng &rng)
    : in_(in_features), out_(out_features),
      w_(static_cast<std::size_t>(in_features) * out_features),
      b_(out_features, 0.0), gw_(w_.size(), 0.0), gb_(b_.size(), 0.0)
{
    PRIME_ASSERT(in_ > 0 && out_ > 0, "fc dims ", in_, "x", out_);
    // Xavier/Glorot initialization.
    const double scale = std::sqrt(2.0 / (in_ + out_));
    for (double &w : w_)
        w = rng.gaussian(0.0, scale);
}

std::string
FullyConnected::name() const
{
    return "fc" + std::to_string(in_) + "-" + std::to_string(out_);
}

Tensor
FullyConnected::forward(const Tensor &input)
{
    PRIME_ASSERT(input.size() == static_cast<std::size_t>(in_),
                 name(), " input size ", input.size());
    lastInput_ = input;
    Tensor out({out_});
    for (int o = 0; o < out_; ++o) {
        const double *row = &w_[static_cast<std::size_t>(o) * in_];
        double acc = b_[static_cast<std::size_t>(o)];
        for (int i = 0; i < in_; ++i)
            acc += row[i] * input[static_cast<std::size_t>(i)];
        out[static_cast<std::size_t>(o)] = acc;
    }
    return out;
}

Tensor
FullyConnected::backward(const Tensor &grad_output)
{
    PRIME_ASSERT(grad_output.size() == static_cast<std::size_t>(out_),
                 name(), " grad size ", grad_output.size());
    Tensor grad_in({in_});
    for (int o = 0; o < out_; ++o) {
        const double g = grad_output[static_cast<std::size_t>(o)];
        double *grow = &gw_[static_cast<std::size_t>(o) * in_];
        const double *row = &w_[static_cast<std::size_t>(o) * in_];
        gb_[static_cast<std::size_t>(o)] += g;
        for (int i = 0; i < in_; ++i) {
            grow[i] += g * lastInput_[static_cast<std::size_t>(i)];
            grad_in[static_cast<std::size_t>(i)] += g * row[i];
        }
    }
    return grad_in;
}

void
FullyConnected::sgdStep(double learning_rate)
{
    for (std::size_t i = 0; i < w_.size(); ++i) {
        w_[i] -= learning_rate * gw_[i];
        gw_[i] = 0.0;
    }
    for (std::size_t i = 0; i < b_.size(); ++i) {
        b_[i] -= learning_rate * gb_[i];
        gb_[i] = 0.0;
    }
}

// -------------------------------------------------------------- conv --

Convolution::Convolution(int in_channels, int in_height, int in_width,
                         int out_channels, int kernel, int padding, Rng &rng)
    : inC_(in_channels), inH_(in_height), inW_(in_width),
      outC_(out_channels), k_(kernel), pad_(padding),
      w_(static_cast<std::size_t>(out_channels) * in_channels * kernel *
         kernel),
      b_(out_channels, 0.0), gw_(w_.size(), 0.0), gb_(b_.size(), 0.0)
{
    PRIME_ASSERT(outHeight() > 0 && outWidth() > 0,
                 "conv output degenerate");
    const double fan_in = static_cast<double>(inC_) * k_ * k_;
    const double scale = std::sqrt(2.0 / fan_in);
    for (double &w : w_)
        w = rng.gaussian(0.0, scale);
}

std::string
Convolution::name() const
{
    return "conv" + std::to_string(k_) + "x" + std::to_string(outC_);
}

double &
Convolution::wAt(int oc, int ic, int kh, int kw)
{
    return w_[((static_cast<std::size_t>(oc) * inC_ + ic) * k_ + kh) * k_ +
              kw];
}

double
Convolution::wAt(int oc, int ic, int kh, int kw) const
{
    return const_cast<Convolution *>(this)->wAt(oc, ic, kh, kw);
}

Tensor
Convolution::forward(const Tensor &input)
{
    PRIME_ASSERT(input.shape().size() == 3 && input.shape()[0] == inC_ &&
                     input.shape()[1] == inH_ && input.shape()[2] == inW_,
                 name(), " input shape mismatch");
    lastInput_ = input;
    const int oh = outHeight(), ow = outWidth();
    Tensor out({outC_, oh, ow});
    for (int oc = 0; oc < outC_; ++oc) {
        for (int y = 0; y < oh; ++y) {
            for (int x = 0; x < ow; ++x) {
                double acc = b_[static_cast<std::size_t>(oc)];
                for (int ic = 0; ic < inC_; ++ic) {
                    for (int kh = 0; kh < k_; ++kh) {
                        const int iy = y + kh - pad_;
                        if (iy < 0 || iy >= inH_)
                            continue;
                        for (int kw = 0; kw < k_; ++kw) {
                            const int ix = x + kw - pad_;
                            if (ix < 0 || ix >= inW_)
                                continue;
                            acc += wAt(oc, ic, kh, kw) *
                                   input.at3(ic, iy, ix);
                        }
                    }
                }
                out.at3(oc, y, x) = acc;
            }
        }
    }
    return out;
}

Tensor
Convolution::backward(const Tensor &grad_output)
{
    const int oh = outHeight(), ow = outWidth();
    PRIME_ASSERT(grad_output.shape().size() == 3 &&
                     grad_output.shape()[0] == outC_ &&
                     grad_output.shape()[1] == oh &&
                     grad_output.shape()[2] == ow,
                 name(), " grad shape mismatch");
    Tensor grad_in({inC_, inH_, inW_});
    for (int oc = 0; oc < outC_; ++oc) {
        for (int y = 0; y < oh; ++y) {
            for (int x = 0; x < ow; ++x) {
                const double g = grad_output.at3(oc, y, x);
                if (g == 0.0)
                    continue;
                gb_[static_cast<std::size_t>(oc)] += g;
                for (int ic = 0; ic < inC_; ++ic) {
                    for (int kh = 0; kh < k_; ++kh) {
                        const int iy = y + kh - pad_;
                        if (iy < 0 || iy >= inH_)
                            continue;
                        for (int kw = 0; kw < k_; ++kw) {
                            const int ix = x + kw - pad_;
                            if (ix < 0 || ix >= inW_)
                                continue;
                            gw_[((static_cast<std::size_t>(oc) * inC_ + ic) *
                                     k_ + kh) * k_ + kw] +=
                                g * lastInput_.at3(ic, iy, ix);
                            grad_in.at3(ic, iy, ix) +=
                                g * wAt(oc, ic, kh, kw);
                        }
                    }
                }
            }
        }
    }
    return grad_in;
}

void
Convolution::sgdStep(double learning_rate)
{
    for (std::size_t i = 0; i < w_.size(); ++i) {
        w_[i] -= learning_rate * gw_[i];
        gw_[i] = 0.0;
    }
    for (std::size_t i = 0; i < b_.size(); ++i) {
        b_[i] -= learning_rate * gb_[i];
        gb_[i] = 0.0;
    }
}

// -------------------------------------------------------------- pool --

Tensor
MaxPool::forward(const Tensor &input)
{
    PRIME_ASSERT(input.shape().size() == 3, "maxpool needs (c,h,w)");
    const int c = input.shape()[0], h = input.shape()[1],
              w = input.shape()[2];
    const int oh = h / k_, ow = w / k_;
    PRIME_ASSERT(oh > 0 && ow > 0, "pool output degenerate");
    inShape_ = input.shape();
    Tensor out({c, oh, ow});
    argmax_.assign(static_cast<std::size_t>(c) * oh * ow, 0);
    // The shape is checked above, so index the flat (c, h, w) storage
    // directly; every window lies inside the input since oh * k <= h
    // and ow * k <= w.  The output is written in (c, y, x) order.
    const double *in = input.data();
    double *dst = out.data();
    int *route = argmax_.data();
    const std::size_t plane = static_cast<std::size_t>(h) * w;
    for (int ch = 0; ch < c; ++ch) {
        const double *in_ch = in + static_cast<std::size_t>(ch) * plane;
        for (int y = 0; y < oh; ++y) {
            for (int x = 0; x < ow; ++x) {
                double best = -1.0e300;
                int best_idx = 0;
                for (int dy = 0; dy < k_; ++dy) {
                    const int iy = y * k_ + dy;
                    for (int dx = 0; dx < k_; ++dx) {
                        const int idx = iy * w + x * k_ + dx;
                        const double v = in_ch[idx];
                        if (v > best) {
                            best = v;
                            best_idx = idx;
                        }
                    }
                }
                *dst++ = best;
                *route++ = best_idx;
            }
        }
    }
    return out;
}

Tensor
MaxPool::backward(const Tensor &grad_output)
{
    const int c = inShape_[0], h = inShape_[1], w = inShape_[2];
    const int oh = h / k_, ow = w / k_;
    Tensor grad_in({c, h, w});
    for (int ch = 0; ch < c; ++ch) {
        for (int y = 0; y < oh; ++y) {
            for (int x = 0; x < ow; ++x) {
                const int idx =
                    argmax_[(static_cast<std::size_t>(ch) * oh + y) * ow + x];
                grad_in.at3(ch, idx / w, idx % w) +=
                    grad_output.at3(ch, y, x);
            }
        }
    }
    return grad_in;
}

Tensor
MeanPool::forward(const Tensor &input)
{
    PRIME_ASSERT(input.shape().size() == 3, "meanpool needs (c,h,w)");
    const int c = input.shape()[0], h = input.shape()[1],
              w = input.shape()[2];
    const int oh = h / k_, ow = w / k_;
    PRIME_ASSERT(oh > 0 && ow > 0, "pool output degenerate");
    inShape_ = input.shape();
    Tensor out({c, oh, ow});
    const double inv = 1.0 / (k_ * k_);
    for (int ch = 0; ch < c; ++ch)
        for (int y = 0; y < oh; ++y)
            for (int x = 0; x < ow; ++x) {
                double acc = 0.0;
                for (int dy = 0; dy < k_; ++dy)
                    for (int dx = 0; dx < k_; ++dx)
                        acc += input.at3(ch, y * k_ + dy, x * k_ + dx);
                out.at3(ch, y, x) = acc * inv;
            }
    return out;
}

Tensor
MeanPool::backward(const Tensor &grad_output)
{
    const int c = inShape_[0], h = inShape_[1], w = inShape_[2];
    const int oh = h / k_, ow = w / k_;
    const double inv = 1.0 / (k_ * k_);
    Tensor grad_in({c, h, w});
    for (int ch = 0; ch < c; ++ch)
        for (int y = 0; y < oh; ++y)
            for (int x = 0; x < ow; ++x) {
                const double g = grad_output.at3(ch, y, x) * inv;
                for (int dy = 0; dy < k_; ++dy)
                    for (int dx = 0; dx < k_; ++dx)
                        grad_in.at3(ch, y * k_ + dy, x * k_ + dx) += g;
            }
    return grad_in;
}

// -------------------------------------------------------- activations --

Tensor
Sigmoid::forward(const Tensor &input)
{
    Tensor out = input;
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = 1.0 / (1.0 + std::exp(-out[i]));
    lastOutput_ = out;
    return out;
}

Tensor
Sigmoid::backward(const Tensor &grad_output)
{
    Tensor grad_in = grad_output;
    for (std::size_t i = 0; i < grad_in.size(); ++i) {
        const double y = lastOutput_[i];
        grad_in[i] *= y * (1.0 - y);
    }
    return grad_in;
}

Tensor
Relu::forward(const Tensor &input)
{
    lastInput_ = input;
    Tensor out = input;
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = out[i] < 0.0 ? 0.0 : out[i];
    return out;
}

Tensor
Relu::backward(const Tensor &grad_output)
{
    Tensor grad_in = grad_output;
    for (std::size_t i = 0; i < grad_in.size(); ++i)
        if (lastInput_[i] < 0.0)
            grad_in[i] = 0.0;
    return grad_in;
}

Tensor
Flatten::forward(const Tensor &input)
{
    inShape_ = input.shape();
    return input.reshaped({static_cast<int>(input.size())});
}

Tensor
Flatten::backward(const Tensor &grad_output)
{
    return grad_output.reshaped(inShape_);
}

} // namespace prime::nn
