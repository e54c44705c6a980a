#include "nn/topology.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "nn/layers.hh"

namespace prime::nn {

long long
LayerSpec::macs() const
{
    switch (kind) {
      case LayerKind::FullyConnected:
        return static_cast<long long>(inFeatures) * outFeatures;
      case LayerKind::Convolution:
        return static_cast<long long>(outC) * outH * outW * inC * kernel *
               kernel;
      case LayerKind::MaxPool:
      case LayerKind::MeanPool:
        // Comparisons/adds, counted as one op per window element.
        return static_cast<long long>(outC) * outH * outW * poolK * poolK;
      case LayerKind::Sigmoid:
      case LayerKind::Relu:
        return outputCount();
      case LayerKind::Flatten:
        return 0;
    }
    return 0;
}

long long
LayerSpec::weightCount() const
{
    switch (kind) {
      case LayerKind::FullyConnected:
        return static_cast<long long>(inFeatures) * outFeatures +
               outFeatures;
      case LayerKind::Convolution:
        return static_cast<long long>(outC) * inC * kernel * kernel + outC;
      default:
        return 0;
    }
}

long long
LayerSpec::inputCount() const
{
    switch (kind) {
      case LayerKind::FullyConnected:
        return inFeatures;
      case LayerKind::Convolution:
      case LayerKind::MaxPool:
      case LayerKind::MeanPool:
        return static_cast<long long>(inC) * inH * inW;
      case LayerKind::Sigmoid:
      case LayerKind::Relu:
      case LayerKind::Flatten:
        return outputCount();
    }
    return 0;
}

long long
LayerSpec::outputCount() const
{
    switch (kind) {
      case LayerKind::FullyConnected:
        return outFeatures;
      case LayerKind::Convolution:
      case LayerKind::MaxPool:
      case LayerKind::MeanPool:
        return static_cast<long long>(outC) * outH * outW;
      case LayerKind::Sigmoid:
      case LayerKind::Relu:
      case LayerKind::Flatten:
        return static_cast<long long>(inC) * inH * inW;
    }
    return 0;
}

std::string
LayerSpec::describe() const
{
    std::ostringstream os;
    switch (kind) {
      case LayerKind::FullyConnected:
        os << "fc " << inFeatures << "->" << outFeatures;
        break;
      case LayerKind::Convolution:
        os << "conv" << kernel << "x" << kernel << " " << inC << "x" << inH
           << "x" << inW << "->" << outC << "x" << outH << "x" << outW;
        break;
      case LayerKind::MaxPool:
      case LayerKind::MeanPool:
        os << (kind == LayerKind::MaxPool ? "maxpool" : "meanpool") << poolK
           << "x" << poolK << " " << inC << "x" << inH << "x" << inW;
        break;
      default:
        os << layerKindName(kind);
    }
    return os.str();
}

Tensor
forwardUnweighted(const LayerSpec &spec, Tensor x)
{
    switch (spec.kind) {
      case LayerKind::MaxPool:
      case LayerKind::MeanPool: {
        // Check the shape once, then index the flat (c, h, w) storage
        // directly (as MaxPool::forward does): every window lies inside
        // the input since outH * k <= h and outW * k <= w.
        const int k = spec.poolK;
        PRIME_ASSERT(x.shape().size() == 3 && x.shape()[0] == spec.outC &&
                         spec.outH * k <= x.shape()[1] &&
                         spec.outW * k <= x.shape()[2],
                     "pool input does not fit ", spec.describe());
        const int w = x.shape()[2];
        const std::size_t plane = static_cast<std::size_t>(x.shape()[1]) * w;
        Tensor y({spec.outC, spec.outH, spec.outW});
        double *dst = y.data();
        for (int c = 0; c < spec.outC; ++c) {
            const double *in_c = x.data() + static_cast<std::size_t>(c) * plane;
            for (int oy = 0; oy < spec.outH; ++oy)
                for (int ox = 0; ox < spec.outW; ++ox) {
                    double best = -1.0e300, sum = 0.0;
                    for (int dy = 0; dy < k; ++dy) {
                        const double *row =
                            in_c + static_cast<std::size_t>(oy * k + dy) * w +
                            ox * k;
                        for (int dx = 0; dx < k; ++dx) {
                            best = std::max(best, row[dx]);
                            sum += row[dx];
                        }
                    }
                    *dst++ = spec.kind == LayerKind::MaxPool
                                 ? best
                                 : sum / (k * k);
                }
        }
        return y;
      }
      case LayerKind::Sigmoid:
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = 1.0 / (1.0 + std::exp(-x[i]));
        return x;
      case LayerKind::Relu:
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = x[i] < 0.0 ? 0.0 : x[i];
        return x;
      case LayerKind::Flatten:
        return x.reshaped({static_cast<int>(x.size())});
      case LayerKind::FullyConnected:
      case LayerKind::Convolution:
        break;
    }
    PRIME_PANIC("forwardUnweighted on weighted layer ", spec.describe());
}

long long
Topology::totalMacs() const
{
    long long n = 0;
    for (const LayerSpec &l : layers)
        if (l.kind == LayerKind::FullyConnected ||
            l.kind == LayerKind::Convolution)
            n += l.macs();
    return n;
}

long long
Topology::totalSynapses() const
{
    long long n = 0;
    for (const LayerSpec &l : layers)
        n += l.weightCount();
    return n;
}

long long
Topology::peakActivation() const
{
    long long peak = 0;
    for (const LayerSpec &l : layers)
        peak = std::max({peak, l.inputCount(), l.outputCount()});
    return peak;
}

namespace {

/** Shape cursor used while parsing. */
struct Cursor
{
    bool spatial = true;
    int c = 0, h = 0, w = 0;
    long long flat() const { return static_cast<long long>(c) * h * w; }
};

LayerSpec
activationSpec(LayerKind kind, const Cursor &cur)
{
    LayerSpec s;
    s.kind = kind;
    if (cur.spatial) {
        s.inC = cur.c;
        s.inH = cur.h;
        s.inW = cur.w;
    } else {
        s.inC = 1;
        s.inH = 1;
        s.inW = static_cast<int>(cur.flat());
    }
    return s;
}

} // namespace

Topology
parseTopology(const std::string &name, const std::string &spec, int input_c,
              int input_h, int input_w, LayerKind hidden_activation)
{
    PRIME_FATAL_IF(hidden_activation != LayerKind::Sigmoid &&
                       hidden_activation != LayerKind::Relu,
                   "hidden activation must be sigmoid or relu");
    Topology topo;
    topo.name = name;
    topo.spec = spec;

    Cursor cur{true, input_c, input_h, input_w};

    std::vector<std::string> tokens;
    std::stringstream ss(spec);
    std::string tok;
    while (std::getline(ss, tok, '-'))
        if (!tok.empty())
            tokens.push_back(tok);
    PRIME_FATAL_IF(tokens.empty(), "empty topology spec");

    // Collect indices of FC layers so the last one skips the activation.
    std::vector<std::size_t> fc_token_idx;
    for (std::size_t i = 0; i < tokens.size(); ++i)
        if (std::isdigit(static_cast<unsigned char>(tokens[i][0])))
            fc_token_idx.push_back(i);
    const std::size_t last_fc =
        fc_token_idx.empty() ? tokens.size() : fc_token_idx.back();

    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const std::string &t = tokens[i];
        if (t.rfind("conv", 0) == 0) {
            const auto x = t.find('x', 4);
            PRIME_FATAL_IF(x == std::string::npos,
                           "bad conv token: " + t);
            const int k = std::stoi(t.substr(4, x - 4));
            const int maps = std::stoi(t.substr(x + 1));
            PRIME_FATAL_IF(!cur.spatial, "conv after flatten in " + name);
            LayerSpec s;
            s.kind = LayerKind::Convolution;
            s.inC = cur.c;
            s.inH = cur.h;
            s.inW = cur.w;
            s.outC = maps;
            s.kernel = k;
            s.padding = (k == 3) ? 1 : 0;  // VGG-style same vs LeNet valid
            s.outH = s.inH + 2 * s.padding - k + 1;
            s.outW = s.inW + 2 * s.padding - k + 1;
            PRIME_FATAL_IF(s.outH <= 0 || s.outW <= 0,
                           "conv output degenerate in " + name);
            topo.layers.push_back(s);
            cur = Cursor{true, s.outC, s.outH, s.outW};
            topo.layers.push_back(activationSpec(LayerKind::Relu, cur));
        } else if (t == "pool") {
            PRIME_FATAL_IF(!cur.spatial, "pool after flatten in " + name);
            LayerSpec s;
            s.kind = LayerKind::MaxPool;
            s.poolK = 2;
            s.inC = cur.c;
            s.inH = cur.h;
            s.inW = cur.w;
            s.outC = cur.c;
            s.outH = cur.h / 2;
            s.outW = cur.w / 2;
            topo.layers.push_back(s);
            cur = Cursor{true, s.outC, s.outH, s.outW};
        } else if (std::isdigit(static_cast<unsigned char>(t[0]))) {
            const int n = std::stoi(t);
            if (cur.spatial) {
                // First FC after spatial layers: flatten, and the token
                // itself names the flattened size in Table III (e.g. 720).
                LayerSpec f = activationSpec(LayerKind::Flatten, cur);
                topo.layers.push_back(f);
                PRIME_FATAL_IF(cur.flat() != n,
                               "flatten size mismatch in " + name + ": " +
                                   std::to_string(cur.flat()) + " vs " + t);
                cur = Cursor{false, 1, 1, n};
                continue;
            }
            LayerSpec s;
            s.kind = LayerKind::FullyConnected;
            s.inFeatures = static_cast<int>(cur.flat());
            s.outFeatures = n;
            topo.layers.push_back(s);
            cur = Cursor{false, 1, 1, n};
            if (i != last_fc)
                topo.layers.push_back(
                    activationSpec(hidden_activation, cur));
        } else {
            PRIME_FATAL("unknown topology token: ", t);
        }
    }
    return topo;
}

Network
buildNetwork(const Topology &topology, Rng &rng)
{
    Network net;
    for (const LayerSpec &s : topology.layers) {
        switch (s.kind) {
          case LayerKind::FullyConnected:
            net.add(std::make_unique<FullyConnected>(s.inFeatures,
                                                     s.outFeatures, rng));
            break;
          case LayerKind::Convolution:
            net.add(std::make_unique<Convolution>(s.inC, s.inH, s.inW,
                                                  s.outC, s.kernel,
                                                  s.padding, rng));
            break;
          case LayerKind::MaxPool:
            net.add(std::make_unique<MaxPool>(s.poolK));
            break;
          case LayerKind::MeanPool:
            net.add(std::make_unique<MeanPool>(s.poolK));
            break;
          case LayerKind::Sigmoid:
            net.add(std::make_unique<Sigmoid>());
            break;
          case LayerKind::Relu:
            net.add(std::make_unique<Relu>());
            break;
          case LayerKind::Flatten:
            net.add(std::make_unique<Flatten>());
            break;
        }
    }
    return net;
}

std::vector<Topology>
mlBench()
{
    std::vector<Topology> suite;
    suite.push_back(parseTopology("CNN-1", "conv5x5-pool-720-70-10",
                                  1, 28, 28));
    suite.push_back(parseTopology("CNN-2", "conv7x10-pool-1210-120-10",
                                  1, 28, 28));
    suite.push_back(parseTopology("MLP-S", "784-500-250-10", 1, 28, 28));
    suite.push_back(parseTopology("MLP-M", "784-1000-500-250-10",
                                  1, 28, 28));
    suite.push_back(parseTopology("MLP-L", "784-1500-1000-500-10",
                                  1, 28, 28));
    suite.push_back(parseTopology(
        "VGG-D",
        "conv3x64-conv3x64-pool-conv3x128-conv3x128-pool-"
        "conv3x256-conv3x256-conv3x256-pool-conv3x512-conv3x512-"
        "conv3x512-pool-conv3x512-conv3x512-conv3x512-pool-"
        "25088-4096-4096-1000",
        3, 224, 224));
    return suite;
}

Topology
mlBenchByName(const std::string &name)
{
    std::string valid;
    for (Topology &t : mlBench()) {
        if (t.name == name)
            return t;
        if (!valid.empty())
            valid += ", ";
        valid += t.name;
    }
    PRIME_FATAL("unknown MlBench benchmark: ", name,
                " (valid names: ", valid, ")");
}

} // namespace prime::nn
