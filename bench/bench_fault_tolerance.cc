/**
 * @file
 * ReRAM reliability study (supporting Section III-D's "practical
 * assumptions of the technologies"): classification accuracy of the
 * PRIME-quantized network under
 *
 *   1. stuck-at cell faults (SA-HRS / SA-LRS) injected under the
 *      composing cell layout,
 *   2. conductance programming variation (the 1-3% closed-loop tuning
 *      residual of Alibart et al. [31]), and
 *   3. output read noise on the analog MVM (Dot-Product Engine noise
 *      study, Hu et al. [66]).
 *
 * The headline shapes: NN inference tolerates ~3% programming variation
 * (the paper's device assumption) with negligible loss, and accuracy
 * degrades gracefully until the fault rate reaches the percent range.
 */

#include <functional>
#include <iostream>

#include "common/table.hh"
#include "nn/dataset.hh"
#include "nn/quantized.hh"
#include "reram/composing.hh"

using namespace prime;

namespace {

double
meanOverTrials(int trials, const std::function<double(Rng &)> &fn)
{
    double acc = 0.0;
    for (int t = 0; t < trials; ++t) {
        Rng rng(1000 + t);
        acc += fn(rng);
    }
    return acc / trials;
}

} // namespace

int
main()
{
    std::cout << "\n=== PRIME reproduction: reliability study (faults / "
                 "variation / noise) ===\n\n";

    nn::Topology topo =
        nn::parseTopology("rel-mlp", "784-100-10", 1, 28, 28);
    nn::SyntheticMnist gen;
    std::vector<nn::Sample> train = gen.generate(800);
    std::vector<nn::Sample> test = gen.generate(250);
    Rng rng(4);
    nn::Network net = nn::buildNetwork(topo, rng);
    nn::Trainer::Options opt;
    opt.epochs = 5;
    opt.learningRate = 0.3;
    nn::Trainer::train(net, train, opt);

    nn::QuantizedOptions qopt;  // 6-bit inputs, 8-bit weights
    nn::QuantizedNetwork clean(topo, net, qopt);
    const double baseline = clean.accuracy(test);
    std::cout << "fault-free quantized accuracy: " << 100.0 * baseline
              << "%\n\n";

    // ---- 1. stuck-at faults ----------------------------------------
    Table faults({"cell fault rate", "faulty cells (of 4x79510)",
                  "accuracy", "loss vs clean"});
    for (double rate : {0.0, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2}) {
        reram::FaultModel model;
        model.cellFaultRate = rate;
        const double acc = meanOverTrials(3, [&](Rng &r) {
            nn::QuantizedNetwork faulty(topo, net, qopt);
            faulty.injectCellFaults(model, r);
            return faulty.accuracy(test);
        });
        faults.row()
            .cell(formatCompact(rate, 4))
            .cell(reram::expectedFaultyCells(
                static_cast<long long>(topo.totalSynapses()), model))
            .percentCell(acc)
            .percentCell(baseline - acc);
    }
    faults.print(std::cout, "Stuck-at cell faults (composing layout)");

    // ---- 2. programming variation ----------------------------------
    std::cout << '\n';
    Table var({"variation sigma", "accuracy", "loss vs clean"});
    for (double sigma : {0.0, 0.01, 0.03, 0.05, 0.10, 0.20}) {
        const double acc = meanOverTrials(3, [&](Rng &r) {
            nn::QuantizedNetwork noisy(topo, net, qopt);
            noisy.applyProgrammingVariation(sigma, r);
            return noisy.accuracy(test);
        });
        var.row()
            .percentCell(sigma)
            .percentCell(acc)
            .percentCell(baseline - acc);
    }
    var.print(std::cout,
              "Conductance programming variation [31] (paper assumes "
              "~3% in-array)");

    // ---- 3. analog read noise on the composed engine ----------------
    std::cout << '\n';
    reram::ComposingParams cp;
    reram::CrossbarParams xp;
    Table noise({"read noise sigma", "mean |code error|",
                 "worst |code error|"});
    for (double sigma : {0.0, 1e-5, 1e-4, 1e-3}) {
        reram::CrossbarParams nxp = xp;
        nxp.readNoiseSigma = sigma;
        reram::ComposedMatrixEngine engine(128, 16, cp, nxp);
        Rng wrng(9);
        std::vector<int> w(128 * 16);
        for (int &v : w)
            v = static_cast<int>(wrng.uniformInt(-255, 255));
        engine.programWeights(w);
        double sum_err = 0.0, worst = 0.0;
        int samples = 0;
        Rng nrng(10);
        reram::ComposedMatrixEngine::MvmScratch scratch;
        std::vector<std::int64_t> ideal(16), noisy(16);
        for (int trial = 0; trial < 50; ++trial) {
            std::vector<std::uint8_t> in(128);
            for (std::uint8_t &v : in)
                v = static_cast<std::uint8_t>(wrng.uniformInt(0, 63));
            engine.mvmExact(in, ideal, scratch);
            engine.mvmAnalog(in, noisy, scratch, &nrng);
            for (int c = 0; c < 16; ++c) {
                const double err = std::abs(
                    static_cast<double>(noisy[c] - ideal[c]));
                sum_err += err;
                worst = std::max(worst, err);
                ++samples;
            }
        }
        noise.row()
            .cell(formatCompact(sigma, 5))
            .cell(sum_err / samples, 3)
            .cell(worst, 1);
    }
    noise.print(std::cout,
                "Analog read noise at the SA, 128x16 composed engine "
                "(code units) [66]");

    std::cout << "\nshapes: ~3% programming variation costs little "
                 "accuracy (the paper's operating point);\nstuck-at "
                 "faults degrade gracefully below ~1% and sharply "
                 "beyond; read noise below 1e-4 of\nfull scale leaves "
                 "codes intact.\n";
    return 0;
}
