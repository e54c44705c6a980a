/**
 * @file
 * In-situ training extension (paper Section IV-A: "we plan to further
 * enhance PRIME with the training capability in future work", citing
 * the mixed-signal training literature [70]-[74]).
 *
 * The scheme follows Li et al. [72] ("Training itself: mixed-signal
 * training acceleration"): the *forward* pass runs on the programmed
 * crossbars through the composing datapath; gradients and weight
 * updates are computed digitally against a float shadow copy; the
 * crossbars are *reprogrammed in batches* so the expensive write-verify
 * MLC programming (and cell wear) is amortized over many samples --
 * write-verify skips cells whose target level did not change.
 *
 * The trainer accounts for every reprogramming event: cells rewritten
 * (endurance wear), programming energy and programming time, so the
 * endurance budget of training-on-PRIME can be evaluated.
 */

#ifndef PRIME_PRIME_TRAINING_HH
#define PRIME_PRIME_TRAINING_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/fixed_point.hh"
#include "common/rng.hh"
#include "nn/topology.hh"
#include "nvmodel/energy_model.hh"
#include "nvmodel/latency_model.hh"
#include "reram/composing.hh"

namespace prime::core {

/** In-situ training configuration. */
struct InSituOptions
{
    double learningRate = 0.1;
    /** Samples between crossbar reprogramming events. */
    int reprogramBatch = 16;
    /** Programming variation applied at each reprogram (0 = ideal). */
    double programVariation = 0.0;
};

/**
 * Trains a fully-connected network whose weighted layers live in
 * ComposedMatrixEngines (one per FC layer, as the mapper would place
 * them on FF mats).
 */
class InSituTrainer
{
  public:
    /**
     * @param topology FC-only topology (conv rejected)
     * @param tech     composing bit widths + device parameters
     */
    InSituTrainer(const nn::Topology &topology,
                  const nvmodel::TechParams &tech,
                  const InSituOptions &options, Rng &rng);

    /** One SGD epoch; returns the mean cross-entropy loss. */
    double trainEpoch(const std::vector<nn::Sample> &samples);

    /** Accuracy with inference through the crossbars. */
    double evaluate(const std::vector<nn::Sample> &samples);

    /** Forward through the crossbar engines; returns logits. */
    nn::Tensor forward(const nn::Tensor &input);

    // ------------------------------------------------ accounting -----

    /** Crossbar cells rewritten so far (wear events). */
    std::uint64_t cellsReprogrammed() const { return cellsReprogrammed_; }
    /** Reprogramming events (batched updates). */
    std::uint64_t reprogramEvents() const { return reprogramEvents_; }
    /** Modeled energy spent on weight programming. */
    PicoJoule programmingEnergy() const;
    /** Modeled time spent on weight programming. */
    Ns programmingTime() const;
    /** Worst per-cell wear across all layers (endurance proxy). */
    std::uint64_t maxCellWear() const;

  private:
    struct TrainLayer
    {
        nn::LayerSpec spec;
        /** Float shadow weights (row-major [out][in]) and bias. */
        std::vector<double> shadowW, shadowB;
        std::vector<double> gradW, gradB;
        /** The crossbar engine holding the quantized weights. */
        std::unique_ptr<reram::ComposedMatrixEngine> engine;
        /** The engine's input codes, MVM working memory and target
         *  codes, reused across forward passes. */
        std::vector<std::uint8_t> codes;
        reram::ComposedMatrixEngine::MvmScratch scratch;
        std::vector<std::int64_t> targets;
        DfxFormat format;
        /** Cached activations for backprop. */
        std::vector<double> lastInput, lastPreAct, lastOutput;
        bool sigmoidAfter = false;
        bool reluAfter = false;
        bool lastLayer = false;
    };

    /** Quantize shadow weights and reprogram the engine. */
    void reprogram(TrainLayer &layer);

    /** Crossbar MVM of one layer on the current input activations. */
    std::vector<double> layerForward(TrainLayer &layer,
                                     const std::vector<double> &input);

    void applyGradients();

    nvmodel::TechParams tech_;
    InSituOptions options_;
    Rng *rng_;
    std::vector<TrainLayer> layers_;
    int sinceReprogram_ = 0;
    std::uint64_t cellsReprogrammed_ = 0;
    std::uint64_t reprogramEvents_ = 0;
    std::uint64_t programmedRows_ = 0;
};

} // namespace prime::core

#endif // PRIME_PRIME_TRAINING_HH
