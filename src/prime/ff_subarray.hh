/**
 * @file
 * Full-function (FF) subarray: the morphable ReRAM structure at the heart
 * of PRIME (paper Section III-A).  Each FF subarray holds a row of mats;
 * a mat either stores SLC data (memory mode) or holds a programmed
 * ComposedMatrixEngine executing NN MVMs (computation mode).
 */

#ifndef PRIME_PRIME_FF_SUBARRAY_HH
#define PRIME_PRIME_FF_SUBARRAY_HH

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "nvmodel/tech_params.hh"
#include "reram/composing.hh"

namespace prime::core {

/** Operating mode of a morphable FF mat. */
enum class FfMode { Memory, Computation };

/** One morphable mat. */
class FfMat
{
  public:
    explicit FfMat(const nvmodel::TechParams &tech);

    FfMode mode() const { return mode_; }

    /** SLC storage capacity in memory mode. */
    std::size_t memoryBytes() const;

    /** Memory-mode write (must be in memory mode). */
    void writeMemory(std::size_t offset,
                     const std::vector<std::uint8_t> &data);

    /** Memory-mode read. */
    std::vector<std::uint8_t> readMemory(std::size_t offset,
                                         std::size_t size) const;

    /**
     * Morph to computation mode: returns the SLC contents that must be
     * migrated to Mem subarrays, then programs the engine with the
     * @p rows x @p cols signed logical weights in @p weights, row-major
     * (rows x cols <= mat geometry).
     */
    std::vector<std::uint8_t> morphToCompute(std::span<const int> weights,
                                             int rows, int cols,
                                             Rng *rng = nullptr);

    /** Morph back to memory mode (wrap-up step); storage starts zeroed. */
    void morphToMemory();

    /** The compute engine (computation mode only). */
    const reram::ComposedMatrixEngine &engine() const;
    reram::ComposedMatrixEngine &engine();

    /** Datapath configuration bits (Table I bypass commands). */
    void setBypassSigmoid(bool bypass) { bypassSigmoid_ = bypass; }
    bool bypassSigmoid() const { return bypassSigmoid_; }
    void setBypassSa(bool bypass) { bypassSa_ = bypass; }
    bool bypassSa() const { return bypassSa_; }
    void setInputFromBuffer(bool from_buffer)
    {
        inputFromBuffer_ = from_buffer;
    }
    bool inputFromBuffer() const { return inputFromBuffer_; }

  private:
    nvmodel::TechParams tech_;
    FfMode mode_ = FfMode::Memory;
    std::vector<std::uint8_t> slc_;
    std::unique_ptr<reram::ComposedMatrixEngine> engine_;
    bool bypassSigmoid_ = true;
    bool bypassSa_ = false;
    bool inputFromBuffer_ = true;
};

/** A row of FF mats with shared accounting. */
class FfSubarray
{
  public:
    explicit FfSubarray(const nvmodel::TechParams &tech);

    int matCount() const { return static_cast<int>(mats_.size()); }
    FfMat &mat(int index);
    const FfMat &mat(int index) const;

    /** Mats currently in computation mode. */
    int computeMats() const;

    /** Aggregate SLC bytes currently serving as normal memory. */
    std::size_t memoryModeBytes() const;

  private:
    nvmodel::TechParams tech_;
    std::vector<FfMat> mats_;
};

} // namespace prime::core

#endif // PRIME_PRIME_FF_SUBARRAY_HH
