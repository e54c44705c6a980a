#include "prime/ff_subarray.hh"

#include "common/logging.hh"
#include "common/telemetry/trace_session.hh"

namespace prime::core {

FfMat::FfMat(const nvmodel::TechParams &tech)
    : tech_(tech), slc_(memoryBytes(), 0)
{
}

std::size_t
FfMat::memoryBytes() const
{
    const nvmodel::Geometry &g = tech_.geometry;
    return static_cast<std::size_t>(g.matRows) * g.matCols *
           g.arraysPerFfMat / 8;
}

void
FfMat::writeMemory(std::size_t offset, const std::vector<std::uint8_t> &data)
{
    PRIME_ASSERT(mode_ == FfMode::Memory,
                 "memory write in computation mode");
    PRIME_ASSERT(offset + data.size() <= slc_.size(),
                 "write beyond mat: ", offset, "+", data.size());
    std::copy(data.begin(), data.end(), slc_.begin() + offset);
}

std::vector<std::uint8_t>
FfMat::readMemory(std::size_t offset, std::size_t size) const
{
    PRIME_ASSERT(mode_ == FfMode::Memory,
                 "memory read in computation mode");
    PRIME_ASSERT(offset + size <= slc_.size(),
                 "read beyond mat: ", offset, "+", size);
    return std::vector<std::uint8_t>(slc_.begin() + offset,
                                     slc_.begin() + offset + size);
}

std::vector<std::uint8_t>
FfMat::morphToCompute(std::span<const int> weights, int rows, int cols,
                      Rng *rng)
{
    PRIME_SPAN(telemetry::globalTrace(), "ff.morph_to_compute", "morph");
    PRIME_ASSERT(mode_ == FfMode::Memory,
                 "mat already in computation mode");
    PRIME_ASSERT(rows > 0 && cols > 0, "empty weights");
    PRIME_ASSERT(rows <= tech_.geometry.matRows &&
                     cols <= tech_.geometry.matCols,
                 "tile ", rows, "x", cols, " exceeds mat geometry");

    // Step 1 of the morphing protocol: hand resident data to the caller
    // for migration into Mem subarrays.
    std::vector<std::uint8_t> migrated = std::move(slc_);
    slc_.clear();

    // Step 2: program the synaptic weights.
    reram::ComposingParams cp;
    cp.inputBits = tech_.inputBits;
    cp.inputPhaseBits = tech_.inputPhaseBits;
    cp.weightBits = tech_.weightBits;
    cp.cellBits = tech_.cellBits;
    cp.outputBits = tech_.outputBits;
    reram::CrossbarParams xp;
    xp.device = tech_.device;
    engine_ = std::make_unique<reram::ComposedMatrixEngine>(rows, cols, cp,
                                                            xp);
    engine_->programWeights(weights, rng);

    // Step 3: peripheral reconfiguration.
    mode_ = FfMode::Computation;
    return migrated;
}

void
FfMat::morphToMemory()
{
    PRIME_SPAN(telemetry::globalTrace(), "ff.morph_to_memory", "morph");
    PRIME_ASSERT(mode_ == FfMode::Computation,
                 "mat already in memory mode");
    engine_.reset();
    slc_.assign(memoryBytes(), 0);
    mode_ = FfMode::Memory;
}

const reram::ComposedMatrixEngine &
FfMat::engine() const
{
    PRIME_ASSERT(engine_ != nullptr, "mat is not in computation mode");
    return *engine_;
}

reram::ComposedMatrixEngine &
FfMat::engine()
{
    PRIME_ASSERT(engine_ != nullptr, "mat is not in computation mode");
    return *engine_;
}

FfSubarray::FfSubarray(const nvmodel::TechParams &tech) : tech_(tech)
{
    mats_.reserve(static_cast<std::size_t>(tech.geometry.matsPerSubarray));
    for (int i = 0; i < tech.geometry.matsPerSubarray; ++i)
        mats_.emplace_back(tech);
}

FfMat &
FfSubarray::mat(int index)
{
    PRIME_ASSERT(index >= 0 && index < matCount(), "mat ", index);
    return mats_[static_cast<std::size_t>(index)];
}

const FfMat &
FfSubarray::mat(int index) const
{
    PRIME_ASSERT(index >= 0 && index < matCount(), "mat ", index);
    return mats_[static_cast<std::size_t>(index)];
}

int
FfSubarray::computeMats() const
{
    int n = 0;
    for (const FfMat &m : mats_)
        if (m.mode() == FfMode::Computation)
            ++n;
    return n;
}

std::size_t
FfSubarray::memoryModeBytes() const
{
    std::size_t bytes = 0;
    for (const FfMat &m : mats_)
        if (m.mode() == FfMode::Memory)
            bytes += m.memoryBytes();
    return bytes;
}

} // namespace prime::core
