#include "prime/controller.hh"

#include "common/logging.hh"
#include "common/telemetry/trace_session.hh"
#include "common/thread_pool.hh"

namespace prime::core {

PrimeController::PrimeController(const nvmodel::TechParams &tech,
                                 memory::MainMemory *mem,
                                 std::vector<FfSubarray> *ff_subarrays,
                                 BufferSubarray *buffer, StatGroup *stats)
    : tech_(tech), mem_(mem), ff_(ff_subarrays), buffer_(buffer),
      stats_(stats)
{
    PRIME_ASSERT(mem_ && ff_ && buffer_, "controller wiring incomplete");
    const std::size_t mats = static_cast<std::size_t>(ff_->size()) *
                             tech.geometry.matsPerSubarray;
    latches_.resize(mats);
    outputs_.resize(mats);
}

void
PrimeController::setAnalogCompute(bool analog,
                                  std::optional<std::uint64_t> bank_seed)
{
    analog_ = analog;
    noise_.clear();
    if (!bank_seed)
        return;
    noise_.reserve(latches_.size());
    for (std::size_t m = 0; m < latches_.size(); ++m)
        noise_.emplace_back(streamSeed(*bank_seed, m));
}

FfMat &
PrimeController::mat(int global_mat)
{
    const int per = tech_.geometry.matsPerSubarray;
    const int sub = global_mat / per;
    PRIME_ASSERT(sub >= 0 && sub < static_cast<int>(ff_->size()),
                 "mat ", global_mat, " outside FF subarrays");
    return (*ff_)[static_cast<std::size_t>(sub)].mat(global_mat % per);
}

void
PrimeController::execute(const mapping::Command &command)
{
    using mapping::CommandOp;
    PRIME_SPAN(telemetry::globalTrace(), mapping::commandOpName(command.op),
               "controller");
    ++commands_;
    if (stats_)
        stats_->get("controller.commands").increment();

    switch (command.op) {
      case CommandOp::SetMatFunction: {
        // prog/comp/mem function selection. Programming and morphing move
        // actual cell contents via PrimeSystem; the controller records
        // the datapath selection.
        if (stats_)
            stats_->get("controller.cfg_function").increment();
        break;
      }
      case CommandOp::BypassSigmoid:
        mat(static_cast<int>(command.matAddr))
            .setBypassSigmoid(command.flag != 0);
        break;
      case CommandOp::BypassSa:
        mat(static_cast<int>(command.matAddr))
            .setBypassSa(command.flag != 0);
        break;
      case CommandOp::InputSource:
        mat(static_cast<int>(command.matAddr))
            .setInputFromBuffer(command.flag ==
                                static_cast<std::uint8_t>(
                                    mapping::InputSource::Buffer));
        break;
      case CommandOp::Fetch: {
        // Mem -> global row buffer -> Buffer subarray.  The payload
        // crosses the bank/channel model as timed 64B read bursts.
        mem_->scheduleBytes(command.src, command.bytes, false,
                            memory::RequestSource::Prime);
        std::vector<std::uint8_t> data =
            mem_->readData(command.src, command.bytes);
        buffer_->write(static_cast<std::size_t>(command.dst), data);
        if (stats_)
            stats_->get("controller.fetch_bytes").add(command.bytes);
        break;
      }
      case CommandOp::Commit: {
        std::vector<std::uint8_t> data = buffer_->read(
            static_cast<std::size_t>(command.src), command.bytes);
        mem_->scheduleBytes(command.dst, data.size(), true,
                            memory::RequestSource::Prime);
        mem_->writeData(command.dst, data);
        if (stats_)
            stats_->get("controller.commit_bytes").add(command.bytes);
        break;
      }
      case CommandOp::Load: {
        // Buffer -> FF input latch.
        const std::size_t mat_idx = command.dst / kFfMatStride;
        const std::size_t offset = command.dst % kFfMatStride;
        PRIME_ASSERT(mat_idx < latches_.size(), "FF addr out of range");
        PRIME_ASSERT(offset + command.bytes <= kFfOutputOffset,
                     "load overruns the input latch");
        std::vector<std::uint8_t> data = buffer_->read(
            static_cast<std::size_t>(command.src), command.bytes);
        std::vector<std::uint8_t> &latch = latches_[mat_idx];
        if (latch.size() < offset + command.bytes)
            latch.resize(offset + command.bytes, 0);
        std::copy(data.begin(), data.end(), latch.begin() + offset);
        if (stats_)
            stats_->get("controller.load_bytes").add(command.bytes);
        break;
      }
      case CommandOp::Store: {
        // FF output registers -> Buffer (two bytes per code).
        const std::size_t mat_idx = command.src / kFfMatStride;
        PRIME_ASSERT(mat_idx < outputs_.size(), "FF addr out of range");
        const std::vector<std::int64_t> &out = outputs_[mat_idx];
        std::vector<std::uint8_t> data(out.size() * 2);
        for (std::size_t i = 0; i < out.size(); ++i) {
            const std::int16_t v = static_cast<std::int16_t>(out[i]);
            data[2 * i] = static_cast<std::uint8_t>(v & 0xff);
            data[2 * i + 1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
        }
        buffer_->write(static_cast<std::size_t>(command.dst), data);
        if (stats_)
            stats_->get("controller.store_bytes").add(
                static_cast<double>(data.size()));
        break;
      }
    }
}

void
PrimeController::computeMatImpl(int global_mat)
{
    // On the thread-pool fan-out path this span lands on the worker's
    // own trace lane, giving the per-mat compute timeline.
    PRIME_SPAN(telemetry::globalTrace(), "ff.compute", "compute");
    FfMat &m = mat(global_mat);
    PRIME_ASSERT(m.mode() == reram::FfMode::Computation,
                 "computeMat on a memory-mode mat");
    const reram::ComposedMatrixEngine &engine = m.engine();
    const std::vector<std::uint8_t> &latch =
        latches_[static_cast<std::size_t>(global_mat)];
    PRIME_ASSERT(static_cast<int>(latch.size()) >= engine.rows(),
                 "latch underfilled: ", latch.size(), " < ",
                 engine.rows());
    std::vector<int> codes(static_cast<std::size_t>(engine.rows()));
    for (int r = 0; r < engine.rows(); ++r)
        codes[static_cast<std::size_t>(r)] =
            latch[static_cast<std::size_t>(r)];
    Rng *noise = noise_.empty()
                     ? nullptr
                     : &noise_[static_cast<std::size_t>(global_mat)];
    outputs_[static_cast<std::size_t>(global_mat)] =
        analog_ ? engine.mvmAnalog(codes, noise) : engine.mvmExact(codes);
}

void
PrimeController::computeMat(int global_mat)
{
    computeMatImpl(global_mat);
    if (stats_)
        stats_->get("controller.mat_mvms").increment();
}

void
PrimeController::computeMats(const std::vector<int> &global_mats)
{
    PRIME_SPAN(telemetry::globalTrace(), "ff.compute_fanout", "compute");
    // Each mat touches only its own latch, output register, crossbar
    // planes and noise stream, so results match any thread count.
    ThreadPool::global().parallelFor(global_mats.size(), [&](std::size_t i) {
        computeMatImpl(global_mats[i]);
    });
    if (stats_)
        stats_->get("controller.mat_mvms").increment(global_mats.size());
}

const std::vector<std::uint8_t> &
PrimeController::latch(int global_mat) const
{
    PRIME_ASSERT(global_mat >= 0 &&
                     global_mat < static_cast<int>(latches_.size()),
                 "mat ", global_mat);
    return latches_[static_cast<std::size_t>(global_mat)];
}

std::vector<std::int64_t>
PrimeController::outputCodes(int global_mat) const
{
    PRIME_ASSERT(global_mat >= 0 &&
                     global_mat < static_cast<int>(outputs_.size()),
                 "mat ", global_mat);
    return outputs_[static_cast<std::size_t>(global_mat)];
}

} // namespace prime::core
