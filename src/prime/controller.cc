#include "prime/controller.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/telemetry/trace_session.hh"
#include "common/thread_pool.hh"

namespace prime::core {

PrimeController::PrimeController(const nvmodel::TechParams &tech,
                                 memory::MainMemory *mem,
                                 std::vector<FfSubarray> *ff_subarrays,
                                 BufferSubarray *buffer, StatGroup *stats)
    : tech_(tech), mem_(mem), ff_(ff_subarrays), buffer_(buffer),
      commandsStat_(&stats->get("controller.commands")),
      cfgFunction_(&stats->get("controller.cfg_function")),
      fetchBytes_(&stats->get("controller.fetch_bytes")),
      commitBytes_(&stats->get("controller.commit_bytes")),
      loadBytes_(&stats->get("controller.load_bytes")),
      storeBytes_(&stats->get("controller.store_bytes")),
      matMvms_(&stats->get("controller.mat_mvms"))
{
    PRIME_ASSERT(mem_ && ff_ && buffer_, "controller wiring incomplete");
    const nvmodel::Geometry &g = tech.geometry;
    PRIME_ASSERT(static_cast<std::size_t>(g.matRows) <= kFfOutputOffset &&
                     2 * static_cast<std::size_t>(g.matCols) <=
                         kFfMatStride - kFfOutputOffset,
                 "a ", g.matRows, "x", g.matCols,
                 " mat overflows its FF address window");
    work_.resize(static_cast<std::size_t>(ff_->size()) *
                 g.matsPerSubarray);
}

void
PrimeController::setAnalogCompute(bool analog,
                                  std::optional<std::uint64_t> bank_seed)
{
    analog_ = analog;
    noise_.clear();
    if (!bank_seed)
        return;
    noise_.reserve(work_.size());
    for (std::size_t m = 0; m < work_.size(); ++m)
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

const reram::ComposedMatrixEngine &
PrimeController::computeEngine(int global_mat)
{
    FfMat &m = mat(global_mat);
    PRIME_ASSERT(m.mode() == FfMode::Computation,
                 "computeMat on a memory-mode mat");
    return m.engine();
}

PrimeController::MatWork &
PrimeController::matAt(std::uint64_t ff_addr)
{
    const std::uint64_t mat_idx = ff_addr / kFfMatStride;
    PRIME_ASSERT(mat_idx < work_.size(), "FF addr out of range");
    return work_[mat_idx];
}

void
PrimeController::execute(const mapping::Command &command)
{
    using mapping::CommandOp;
    PRIME_SPAN(telemetry::globalTrace(), mapping::commandOpName(command.op),
               "controller");
    commandsStat_->increment();

    switch (command.op) {
      case CommandOp::SetMatFunction: {
        // prog/comp/mem function selection. Programming and morphing move
        // actual cell contents via PrimeSystem; the controller records
        // the datapath selection.
        cfgFunction_->increment();
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
        // Mem -> global row buffer -> Buffer subarray.  Data only: the
        // bursts' timing is recorded with the tape and replayed by
        // PrimeSystem's timing pass.
        mem_->readData(command.src,
                       buffer_->writeView(
                           static_cast<std::size_t>(command.dst),
                           command.bytes));
        fetchBytes_->add(command.bytes);
        break;
      }
      case CommandOp::Commit: {
        const std::span<const std::uint8_t> data = buffer_->read(
            static_cast<std::size_t>(command.src), command.bytes);
        mem_->writeData(command.dst, data);
        commitBytes_->add(command.bytes);
        break;
      }
      case CommandOp::Load: {
        // Buffer -> FF input latch.
        std::array<std::uint8_t, kFfOutputOffset> &latch =
            matAt(command.dst).latch;
        const std::size_t offset = command.dst % kFfMatStride;
        PRIME_ASSERT(offset + command.bytes <= latch.size(),
                     "load overruns the input latch");
        const std::span<const std::uint8_t> data = buffer_->read(
            static_cast<std::size_t>(command.src), command.bytes);
        std::copy(data.begin(), data.end(), latch.begin() + offset);
        loadBytes_->add(command.bytes);
        break;
      }
      case CommandOp::Store: {
        // FF output registers -> Buffer (two bytes per code).
        const MatWork &work = matAt(command.src);
        const std::span<const std::int64_t> out =
            std::span(work.outputs).last(work.cols);
        const std::span<std::uint8_t> data = buffer_->writeView(
            static_cast<std::size_t>(command.dst), 2 * out.size());
        for (std::size_t i = 0; i < out.size(); ++i) {
            const std::int16_t v = static_cast<std::int16_t>(out[i]);
            data[2 * i] = static_cast<std::uint8_t>(v & 0xff);
            data[2 * i + 1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
        }
        storeBytes_->add(static_cast<double>(data.size()));
        break;
      }
    }
}

void
PrimeController::count(const mapping::Command &command, std::uint64_t times)
{
    using mapping::CommandOp;
    commandsStat_->increment(times);
    const std::uint64_t bytes = command.bytes * times;
    switch (command.op) {
      case CommandOp::Fetch:
        fetchBytes_->add(static_cast<double>(bytes));
        buffer_->count(0, bytes);
        break;
      case CommandOp::Commit:
        commitBytes_->add(static_cast<double>(bytes));
        buffer_->count(bytes, 0);
        break;
      case CommandOp::Load:
        loadBytes_->add(static_cast<double>(bytes));
        buffer_->count(bytes, 0);
        break;
      case CommandOp::Store:
        storeBytes_->add(static_cast<double>(bytes));
        buffer_->count(0, bytes);
        break;
      default:
        PRIME_PANIC("count() takes data-flow commands, not ",
                    mapping::commandOpName(command.op));
    }
}

void
PrimeController::computeMatImpl(int global_mat,
                                std::span<const std::uint8_t> inputs)
{
    // On the thread-pool fan-out path this span lands on the worker's
    // own trace lane, giving the per-mat compute timeline.
    PRIME_SPAN(telemetry::globalTrace(), "ff.compute", "compute");
    const reram::ComposedMatrixEngine &engine = computeEngine(global_mat);
    const std::size_t idx = static_cast<std::size_t>(global_mat);
    MatWork &work = work_[idx];
    const std::size_t rows = static_cast<std::size_t>(engine.rows());
    PRIME_ASSERT(inputs.size() >= rows &&
                     std::ranges::equal(inputs.last(rows),
                                        std::span(work.latch).first(rows)),
                 "mat ", global_mat,
                 ": the last input vector is not the latched one");
    work.cols = static_cast<std::size_t>(engine.cols());
    work.outputs.resize(inputs.size() / rows * work.cols);
    if (analog_) {
        Rng *noise = noise_.empty() ? nullptr : &noise_[idx];
        engine.mvmAnalog(inputs, work.outputs, work.scratch, noise);
    } else {
        engine.mvmExact(inputs, work.outputs, work.scratch);
    }
}

void
PrimeController::computeMat(int global_mat)
{
    const std::span<const std::uint8_t> in = latch(global_mat).first(
        static_cast<std::size_t>(computeEngine(global_mat).rows()));
    computeMats(std::span(&global_mat, 1), std::span(&in, 1));
}

void
PrimeController::computeMats(
    std::span<const int> global_mats,
    std::span<const std::span<const std::uint8_t>> inputs)
{
    PRIME_SPAN(telemetry::globalTrace(), "ff.compute_fanout", "compute");
    PRIME_ASSERT(inputs.size() == global_mats.size(), "inputs for ",
                 inputs.size(), " of ", global_mats.size(), " mats");
    // Each mat touches only its own latch, output register, crossbar
    // planes, scratch and noise stream, so results match any thread
    // count.
    auto fire = [&](std::size_t i) {
        computeMatImpl(global_mats[i], inputs[i]);
    };
    if (global_mats.size() == 1)
        fire(0);
    else  // One captured reference: the std::function stays inline.
        ThreadPool::global().parallelFor(
            global_mats.size(), [&fire](std::size_t i) { fire(i); });
    // Each fire's vector count: its codes over the register width.
    std::uint64_t vectors = 0;
    for (const int m : global_mats) {
        const MatWork &work = work_[static_cast<std::size_t>(m)];
        vectors += work.outputs.size() / work.cols;
    }
    matMvms_->increment(vectors);
}

std::span<const std::uint8_t>
PrimeController::latch(int global_mat) const
{
    PRIME_ASSERT(global_mat >= 0 &&
                     global_mat < static_cast<int>(work_.size()),
                 "mat ", global_mat);
    return work_[static_cast<std::size_t>(global_mat)].latch;
}

std::span<const std::int64_t>
PrimeController::outputCodes(int global_mat) const
{
    PRIME_ASSERT(global_mat >= 0 &&
                     global_mat < static_cast<int>(work_.size()),
                 "mat ", global_mat);
    return work_[static_cast<std::size_t>(global_mat)].outputs;
}

} // namespace prime::core
