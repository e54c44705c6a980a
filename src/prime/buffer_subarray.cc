#include "prime/buffer_subarray.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/telemetry/trace_session.hh"

namespace prime::core {

BufferSubarray::BufferSubarray(const nvmodel::TechParams &tech,
                               StatGroup *stats)
    : readBytes_(&stats->get("buffer.read_bytes")),
      writeBytes_(&stats->get("buffer.write_bytes"))
{
    const nvmodel::Geometry &g = tech.geometry;
    const std::size_t bytes_per_mat = static_cast<std::size_t>(g.matRows) *
                                      g.matCols * g.arraysPerFfMat / 8;
    data_.assign(bytes_per_mat * g.matsPerSubarray, 0);
}

std::span<std::uint8_t>
BufferSubarray::writeView(std::size_t addr, std::size_t size)
{
    PRIME_SPAN(telemetry::globalTrace(), "buffer.write", "buffer");
    PRIME_ASSERT(addr + size <= data_.size(),
                 "buffer write out of range: ", addr, "+", size, " > ",
                 data_.size());
    writeBytes_->add(static_cast<double>(size));
    return std::span<std::uint8_t>(data_).subspan(addr, size);
}

void
BufferSubarray::write(std::size_t addr, std::span<const std::uint8_t> bytes)
{
    const std::span<std::uint8_t> dst = writeView(addr, bytes.size());
    std::copy(bytes.begin(), bytes.end(), dst.begin());
}

void
BufferSubarray::count(std::uint64_t read_bytes, std::uint64_t write_bytes)
{
    readBytes_->add(static_cast<double>(read_bytes));
    writeBytes_->add(static_cast<double>(write_bytes));
}

std::span<const std::uint8_t>
BufferSubarray::read(std::size_t addr, std::size_t size) const
{
    PRIME_SPAN(telemetry::globalTrace(), "buffer.read", "buffer");
    PRIME_ASSERT(addr + size <= data_.size(),
                 "buffer read out of range: ", addr, "+", size);
    readBytes_->add(static_cast<double>(size));
    return std::span<const std::uint8_t>(data_).subspan(addr, size);
}

} // namespace prime::core
