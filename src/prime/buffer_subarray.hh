/**
 * @file
 * Buffer subarray (paper Section III-B): the Mem subarray adjacent to
 * the FF subarrays, repurposed as an input/output staging buffer.  The
 * connection unit gives the FF subarrays random access to any buffer
 * location without touching the global data lines, so the CPU and FF
 * computation proceed in parallel.
 */

#ifndef PRIME_PRIME_BUFFER_SUBARRAY_HH
#define PRIME_PRIME_BUFFER_SUBARRAY_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/stats.hh"
#include "nvmodel/tech_params.hh"

namespace prime::core {

/**
 * The byte-addressable staging buffer of one bank.  Transfers are span
 * views into the buffer's own storage: a read or write copies nothing
 * and allocates nothing, and every byte it covers is accounted in the
 * buffer.read_bytes / buffer.write_bytes stats, bound once at
 * construction.
 */
class BufferSubarray
{
  public:
    /** @p stats (required) receives the buffer.* stats. */
    BufferSubarray(const nvmodel::TechParams &tech, StatGroup *stats);

    /** Capacity in bytes (one subarray of SLC mats). */
    std::size_t capacity() const { return data_.size(); }

    /**
     * Write access to @p size bytes at @p addr, accounted as written:
     * the caller fills the returned view (the connection unit on the
     * FF side, the row buffer on the memory side).
     */
    std::span<std::uint8_t> writeView(std::size_t addr, std::size_t size);

    /** Write @p bytes at @p addr (a copy through writeView). */
    void write(std::size_t addr, std::span<const std::uint8_t> bytes);

    /** Read @p size bytes at @p addr: a view valid until the next write. */
    std::span<const std::uint8_t> read(std::size_t addr,
                                       std::size_t size) const;

    /**
     * Account @p read_bytes read and @p write_bytes written by transfers
     * whose data the caller does not move (a later transfer of the same
     * bytes supersedes them, see PrimeController::count).
     */
    void count(std::uint64_t read_bytes, std::uint64_t write_bytes);

    /** Bytes moved through the buffer so far (both directions). */
    std::uint64_t
    trafficBytes() const
    {
        return static_cast<std::uint64_t>(readBytes_->sum() +
                                          writeBytes_->sum());
    }

  private:
    std::vector<std::uint8_t> data_;
    /** buffer.read_bytes / buffer.write_bytes. */
    Stat *readBytes_;
    Stat *writeBytes_;
};

} // namespace prime::core

#endif // PRIME_PRIME_BUFFER_SUBARRAY_HH
