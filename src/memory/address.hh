/**
 * @file
 * Physical address decomposition for the PRIME ReRAM main memory.
 *
 * Channel interleave first: consecutive 64-byte lines of the flat
 * physical address space rotate across the configured channels, so a
 * streaming access pattern loads every channel's data bus evenly.  The
 * per-channel remainder then decomposes hierarchically (high to low):
 * row | bank | chip | subarray | mat | column-burst.  Putting
 * bank/chip bits below the row bits interleaves consecutive
 * within-channel rows across banks for parallelism, while Section
 * IV-B2's bank-aware data placement uses pageBank() to pin one image
 * per bank.
 */

#ifndef PRIME_MEMORY_ADDRESS_HH
#define PRIME_MEMORY_ADDRESS_HH

#include <cstdint>

#include "nvmodel/tech_params.hh"

namespace prime::memory {

/** Decoded location of a physical address. */
struct Location
{
    int channel = 0;     ///< memory channel (line-interleaved)
    int chip = 0;        ///< chip within the channel
    int bank = 0;        ///< bank within the chip
    int globalBank = 0;  ///< channel * banksPerChannel + chip * banksPerChip + bank
    int subarray = 0;
    int mat = 0;
    int row = 0;
    int column = 0;      ///< byte offset within the mat row
};

/**
 * Maps physical byte addresses to memory coordinates and back.  The
 * mapping is exact with respect to the configured geometry: mats hold
 * matRows x matCols x arraysPerFfMat SLC bits in memory mode.
 */
class AddressMapper
{
  public:
    /** Channel-interleave granularity (one DDR burst / cache line). */
    static constexpr std::uint64_t kLineBytes = 64;

    explicit AddressMapper(const nvmodel::Geometry &geometry);

    /** Decode an address; asserts it is within capacity. */
    Location decode(std::uint64_t addr) const;

    /**
     * Step @p loc, the decode of some address a, to the decode of
     * a + kLineBytes without dividing: rotate the channel, and on each
     * full rotation carry the 64 bytes through column -> mat ->
     * subarray -> bank -> row.  The caller keeps a + kLineBytes within
     * capacity.  This is how a transfer decodes its bursts after the
     * first.
     */
    void stepLine(Location &loc) const;

    /** Inverse of decode (used by tests as a round-trip invariant). */
    std::uint64_t encode(const Location &loc) const;

    /** Channel serving the 64B line of @p addr (cheap partial decode). */
    int
    channelOf(std::uint64_t addr) const
    {
        return static_cast<int>((addr / kLineBytes) %
                                static_cast<std::uint64_t>(
                                    geometry_.channels));
    }

    /** Bytes stored per mat (memory mode, SLC). */
    std::uint64_t bytesPerMat() const { return bytesPerMat_; }

    /** Bytes stored per mat row (one wordline across the mat's arrays). */
    std::uint64_t bytesPerMatRow() const { return bytesPerMatRow_; }

    /** Bytes per subarray. */
    std::uint64_t bytesPerSubarray() const
    {
        return bytesPerMat_ * geometry_.matsPerSubarray;
    }

    /** Bytes per bank. */
    std::uint64_t bytesPerBank() const
    {
        return bytesPerSubarray() * geometry_.subarraysPerBank;
    }

    /** Bytes behind one channel's controller. */
    std::uint64_t bytesPerChannel() const
    {
        return bytesPerBank() * geometry_.banksPerChannel();
    }

    /** Total modeled capacity (geometry-derived, <= nominal capacity). */
    std::uint64_t capacityBytes() const
    {
        return bytesPerBank() * geometry_.totalBanks();
    }

    /**
     * Global bank the first line of an OS page (4 KiB) resides in
     * (Section IV-B2).  On a single channel the whole page shares that
     * bank; with channel interleaving a page stripes across channels
     * and this names the bank-aware placement anchor.
     */
    int pageBank(std::uint64_t page_number) const;

    const nvmodel::Geometry &geometry() const { return geometry_; }

  private:
    nvmodel::Geometry geometry_;
    std::uint64_t bytesPerMatRow_;
    std::uint64_t bytesPerMat_;
};

} // namespace prime::memory

#endif // PRIME_MEMORY_ADDRESS_HH
