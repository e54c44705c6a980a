#include "memory/address.hh"

#include "common/logging.hh"

namespace prime::memory {

AddressMapper::AddressMapper(const nvmodel::Geometry &geometry)
    : geometry_(geometry)
{
    // One mat row spans the mat's arrays: matCols bits per array, SLC.
    bytesPerMatRow_ = static_cast<std::uint64_t>(geometry.matCols) *
                      geometry.arraysPerFfMat / 8;
    bytesPerMat_ = bytesPerMatRow_ * geometry.matRows;
    PRIME_ASSERT(bytesPerMatRow_ > 0, "degenerate mat row");
    PRIME_ASSERT(geometry.channels >= 1,
                 "channels=", geometry.channels);
    // The line rotation is a bijection only when each channel holds a
    // whole number of interleave lines.
    PRIME_ASSERT(geometry.channels == 1 ||
                     bytesPerChannel() % kLineBytes == 0,
                 "per-channel capacity ", bytesPerChannel(),
                 " not a multiple of the ", kLineBytes,
                 "B interleave line");
}

Location
AddressMapper::decode(std::uint64_t addr) const
{
    PRIME_ASSERT(addr < capacityBytes(),
                 "address ", addr, " beyond capacity ", capacityBytes());
    Location loc;
    // Peel the channel rotation off first: line k of the flat space is
    // line k/channels of channel k%channels.
    std::uint64_t local = addr;
    if (geometry_.channels > 1) {
        const std::uint64_t line = addr / kLineBytes;
        const std::uint64_t channels =
            static_cast<std::uint64_t>(geometry_.channels);
        loc.channel = static_cast<int>(line % channels);
        local = (line / channels) * kLineBytes + addr % kLineBytes;
    }
    loc.column = static_cast<int>(local % bytesPerMatRow_);
    std::uint64_t rest = local / bytesPerMatRow_;
    loc.mat = static_cast<int>(rest % geometry_.matsPerSubarray);
    rest /= geometry_.matsPerSubarray;
    loc.subarray = static_cast<int>(rest % geometry_.subarraysPerBank);
    rest /= geometry_.subarraysPerBank;
    const int channel_bank =
        static_cast<int>(rest % geometry_.banksPerChannel());
    rest /= geometry_.banksPerChannel();
    loc.row = static_cast<int>(rest);
    loc.chip = channel_bank / geometry_.banksPerChip;
    loc.bank = channel_bank % geometry_.banksPerChip;
    loc.globalBank =
        loc.channel * geometry_.banksPerChannel() + channel_bank;
    return loc;
}

void
AddressMapper::stepLine(Location &loc) const
{
    // The next line lives on the next channel at the same local offset,
    // until the rotation wraps and the local offset moves one line on
    // (with one channel, every step wraps).
    if (++loc.channel == geometry_.channels) {
        loc.channel = 0;
        std::uint64_t column =
            static_cast<std::uint64_t>(loc.column) + kLineBytes;
        // A loop, not a branch: a mat row narrower than a line carries
        // more than once.
        while (column >= bytesPerMatRow_) {
            column -= bytesPerMatRow_;
            if (++loc.mat < geometry_.matsPerSubarray)
                continue;
            loc.mat = 0;
            if (++loc.subarray < geometry_.subarraysPerBank)
                continue;
            loc.subarray = 0;
            if (++loc.bank < geometry_.banksPerChip)
                continue;
            loc.bank = 0;
            if (++loc.chip < geometry_.chipsPerRank)
                continue;
            loc.chip = 0;
            ++loc.row;
        }
        loc.column = static_cast<int>(column);
    }
    loc.globalBank = loc.channel * geometry_.banksPerChannel() +
                     loc.chip * geometry_.banksPerChip + loc.bank;
}

std::uint64_t
AddressMapper::encode(const Location &loc) const
{
    const int channel_bank =
        loc.chip * geometry_.banksPerChip + loc.bank;
    std::uint64_t local = loc.row;
    local = local * geometry_.banksPerChannel() + channel_bank;
    local = local * geometry_.subarraysPerBank + loc.subarray;
    local = local * geometry_.matsPerSubarray + loc.mat;
    local = local * bytesPerMatRow_ + loc.column;
    if (geometry_.channels == 1)
        return local;
    // Invert the line rotation: local line k of channel c is flat line
    // k * channels + c.
    const std::uint64_t line = local / kLineBytes;
    return (line * geometry_.channels +
            static_cast<std::uint64_t>(loc.channel)) *
               kLineBytes +
           local % kLineBytes;
}

int
AddressMapper::pageBank(std::uint64_t page_number) const
{
    // A 4 KiB page spans 32 consecutive 128 B mat rows; on a single
    // channel the row-major layout keeps them in one bank.  Expose the
    // first line's bank to the OS as the placement anchor.
    const std::uint64_t addr = page_number * 4096ull;
    return decode(addr % capacityBytes()).globalBank;
}

} // namespace prime::memory
