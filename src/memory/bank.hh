/**
 * @file
 * Timing state machine of one ReRAM bank (performance-optimized ReRAM
 * main memory after Xu et al. [20], parameters from Table IV).
 *
 * The bank keeps one open row (global row buffer); accesses to the open
 * row pay tCL, others pay precharge + activate + column access.  ReRAM's
 * long writes are captured by tWR write recovery occupying the bank.
 */

#ifndef PRIME_MEMORY_BANK_HH
#define PRIME_MEMORY_BANK_HH

#include <algorithm>
#include <cstdint>

#include "nvmodel/tech_params.hh"

namespace prime::memory {

/** Outcome of one bank access. */
struct BankAccess
{
    /** When the bank actually started serving the access. */
    Ns start = 0.0;
    /** When data is available at the bank / write is accepted. */
    Ns complete = 0.0;
    /** When the bank can accept the next access. */
    Ns bankFree = 0.0;
    /** Whether the open row matched. */
    bool rowHit = false;
};

/** One bank's timing state (open-page policy: a row stays open until
 *  another row of the bank is accessed). */
class BankModel
{
  public:
    explicit BankModel(const nvmodel::TimingParams &timing)
        : timing_(timing)
    {}

    /**
     * Serve a read or write to @p row at or after @p when; updates the
     * open row and busy horizon.  Row tags are 64-bit: the tag encodes
     * row x subarray x mat (MemoryController::rowTag), and a 32-bit
     * tag silently aliases wordlines on large configured geometries,
     * inflating the row-hit rate.  Inline: the timing pass calls it
     * once per burst.
     */
    BankAccess
    access(Ns when, std::int64_t row, bool is_write)
    {
        BankAccess result;
        result.start = std::max(when, nextFree_);
        result.rowHit = (openRow_ == row);

        Ns latency = 0.0;
        if (!result.rowHit) {
            // Precharge the old row (if any) and activate the new one.
            if (openRow_ >= 0)
                latency += timing_.tRp;
            latency += timing_.tRcd;
            ++rowMisses_;
        } else {
            ++rowHits_;
        }
        // Bank-internal write-to-read turnaround.
        if (!is_write && lastWasWrite_)
            latency += timing_.tWtr;
        latency += timing_.tCl;

        result.complete = result.start + latency;
        // ReRAM's slow writes occupy the bank for the write-recovery
        // window after the data burst; reads free the bank at
        // completion.
        result.bankFree = result.complete + (is_write ? timing_.tWr : 0.0);
        openRow_ = row;
        nextFree_ = result.bankFree;
        lastWasWrite_ = is_write;
        return result;
    }

    /** Currently open row (-1 before the first access). */
    std::int64_t openRow() const { return openRow_; }

    /** Earliest time the bank can start a new access. */
    Ns nextFree() const { return nextFree_; }

    std::uint64_t rowHits() const { return rowHits_; }
    std::uint64_t rowMisses() const { return rowMisses_; }

    /**
     * Zero the hit/miss counters (post-warm-up stat reset).  Timing
     * state (open row, busy horizon) is deliberately kept: the bank
     * stays physically warm, only the accounting restarts.
     */
    void
    resetCounters()
    {
        rowHits_ = 0;
        rowMisses_ = 0;
    }

  private:
    nvmodel::TimingParams timing_;
    bool lastWasWrite_ = false;
    std::int64_t openRow_ = -1;
    Ns nextFree_ = 0.0;
    std::uint64_t rowHits_ = 0;
    std::uint64_t rowMisses_ = 0;
};

} // namespace prime::memory

#endif // PRIME_MEMORY_BANK_HH
