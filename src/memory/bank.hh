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

/** Row-buffer management policy. */
enum class PagePolicy
{
    Open,    ///< leave the row open (bets on locality)
    Closed,  ///< auto-precharge after every access (bets against it)
};

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

/** One bank's timing state. */
class BankModel
{
  public:
    explicit BankModel(const nvmodel::TimingParams &timing,
                       PagePolicy policy = PagePolicy::Open)
        : timing_(timing), policy_(policy)
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
            // Precharge the old row (if any) and activate the new one;
            // a closed-page bank precharged eagerly, so only activation
            // is on the critical path.
            if (openRow_ >= 0 && policy_ == PagePolicy::Open)
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

        if (policy_ == PagePolicy::Closed) {
            // Auto-precharge off the critical path of this access.
            openRow_ = -1;
            nextFree_ = result.bankFree + timing_.tRp;
        } else {
            openRow_ = row;
            nextFree_ = result.bankFree;
        }
        lastWasWrite_ = is_write;
        return result;
    }

    /** Currently open row (-1 when closed). */
    std::int64_t openRow() const { return openRow_; }

    /** Earliest time the bank can start a new access. */
    Ns nextFree() const { return nextFree_; }

    /** Close the open row (used when a subarray morphs modes). */
    void precharge();

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

    PagePolicy policy() const { return policy_; }

  private:
    nvmodel::TimingParams timing_;
    PagePolicy policy_;
    bool lastWasWrite_ = false;
    std::int64_t openRow_ = -1;
    Ns nextFree_ = 0.0;
    std::uint64_t rowHits_ = 0;
    std::uint64_t rowMisses_ = 0;
};

} // namespace prime::memory

#endif // PRIME_MEMORY_BANK_HH
