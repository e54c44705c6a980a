/**
 * @file
 * A fixed-capacity multi-producer / single-consumer ring queue: the
 * serving engine's ingress primitive.  Any number of request threads
 * push concurrently; exactly one scheduler thread pops.  The ring
 * never allocates after construction.  A single-writer tail counter
 * cannot survive multiple producers, so publication rides on a
 * per-slot ticket instead (the bounded-MPMC idiom of Vyukov's queue,
 * restricted here to one consumer):
 *
 *  - Every slot carries a sequence counter.  A producer claims ticket
 *    t by CAS-advancing tail_ from t to t+1 -- legal only while the
 *    slot's sequence reads exactly t (slot free for lap t/capacity).
 *    The claim is slot-local: producers that claimed different tickets
 *    fill different slots with no further coordination.
 *  - The producer fully writes the slot, then publishes it with a
 *    release store of sequence = t+1.  The consumer's acquire load of
 *    the sequence is the matching edge: seeing t+1 guarantees the
 *    value is visible.
 *  - The consumer pops ticket h when the head slot's sequence reads
 *    h+1, moves the value out, and retires the slot with a release
 *    store of sequence = h+capacity -- the value producers of lap
 *    (h/capacity)+1 wait for before reusing the slot.  head_ itself
 *    has a single writer (the consumer) and is only read by
 *    approxSize(), so it stays relaxed.
 *  - tryPush fails (returning false, value untouched) when the target
 *    slot is still occupied a full lap later: the queue is full, the
 *    admission-control signal.  A slot mid-publication (claimed, not
 *    yet sequence-stamped) also reads as full to a producer a lap
 *    ahead; that conservative answer only occurs within one slot of
 *    capacity.
 *  - tryPop fails when the head slot's sequence still reads h: either
 *    the queue is empty or the head producer has not published yet --
 *    indistinguishable to the consumer, and both mean "nothing
 *    consumable now".
 *
 * Progress: tryPush is lock-free (a stalled producer can delay only
 * the slot it claimed, not other producers' slots; a full ring fails
 * fast), tryPop is wait-free.  Per-producer FIFO order holds: two
 * pushes by the same thread take increasing tickets, so they pop in
 * push order.  Cross-producer order is the ticket order, i.e. the
 * CAS-resolution order of concurrent pushes.
 */

#ifndef PRIME_COMMON_MPSC_RING_HH
#define PRIME_COMMON_MPSC_RING_HH

#include <atomic>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace prime {

/** Bounded lock-free MPSC FIFO of movable values. */
template <typename T>
class MpscRing
{
    // Values cross threads by move assignment ordered by each slot's
    // sequence ticket, never by memcpy, so trivial copyability is
    // deliberately NOT required (serve::Request carries a Tensor and a
    // std::function).
    static_assert(std::is_default_constructible_v<T>,
                  "MpscRing slots are preallocated empty");
    static_assert(std::is_move_constructible_v<T> &&
                      std::is_move_assignable_v<T>,
                  "MpscRing hands values across threads by move");

  public:
    /**
     * A ring holding up to @p capacity values.  A capacity below 2 is
     * rounded up: with a single slot the ticket scheme cannot tell
     * "occupied since lap 0" (sequence = 0+1) from "retired, free for
     * ticket 1" (sequence = 0+capacity = 1) -- the classic bounded-MPMC
     * minimum-size constraint.
     */
    explicit MpscRing(std::size_t capacity)
        : slots_(capacity < 2 ? 2 : capacity)
    {
        PRIME_ASSERT(capacity >= 1, "MPSC ring needs capacity >= 1");
        for (std::size_t i = 0; i < slots_.size(); ++i)
            slots_[i].sequence.store(i, std::memory_order_relaxed);
    }

    MpscRing(const MpscRing &) = delete;
    MpscRing &operator=(const MpscRing &) = delete;

    /** Values the ring can hold. */
    std::size_t capacity() const { return slots_.size(); }

    /**
     * Producer side (any thread): move @p value in and return true, or
     * return false (leaving @p value untouched) when the ring is full.
     */
    bool
    tryPush(T &&value)
    {
        std::size_t ticket = tail_.load(std::memory_order_relaxed);
        for (;;) {
            Slot &slot = slots_[ticket % slots_.size()];
            const std::size_t seq =
                slot.sequence.load(std::memory_order_acquire);
            const std::ptrdiff_t diff =
                static_cast<std::ptrdiff_t>(seq) -
                static_cast<std::ptrdiff_t>(ticket);
            if (diff == 0) {
                // Slot free for this lap: claim the ticket.  The CAS
                // carries no ordering duty (publication is the slot's
                // sequence store below), so relaxed suffices.
                if (tail_.compare_exchange_weak(
                        ticket, ticket + 1, std::memory_order_relaxed))
                {
                    slot.value = std::move(value);
                    slot.sequence.store(ticket + 1,
                                        std::memory_order_release);
                    return true;
                }
                // Lost the race; `ticket` was reloaded by the CAS.
            } else if (diff < 0) {
                return false;  // a full lap behind: the ring is full
            } else {
                // Another producer already claimed this ticket; chase
                // the current tail.
                ticket = tail_.load(std::memory_order_relaxed);
            }
        }
    }

    /**
     * Consumer side (exactly one thread): move the oldest value into
     * @p out and return true, or return false when nothing is
     * consumable (empty, or the head producer mid-publication).
     */
    bool
    tryPop(T &out)
    {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        Slot &slot = slots_[head % slots_.size()];
        const std::size_t seq =
            slot.sequence.load(std::memory_order_acquire);
        if (static_cast<std::ptrdiff_t>(seq) -
                static_cast<std::ptrdiff_t>(head + 1) <
            0)
            return false;
        out = std::move(slot.value);
        slot.value = T();  // drop resources before the slot idles
        slot.sequence.store(head + slots_.size(),
                            std::memory_order_release);
        head_.store(head + 1, std::memory_order_relaxed);
        return true;
    }

    /**
     * Lock-free occupancy estimate safe from any thread (the metrics
     * sampler's queue-depth probe).  Relaxed loads of two cursors that
     * may be observed at different moments, so the raw difference is
     * clamped to [0, capacity] and only approximate for non-owning
     * threads: a point-in-time estimate that never exceeds the
     * capacity, never goes negative and orders nothing.
     */
    std::size_t
    approxSize() const
    {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        const std::size_t raw = tail >= head ? tail - head : 0;
        return raw > capacity() ? capacity() : raw;
    }

    bool empty() const { return approxSize() == 0; }

  private:
    /** One slot: ticket-stamped value storage.  Cache-line aligned so
     *  producers publishing neighbouring tickets do not false-share. */
    struct alignas(64) Slot
    {
        std::atomic<std::size_t> sequence{0};
        T value{};
    };

    std::vector<Slot> slots_;
    /** Producer cursor: next ticket to claim (CAS-advanced). */
    alignas(64) std::atomic<std::size_t> tail_{0};
    /** Consumer cursor: next ticket to pop (single writer). */
    alignas(64) std::atomic<std::size_t> head_{0};
};

} // namespace prime

#endif // PRIME_COMMON_MPSC_RING_HH
