/**
 * @file
 * Deterministic discrete-event simulation core.
 *
 * The EventQueue orders events by (tick, insertion sequence): two events
 * scheduled for the same tick fire in the order they were scheduled.
 * This makes the whole simulation reproducible regardless of heap
 * internals or container iteration order.
 *
 * Layout: the heap itself holds only 24-byte POD nodes (tick, seq,
 * handle), so sift operations move three words and stay in cache; the
 * std::function callbacks live in a slot slab addressed by the handle.
 * Handles encode (generation << 32 | slot + 1), so cancellation is an
 * O(1) generation bump -- a stale heap node is recognized and skipped
 * when it surfaces -- and kNoEvent (0) can never collide with a live
 * handle. Slots are recycled through a free list, so a steady-state
 * simulation allocates no memory per event.
 *
 * Beside the heap runs one fixed-delay FIFO lane. Every lane event
 * fires the same handler exactly laneDelay cycles after it was
 * scheduled, and it draws its seq from the same counter as heap
 * events. Since curTick never decreases, lane events leave in the
 * order they were scheduled, so the lane is sorted by (tick, seq)
 * without any heap work; run() merges its front with the heap top by
 * (tick, seq). A lane event therefore executes at exactly the place a
 * scheduleIn(laneDelay, ...) event would, at O(1) cost and with no
 * callback object, slot or heap node.
 */

#ifndef BFGTS_SIM_EVENT_QUEUE_H
#define BFGTS_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.h"

namespace sim {

class AuditEngine;
class Profiler;

/** Callback type for scheduled events. */
using EventFn = std::function<void()>;

/** Handler of the fixed-delay lane; receives the event's token. */
using LaneFn = std::function<void(std::uint32_t)>;

/** Handle used to cancel a scheduled event (generation | slot + 1). */
using EventId = std::uint64_t;

/** Sentinel EventId meaning "no event". */
constexpr EventId kNoEvent = 0;

/**
 * A deterministic event queue driving simulated time forward.
 *
 * Usage: schedule() callbacks at absolute ticks or schedule relative to
 * now with scheduleIn(), then run() until the queue drains (or a bound
 * is hit). Event callbacks may schedule further events.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param when  Absolute tick; must be >= curTick().
     * @param fn    Callback to invoke.
     * @return Handle usable with deschedule().
     */
    EventId schedule(Tick when, EventFn fn);

    /** Schedule a callback @p delay cycles from now. */
    EventId
    scheduleIn(Cycles delay, EventFn fn)
    {
        return schedule(curTick_ + delay, std::move(fn));
    }

    /**
     * Install the fixed-delay lane: lane events fire @p fn with their
     * token @p delay cycles after scheduleLane(). Call once, before the
     * first scheduleLane().
     */
    void setLane(Cycles delay, LaneFn fn);

    /**
     * Schedule the lane handler for @p token laneDelay cycles from now.
     * It fires exactly where scheduleIn(laneDelay, ...) would, in
     * (tick, seq) order with every other event. Lane events have no
     * handle and cannot be cancelled.
     */
    void scheduleLane(std::uint32_t token);

    /**
     * Cancel a previously scheduled event.
     *
     * Cancelling an already-fired or already-cancelled event is a no-op.
     * @return true if the event was pending and is now cancelled.
     */
    bool deschedule(EventId id);

    /**
     * Run events until the queue is empty or limits are reached.
     *
     * @param max_tick    Stop before executing events after this tick.
     * @param max_events  Safety bound on number of events executed;
     *                    exceeding it is a panic (runaway simulation).
     * @return Number of events executed.
     */
    std::uint64_t run(Tick max_tick = kMaxTick,
                      std::uint64_t max_events = kDefaultMaxEvents);

    /** True if no events are pending. */
    bool empty() const { return size() == 0; }

    /** Number of pending (non-cancelled) events, lane events included. */
    std::size_t size() const { return live_ + laneCount_; }

    /** Safety bound: panic if a run exceeds this many events. */
    static constexpr std::uint64_t kDefaultMaxEvents = 50'000'000'000ULL;

    /**
     * Attach the invariant auditor (borrowed, may be null). When
     * checking is active, schedule() reports past-scheduling through
     * the engine ("event.monotonic") instead of asserting, and run()
     * verifies the executed (tick, seq) order is strictly increasing
     * ("event.tiebreak").
     */
    void setAudit(AuditEngine *audit) { audit_ = audit; }

    /**
     * Attach the host-performance profiler (borrowed, may be null).
     * When set, schedule() and run() charge heap work to the
     * event-queue wall-time phase, track the byte high-water of the
     * heap plus the callback slab, and report each executed event for
     * Perfetto counter sampling. Purely observational: simulated
     * behavior is unchanged.
     */
    void setProfiler(Profiler *profiler) { profiler_ = profiler; }

    /**
     * Test hook for the audit mutation selftest: rewind the insertion
     * sequence counter so a later-scheduled same-tick event executes
     * out of insertion order, which the tie-break check must catch.
     * Never call outside tests.
     */
    void testSetNextSeq(std::uint64_t seq) { nextSeq_ = seq; }

  private:
    /** Heap node: plain data only, three words per sift move. */
    struct HeapNode {
        Tick when;
        std::uint64_t seq;
        EventId id;
    };

    /** Lane node: the handler's token at its (when, seq). */
    struct LaneNode {
        Tick when;
        std::uint64_t seq;
        std::uint32_t token;
    };

    /** Slab slot owning a callback; gen invalidates stale handles. */
    struct Slot {
        EventFn fn;
        std::uint32_t gen = 0;
        bool live = false;
    };

    template <typename A, typename B>
    static bool
    earlier(const A &a, const B &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    void heapPush(const HeapNode &node);
    void heapPop();

    /** Take a free (or new) slot and move @p fn into it. */
    std::uint32_t acquireSlot(EventFn &&fn);
    /** Invalidate a slot's handle and recycle it. */
    void releaseSlot(std::uint32_t slot);

    static EventId
    encodeId(std::uint32_t slot, std::uint32_t gen)
    {
        return (static_cast<EventId>(gen) << 32)
             | (static_cast<EventId>(slot) + 1);
    }

    /** Slot index of @p id, or a value >= slots_.size() if invalid. */
    std::uint32_t
    slotOf(EventId id) const
    {
        return static_cast<std::uint32_t>(id & 0xffffffffULL) - 1;
    }

    /** True if @p id names the live scheduled event in its slot. */
    bool liveId(EventId id) const;

    /** Double the lane ring, keeping its FIFO order. */
    void growLane();

    /** Audit check that (@p when, @p seq) follows the last event. */
    void auditOrder(Tick when, std::uint64_t seq);

    /** Bytes held by the heap, the slab and the lane, for the
     *  profiler gauge. */
    std::size_t structBytes() const;

    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::size_t live_ = 0;
    AuditEngine *audit_ = nullptr;
    Profiler *profiler_ = nullptr;
    /** Last executed (tick, seq), for the tie-break order check. */
    Tick lastExecWhen_ = 0;
    std::uint64_t lastExecSeq_ = 0;
    bool anyExecuted_ = false;
    /** Binary min-heap over (when, seq). */
    std::vector<HeapNode> heap_;
    /** Callback slab; HeapNode.id points into it. */
    std::vector<Slot> slots_;
    /** Recycled slot indices. */
    std::vector<std::uint32_t> freeSlots_;
    /** Lane ring (power-of-two size), sorted by (when, seq). */
    std::vector<LaneNode> lane_;
    std::size_t laneHead_ = 0;
    std::size_t laneCount_ = 0;
    Cycles laneDelay_ = 0;
    LaneFn laneFn_;
};

} // namespace sim

#endif // BFGTS_SIM_EVENT_QUEUE_H
