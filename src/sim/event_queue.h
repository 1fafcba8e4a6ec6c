/**
 * @file
 * Deterministic discrete-event simulation core.
 *
 * The EventQueue orders events by (tick, insertion sequence): two events
 * scheduled for the same tick fire in the order they were scheduled.
 * This makes the whole simulation reproducible regardless of heap
 * internals or container iteration order.
 *
 * Events are typed, not closures: every event is one 24-byte POD node
 * {when, seq, kind, target}. The kind indexes a table of handlers that
 * each subsystem registers once with addKind() (the runner: worker
 * continuation and begin-stall poll; the OS scheduler: CPU dispatch
 * and delayed thread dispatch; the sampler: its tick), and the target
 * is the handler's argument. This file knows none of them.
 *
 * At most one event per (kind, target) is pending; schedule() asserts
 * it. A per-kind table holds each target's pending seq, so pending()
 * is a lookup and deschedule() clears the entry. The node stays queued
 * and is skipped when it surfaces, because its seq no longer matches.
 * That is exact because no two events draw the same seq.
 *
 * Beside the heap runs one fixed-delay FIFO lane whose events draw
 * their seq from the same counter. Since curTick never decreases, lane
 * events leave in the order they were scheduled, so the lane is sorted
 * by (tick, seq) without any heap work; run() merges its front with the
 * heap top. A lane event therefore executes exactly where a
 * scheduleIn(laneDelay, ...) event would, at O(1) cost.
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

/** Index of an event kind in its queue's handler table. */
using EventKind = std::uint32_t;

/** One scheduled event: the node of both the heap and the lane. */
struct Event {
    Tick when;
    std::uint64_t seq;
    EventKind kind;
    /** The handler's argument: a thread, CPU or other id. */
    std::uint32_t target;
};

/**
 * A deterministic event queue driving simulated time forward.
 *
 * Usage: register each kind's handler with addKind(), schedule()
 * (kind, target) events at absolute ticks or relative to now with
 * scheduleIn(), then run() until the queue drains (or a bound is hit).
 * Handlers may schedule further events.
 */
class EventQueue
{
  public:
    /** Handler of one event kind; receives the event's target. */
    using Handler = std::function<void(std::uint32_t)>;

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /**
     * Register a kind whose events run @p handler on their target.
     * Call outside run(): a handler must not add kinds.
     */
    EventKind addKind(Handler handler);

    /** Schedule (@p kind, @p target) at tick @p when >= curTick().
     *  Panics if (@p kind, @p target) already has a pending event. */
    void schedule(Tick when, EventKind kind, std::uint32_t target);

    /** Schedule (@p kind, @p target) @p delay cycles from now. */
    void
    scheduleIn(Cycles delay, EventKind kind, std::uint32_t target)
    {
        schedule(curTick_ + delay, kind, target);
    }

    /** Set the lane's fixed delay, before the first scheduleLane(). */
    void setLane(Cycles delay);

    /** Schedule (@p kind, @p target) on the lane, laneDelay cycles
     *  from now: exactly where scheduleIn(laneDelay, ...) would. */
    void scheduleLane(EventKind kind, std::uint32_t target);

    /** True if (@p kind, @p target) has an event waiting to fire. */
    bool
    pending(EventKind kind, std::uint32_t target) const
    {
        const std::vector<std::uint64_t> &seqs = kinds_[kind].pendingSeq;
        return target < seqs.size() && seqs[target] != kNotPending;
    }

    /** Cancel the pending event of (@p kind, @p target); a no-op
     *  returning false when none is pending (never scheduled, fired
     *  or cancelled). */
    bool deschedule(EventKind kind, std::uint32_t target);

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
    bool empty() const { return live_ == 0; }

    /** Number of pending (non-cancelled) events, lane events included. */
    std::size_t size() const { return live_; }

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
     * When set, run() makes one Profiler::onEventDispatch() call per
     * event, just before its handler, which charges the event-queue
     * wall-time phase and drives Perfetto counter sampling, and the
     * byte gauge follows what the heap, the lane and the pending
     * tables allocate. Purely observational: simulated behavior is
     * unchanged.
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
    /** Pending-table entry of a target with nothing scheduled. */
    static constexpr std::uint64_t kNotPending = ~std::uint64_t{0};

    struct KindState {
        Handler handler;
        /** Seq of each target's pending event, or kNotPending. */
        std::vector<std::uint64_t> pendingSeq;
    };

    static bool
    earlier(const Event &a, const Event &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** True unless @p event was descheduled after it was queued. */
    bool
    live(const Event &event) const
    {
        return kinds_[event.kind].pendingSeq[event.target] == event.seq;
    }

    /** Check the one-pending rule and record @p event as pending. */
    void markPending(const Event &event);

    void heapPush(const Event &event);
    void heapPop();

    /** Double the lane ring, keeping its FIFO order. */
    void growLane();
    void lanePop();

    /** Audit check that (@p when, @p seq) follows the last event. */
    void auditOrder(Tick when, std::uint64_t seq);

    /** Raise the profiler's event-queue byte gauge to the bytes the
     *  heap, the lane and the pending tables allocate now. */
    void recordBytes();

    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::size_t live_ = 0;
    AuditEngine *audit_ = nullptr;
    Profiler *profiler_ = nullptr;
    /** Last executed (tick, seq), for the tie-break order check. */
    Tick lastExecWhen_ = 0;
    std::uint64_t lastExecSeq_ = 0;
    bool anyExecuted_ = false;
    std::vector<KindState> kinds_;
    /** Binary min-heap over (when, seq). */
    std::vector<Event> heap_;
    /** Lane ring (power-of-two size), sorted by (when, seq). */
    std::vector<Event> lane_;
    std::size_t laneHead_ = 0;
    std::size_t laneCount_ = 0;
    Cycles laneDelay_ = 0;
};

} // namespace sim

#endif // BFGTS_SIM_EVENT_QUEUE_H
