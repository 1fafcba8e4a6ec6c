/**
 * @file
 * Unit tests for the deterministic event queue, and a differential
 * test against the closure/slab queue it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <utility>
#include <vector>

#include "sim/audit.h"
#include "sim/event_queue.h"
#include "sim/random.h"

namespace {

using sim::Cycles;
using sim::EventKind;
using sim::EventQueue;
using sim::Tick;

/** A kind that ignores its events. */
EventKind
noopKind(EventQueue &q)
{
    return q.addKind([](std::uint32_t) {});
}

/** A kind that appends each event's target to @p fired. */
EventKind
recordKind(EventQueue &q, std::vector<std::uint32_t> &fired)
{
    return q.addKind([&fired](std::uint32_t t) { fired.push_back(t); });
}

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue q;
    EXPECT_EQ(q.curTick(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, ExecutesEventsInTickOrder)
{
    EventQueue q;
    std::vector<std::uint32_t> order;
    const EventKind k = recordKind(q, order);
    q.schedule(30, k, 3);
    q.schedule(10, k, 1);
    q.schedule(20, k, 2);
    q.run();
    EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 3}));
    EXPECT_EQ(q.curTick(), 30u);
}

TEST(EventQueue, SameTickEventsFireInScheduleOrder)
{
    EventQueue q;
    std::vector<std::uint32_t> order;
    const EventKind k = recordKind(q, order);
    // Targets in descending order: schedule order, not target order,
    // breaks the tie.
    for (std::uint32_t i = 0; i < 10; ++i)
        q.schedule(5, k, 9 - i);
    q.run();
    ASSERT_EQ(order.size(), 10u);
    for (std::uint32_t i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], 9 - i);
}

TEST(EventQueue, ScheduleInIsRelativeToNow)
{
    EventQueue q;
    Tick fired_at = 0;
    const EventKind later =
        q.addKind([&](std::uint32_t) { fired_at = q.curTick(); });
    const EventKind first =
        q.addKind([&](std::uint32_t) { q.scheduleIn(50, later, 0); });
    q.schedule(100, first, 0);
    q.run();
    EXPECT_EQ(fired_at, 150u);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue q;
    int depth = 0;
    EventKind chain = 0;
    // The handler reschedules its own (kind, target): the entry is
    // free again by the time it runs.
    chain = q.addKind([&](std::uint32_t t) {
        if (++depth < 5)
            q.scheduleIn(1, chain, t);
    });
    q.schedule(0, chain, 0);
    q.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(q.curTick(), 4u);
}

TEST(EventQueue, KindsDispatchToTheirOwnHandlers)
{
    EventQueue q;
    std::vector<std::uint32_t> a;
    std::vector<std::uint32_t> b;
    const EventKind ka = recordKind(q, a);
    const EventKind kb = recordKind(q, b);
    // One pending event per (kind, target): the same target may be
    // pending under two kinds at once.
    q.schedule(10, ka, 7);
    q.schedule(5, kb, 7);
    q.schedule(10, kb, 8);
    EXPECT_TRUE(q.pending(ka, 7));
    EXPECT_TRUE(q.pending(kb, 7));
    EXPECT_FALSE(q.pending(ka, 8));
    EXPECT_EQ(q.run(), 3u);
    EXPECT_EQ(a, (std::vector<std::uint32_t>{7}));
    EXPECT_EQ(b, (std::vector<std::uint32_t>{7, 8}));
    EXPECT_FALSE(q.pending(ka, 7));
    EXPECT_FALSE(q.pending(kb, 8));
}

TEST(EventQueue, DescheduleCancelsPendingEvent)
{
    EventQueue q;
    bool fired = false;
    const EventKind k = q.addKind([&](std::uint32_t) { fired = true; });
    q.schedule(10, k, 0);
    EXPECT_TRUE(q.pending(k, 0));
    EXPECT_TRUE(q.deschedule(k, 0));
    EXPECT_FALSE(q.pending(k, 0));
    EXPECT_EQ(q.run(), 0u);
    EXPECT_FALSE(fired);
    EXPECT_TRUE(q.empty());
    // The skipped node moves no time.
    EXPECT_EQ(q.curTick(), 0u);
}

TEST(EventQueue, DescheduleTwiceIsIdempotent)
{
    EventQueue q;
    const EventKind k = noopKind(q);
    q.schedule(10, k, 0);
    EXPECT_TRUE(q.deschedule(k, 0));
    EXPECT_FALSE(q.deschedule(k, 0));
}

TEST(EventQueue, DescheduleNoEventIsNoop)
{
    EventQueue q;
    const EventKind k = noopKind(q);
    // Never scheduled, inside and past the pending table.
    q.schedule(1, k, 0);
    EXPECT_FALSE(q.deschedule(k, 1));
    EXPECT_FALSE(q.deschedule(k, 1000));
    // Already fired.
    q.run();
    EXPECT_FALSE(q.deschedule(k, 0));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeTracksCancellations)
{
    EventQueue q;
    const EventKind k = noopKind(q);
    q.schedule(10, k, 0);
    q.schedule(20, k, 1);
    EXPECT_EQ(q.size(), 2u);
    q.deschedule(k, 0);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_FALSE(q.empty());
}

TEST(EventQueue, CancelledEventDoesNotBlockLaterOnes)
{
    EventQueue q;
    std::vector<std::uint32_t> order;
    const EventKind k = recordKind(q, order);
    q.schedule(10, k, 1);
    q.schedule(10, k, 2);
    q.deschedule(k, 1);
    q.run();
    EXPECT_EQ(order, (std::vector<std::uint32_t>{2}));
}

TEST(EventQueue, RescheduledTargetFiresOnceAtItsNewTick)
{
    EventQueue q;
    std::vector<Tick> fired_at;
    const EventKind k =
        q.addKind([&](std::uint32_t) { fired_at.push_back(q.curTick()); });
    // The node at tick 10 stays queued; its seq no longer matches the
    // pending one, so only the tick-20 event runs.
    q.schedule(10, k, 0);
    q.deschedule(k, 0);
    q.schedule(20, k, 0);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.run(), 1u);
    EXPECT_EQ(fired_at, (std::vector<Tick>{20}));
}

TEST(EventQueue, RunStopsAtMaxTick)
{
    EventQueue q;
    int fired = 0;
    const EventKind k = q.addKind([&](std::uint32_t) { ++fired; });
    q.schedule(10, k, 0);
    q.schedule(20, k, 1);
    q.schedule(30, k, 2);
    std::uint64_t executed = q.run(20);
    EXPECT_EQ(executed, 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(q.empty());
    q.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunReturnsExecutedCount)
{
    EventQueue q;
    const EventKind k = noopKind(q);
    for (std::uint32_t i = 0; i < 7; ++i)
        q.schedule(static_cast<Tick>(i), k, i);
    EXPECT_EQ(q.run(), 7u);
}

TEST(EventQueue, EventAtCurrentTickRunsImmediately)
{
    EventQueue q;
    bool fired = false;
    const EventKind noop = noopKind(q);
    const EventKind k = q.addKind([&](std::uint32_t) { fired = true; });
    q.schedule(10, noop, 0);
    q.run();
    q.schedule(10, k, 0);
    q.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(q.curTick(), 10u);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue q;
    const EventKind k = noopKind(q);
    q.schedule(10, k, 0);
    q.run();
    EXPECT_DEATH(q.schedule(5, k, 0), "assertion");
}

TEST(EventQueueDeath, SecondPendingEventForAKindAndTargetPanics)
{
    EventQueue q;
    const EventKind k = noopKind(q);
    q.setLane(50);
    q.schedule(10, k, 3);
    EXPECT_DEATH(q.schedule(20, k, 3), "already has an event pending");
    EXPECT_DEATH(q.scheduleLane(k, 3), "already has an event pending");
}

// ---- fixed-delay lane ------------------------------------------------

constexpr Cycles kLaneDelay = 50;

/**
 * A random event tree run on one queue. Each event logs (id, tick)
 * and schedules up to three children: lane events, and heap events
 * whose delay is 0, the lane delay, or anything up to twice it, so
 * heap and lane events keep colliding at equal ticks. Every event has
 * its own target, its id. With @p lane false the "lane" children go
 * through scheduleIn(kLaneDelay), which is the order the lane must
 * reproduce.
 */
class EventTree
{
  public:
    EventTree(EventQueue &q, bool lane, std::uint32_t max_events)
        : q_(q), lane_(lane), maxEvents_(max_events),
          kind_(q.addKind([this](std::uint32_t id) { fire(id); }))
    {
        if (lane_)
            q_.setLane(kLaneDelay);
    }

    void seed(Tick when) { q_.schedule(when, kind_, nextId_++); }

    std::vector<std::pair<std::uint32_t, Tick>> log;

  private:
    void
    fire(std::uint32_t id)
    {
        log.emplace_back(id, q_.curTick());
        sim::Rng rng(0x5eedULL + id);
        const std::uint64_t children = rng.below(4);
        for (std::uint64_t c = 0; c < children; ++c) {
            if (nextId_ >= maxEvents_)
                return;
            const std::uint32_t child = nextId_++;
            const std::uint64_t kind = rng.below(4);
            if (kind < 2) {
                if (lane_)
                    q_.scheduleLane(kind_, child);
                else
                    q_.scheduleIn(kLaneDelay, kind_, child);
                continue;
            }
            const Cycles delay =
                kind == 2 ? (rng.below(2) == 0 ? 0 : kLaneDelay)
                          : rng.below(2 * kLaneDelay);
            q_.scheduleIn(delay, kind_, child);
        }
    }

    EventQueue &q_;
    bool lane_;
    std::uint32_t maxEvents_;
    EventKind kind_;
    std::uint32_t nextId_ = 0;
};

TEST(EventQueueLane, MatchesHeapOnlyOrderAtEqualTicks)
{
    EventQueue with_lane;
    EventQueue heap_only;
    EventTree lane_tree(with_lane, true, 20'000);
    EventTree heap_tree(heap_only, false, 20'000);
    for (Tick when : {0, 0, 50, 50, 100, 7}) {
        lane_tree.seed(when);
        heap_tree.seed(when);
    }
    const std::uint64_t executed = with_lane.run();
    EXPECT_EQ(executed, heap_only.run());
    EXPECT_GT(executed, 1'000u);
    EXPECT_EQ(lane_tree.log, heap_tree.log);
    EXPECT_EQ(with_lane.curTick(), heap_only.curTick());
}

TEST(EventQueueLane, SizeAndEmptyCountLaneEvents)
{
    EventQueue q;
    int fired = 0;
    const EventKind lane = q.addKind([&](std::uint32_t) { ++fired; });
    const EventKind noop = noopKind(q);
    q.setLane(kLaneDelay);
    q.scheduleLane(lane, 1);
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(q.size(), 1u);
    EXPECT_TRUE(q.pending(lane, 1));
    q.schedule(10, noop, 0);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.run(), 2u);
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.curTick(), kLaneDelay);
}

TEST(EventQueueLane, RunStopsBeforeALaneEventPastMaxTick)
{
    EventQueue q;
    std::vector<std::uint32_t> fired;
    const EventKind lane = recordKind(q, fired);
    const EventKind push =
        q.addKind([&](std::uint32_t t) { q.scheduleLane(lane, t); });
    q.setLane(kLaneDelay);
    q.scheduleLane(lane, 1); // tick 50
    q.schedule(20, push, 2); // lane event 2 at tick 70
    EXPECT_EQ(q.run(60), 2u);
    EXPECT_EQ(fired, (std::vector<std::uint32_t>{1}));
    EXPECT_EQ(q.curTick(), 50u);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.run(), 1u);
    EXPECT_EQ(fired, (std::vector<std::uint32_t>{1, 2}));
    EXPECT_EQ(q.curTick(), 70u);
}

TEST(EventQueueLane, DescheduledLaneEventIsSkipped)
{
    EventQueue q;
    std::vector<std::uint32_t> fired;
    const EventKind lane = recordKind(q, fired);
    q.setLane(kLaneDelay);
    q.scheduleLane(lane, 1);
    q.scheduleLane(lane, 2);
    EXPECT_TRUE(q.deschedule(lane, 1));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.run(), 1u);
    EXPECT_EQ(fired, (std::vector<std::uint32_t>{2}));
    // A stale node at the ring's front neither runs nor moves time.
    q.scheduleLane(lane, 3);
    EXPECT_TRUE(q.deschedule(lane, 3));
    EXPECT_EQ(q.run(), 0u);
    EXPECT_EQ(q.curTick(), kLaneDelay);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueLane, LaneGrowsPastItsFirstRing)
{
    EventQueue q;
    std::vector<std::uint32_t> fired;
    const EventKind lane = recordKind(q, fired);
    const EventKind push = q.addKind([&](std::uint32_t) {
        for (std::uint32_t t = 10; t < 40; ++t)
            q.scheduleLane(lane, t);
    });
    q.setLane(kLaneDelay);
    // Wrap the ring before it grows: pop some, then push past 16.
    for (std::uint32_t t = 0; t < 10; ++t)
        q.scheduleLane(lane, t);
    q.run(kLaneDelay - 1);
    q.schedule(kLaneDelay, push, 0);
    q.run();
    ASSERT_EQ(fired.size(), 40u);
    for (std::uint32_t t = 0; t < 40; ++t)
        EXPECT_EQ(fired[t], t);
}

TEST(EventQueueLane, TiebreakAuditCoversTheLane)
{
    sim::AuditEngine engine;
    engine.setEnabled(true);
    engine.setMode(sim::AuditEngine::Mode::Collect);

    EventQueue clean;
    clean.setAudit(&engine);
    EventTree tree(clean, true, 2'000);
    tree.seed(0);
    tree.seed(0);
    clean.run();
    EXPECT_GT(engine.checksRun(), 0u);
    EXPECT_FALSE(engine.fired("event.tiebreak"));

    // Rewind the sequence counter: the lane event reuses the heap
    // event's seq at the same tick, so the merged stream is no longer
    // strictly increasing in (tick, seq).
    EventQueue rewound;
    rewound.setAudit(&engine);
    const EventKind noop = noopKind(rewound);
    rewound.setLane(kLaneDelay);
    rewound.schedule(kLaneDelay, noop, 0);
    rewound.testSetNextSeq(0);
    rewound.scheduleLane(noop, 1);
    rewound.run();
    EXPECT_TRUE(engine.fired("event.tiebreak"));
}

// ---- differential: typed core vs the closure reference ---------------

/**
 * The closure/slab event queue the typed core replaced, kept as the
 * reference for its order. Every heap event owns a std::function in a
 * slot of a slab; a handle is (generation << 32 | slot + 1), and
 * cancelling bumps the slot's generation so the stale heap node is
 * skipped when it surfaces. Beside the heap runs a fixed-delay FIFO
 * lane of (tick, seq, token) nodes with one handler, merged with the
 * heap by (tick, seq). Lane events cannot be cancelled.
 */
class ReferenceEventQueue
{
  public:
    using EventFn = std::function<void()>;
    using LaneFn = std::function<void(std::uint32_t)>;
    using EventId = std::uint64_t;

    Tick curTick() const { return curTick_; }

    EventId
    schedule(Tick when, EventFn fn)
    {
        EXPECT_GE(when, curTick_);
        const std::uint32_t slot = acquireSlot(std::move(fn));
        const EventId id = (static_cast<EventId>(slots_[slot].gen) << 32)
                         | (static_cast<EventId>(slot) + 1);
        heapPush(HeapNode{when, nextSeq_++, id});
        ++live_;
        return id;
    }

    EventId
    scheduleIn(Cycles delay, EventFn fn)
    {
        return schedule(curTick_ + delay, std::move(fn));
    }

    void
    setLane(Cycles delay, LaneFn fn)
    {
        laneDelay_ = delay;
        laneFn_ = std::move(fn);
    }

    void
    scheduleLane(std::uint32_t token)
    {
        if (laneCount_ == lane_.size()) {
            std::vector<LaneNode> grown(lane_.empty() ? 16
                                                      : 2 * lane_.size());
            for (std::size_t i = 0; i < laneCount_; ++i)
                grown[i] = lane_[(laneHead_ + i) & (lane_.size() - 1)];
            lane_ = std::move(grown);
            laneHead_ = 0;
        }
        lane_[(laneHead_ + laneCount_) & (lane_.size() - 1)] =
            LaneNode{curTick_ + laneDelay_, nextSeq_++, token};
        ++laneCount_;
    }

    bool
    deschedule(EventId id)
    {
        if (id == 0 || !liveId(id))
            return false;
        releaseSlot(slotOf(id));
        --live_;
        return true;
    }

    std::uint64_t
    run(Tick max_tick = sim::kMaxTick)
    {
        std::uint64_t executed = 0;
        while (true) {
            while (!heap_.empty() && !liveId(heap_.front().id))
                heapPop();
            const bool from_lane =
                laneCount_ > 0
                && (heap_.empty()
                    || earlier(lane_[laneHead_], heap_.front()));
            if (!from_lane && heap_.empty())
                break;
            const Tick when =
                from_lane ? lane_[laneHead_].when : heap_.front().when;
            if (when > max_tick)
                break;
            curTick_ = when;
            if (from_lane) {
                const std::uint32_t token = lane_[laneHead_].token;
                laneHead_ = (laneHead_ + 1) & (lane_.size() - 1);
                --laneCount_;
                laneFn_(token);
            } else {
                const EventId id = heap_.front().id;
                EventFn fn = std::move(slots_[slotOf(id)].fn);
                releaseSlot(slotOf(id));
                heapPop();
                --live_;
                fn();
            }
            ++executed;
        }
        return executed;
    }

    bool empty() const { return size() == 0; }
    std::size_t size() const { return live_ + laneCount_; }

  private:
    struct HeapNode {
        Tick when;
        std::uint64_t seq;
        EventId id;
    };
    struct LaneNode {
        Tick when;
        std::uint64_t seq;
        std::uint32_t token;
    };
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

    void
    heapPush(const HeapNode &node)
    {
        heap_.push_back(node);
        std::size_t i = heap_.size() - 1;
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!earlier(heap_[i], heap_[parent]))
                break;
            std::swap(heap_[i], heap_[parent]);
            i = parent;
        }
    }

    void
    heapPop()
    {
        heap_.front() = heap_.back();
        heap_.pop_back();
        const std::size_t n = heap_.size();
        std::size_t i = 0;
        while (true) {
            const std::size_t left = 2 * i + 1;
            const std::size_t right = left + 1;
            std::size_t min = i;
            if (left < n && earlier(heap_[left], heap_[min]))
                min = left;
            if (right < n && earlier(heap_[right], heap_[min]))
                min = right;
            if (min == i)
                break;
            std::swap(heap_[i], heap_[min]);
            i = min;
        }
    }

    std::uint32_t
    acquireSlot(EventFn &&fn)
    {
        std::uint32_t slot;
        if (!freeSlots_.empty()) {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
        } else {
            slot = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back();
        }
        slots_[slot].fn = std::move(fn);
        slots_[slot].live = true;
        return slot;
    }

    void
    releaseSlot(std::uint32_t slot)
    {
        Slot &s = slots_[slot];
        s.fn = nullptr;
        s.live = false;
        ++s.gen;
        freeSlots_.push_back(slot);
    }

    static std::uint32_t
    slotOf(EventId id)
    {
        return static_cast<std::uint32_t>(id & 0xffffffffULL) - 1;
    }

    bool
    liveId(EventId id) const
    {
        const std::uint32_t slot = slotOf(id);
        return slot < slots_.size() && slots_[slot].live
            && slots_[slot].gen == static_cast<std::uint32_t>(id >> 32);
    }

    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::size_t live_ = 0;
    std::vector<HeapNode> heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    std::vector<LaneNode> lane_;
    std::size_t laneHead_ = 0;
    std::size_t laneCount_ = 0;
    Cycles laneDelay_ = 0;
    LaneFn laneFn_;
};

/**
 * Seeded random actors, the way production code uses a queue: a
 * fixed number of targets, two heap kinds and one lane kind, and at
 * most one pending event per (kind, target). Each firing logs
 * (id, tick), then draws one to three actions from an Rng seeded by
 * the run seed and its id: schedule a heap event 0, kLaneDelay or a
 * random number of cycles ahead, schedule a lane event, or deschedule
 * a heap (kind, target) whether it is pending, already fired or never
 * scheduled. The decisions read only this class's own pending table,
 * so two queues that behave alike see the same calls.
 */
class Actors
{
  public:
    static constexpr int kHeapKinds = 2;
    /** Index of the lane kind. */
    static constexpr int kLane = kHeapKinds;
    static constexpr std::uint32_t kNone = ~0u;

    virtual ~Actors() = default;

    /** Schedule (@p kind, @p target) @p when ticks from tick 0. */
    void
    seed(int kind, std::uint32_t target, Tick when)
    {
        pendingId(kind, target) = nextId_++;
        if (kind == kLane)
            scheduleLane(target);
        else
            scheduleHeap(kind, target, when);
    }

    bool
    expectPending(int kind, std::uint32_t target)
    {
        return pendingId(kind, target) != kNone;
    }

    std::uint32_t targets() const { return targets_; }

    /** (id, tick) of every fired event, in order. */
    std::vector<std::pair<std::uint32_t, Tick>> log;
    /** Result of every deschedule call, in order. */
    std::vector<bool> cancels;

  protected:
    Actors(std::uint64_t seed, std::uint32_t targets,
           std::uint32_t max_events)
        : seed_(seed), targets_(targets), maxEvents_(max_events),
          pendingId_(static_cast<std::size_t>(kLane + 1) * targets, kNone)
    {
    }

    virtual Tick now() const = 0;
    virtual void scheduleHeap(int kind, std::uint32_t target,
                              Cycles delay) = 0;
    virtual void scheduleLane(std::uint32_t target) = 0;
    virtual bool cancel(int kind, std::uint32_t target) = 0;

    /** Body of every event; the subclass's handlers call it. */
    void
    fire(int kind, std::uint32_t target)
    {
        const std::uint32_t id = pendingId(kind, target);
        ASSERT_NE(id, kNone);
        pendingId(kind, target) = kNone;
        log.emplace_back(id, now());
        sim::Rng rng(seed_ * 0x9e3779b97f4a7c15ULL + id);
        const std::uint64_t actions = 1 + rng.below(3);
        for (std::uint64_t a = 0; a < actions; ++a) {
            const auto t = static_cast<std::uint32_t>(rng.below(targets_));
            const std::uint64_t what = rng.below(8);
            if (what == 0) {
                const int k = static_cast<int>(rng.below(kHeapKinds));
                const bool cancelled = cancel(k, t);
                EXPECT_EQ(cancelled, pendingId(k, t) != kNone);
                cancels.push_back(cancelled);
                pendingId(k, t) = kNone;
                continue;
            }
            const int k = what <= 2 ? kLane : static_cast<int>(what % 2);
            if (nextId_ >= maxEvents_ || pendingId(k, t) != kNone)
                continue;
            pendingId(k, t) = nextId_++;
            if (k == kLane) {
                scheduleLane(t);
                continue;
            }
            const std::uint64_t d = rng.below(3);
            const Cycles delay = d == 0   ? 0
                               : d == 1 ? kLaneDelay
                                        : rng.below(3 * kLaneDelay);
            scheduleHeap(k, t, delay);
        }
    }

  private:
    std::uint32_t &
    pendingId(int kind, std::uint32_t target)
    {
        return pendingId_[static_cast<std::size_t>(kind) * targets_
                          + target];
    }

    std::uint64_t seed_;
    std::uint32_t targets_;
    std::uint32_t maxEvents_;
    std::uint32_t nextId_ = 0;
    /** Id of each (kind, target)'s pending event, or kNone. */
    std::vector<std::uint32_t> pendingId_;
};

class TypedActors : public Actors
{
  public:
    TypedActors(std::uint64_t seed, std::uint32_t targets,
                std::uint32_t max_events)
        : Actors(seed, targets, max_events)
    {
        for (int k = 0; k <= kLane; ++k) {
            kinds_[static_cast<std::size_t>(k)] =
                q.addKind([this, k](std::uint32_t t) {
                    peakSize = std::max(peakSize, q.size());
                    fire(k, t);
                });
        }
        q.setLane(kLaneDelay);
    }

    bool
    queuePending(int kind, std::uint32_t target) const
    {
        return q.pending(kinds_[static_cast<std::size_t>(kind)], target);
    }

    EventQueue q;
    /** Most events pending when one fired (the firing one counted). */
    std::size_t peakSize = 0;

  private:
    Tick now() const override { return q.curTick(); }

    void
    scheduleHeap(int kind, std::uint32_t target, Cycles delay) override
    {
        q.scheduleIn(delay, kinds_[static_cast<std::size_t>(kind)],
                     target);
    }

    void
    scheduleLane(std::uint32_t target) override
    {
        q.scheduleLane(kinds_[kLane], target);
    }

    bool
    cancel(int kind, std::uint32_t target) override
    {
        return q.deschedule(kinds_[static_cast<std::size_t>(kind)],
                            target);
    }

    std::array<EventKind, kLane + 1> kinds_{};
};

class ReferenceActors : public Actors
{
  public:
    ReferenceActors(std::uint64_t seed, std::uint32_t targets,
                    std::uint32_t max_events)
        : Actors(seed, targets, max_events),
          handles_(static_cast<std::size_t>(kHeapKinds) * targets, 0)
    {
        q.setLane(kLaneDelay,
                  [this](std::uint32_t t) { fire(kLane, t); });
    }

    ReferenceEventQueue q;

  private:
    Tick now() const override { return q.curTick(); }

    void
    scheduleHeap(int kind, std::uint32_t target, Cycles delay) override
    {
        handle(kind, target) = q.scheduleIn(
            delay, [this, kind, target] { fire(kind, target); });
    }

    void scheduleLane(std::uint32_t target) override
    {
        q.scheduleLane(target);
    }

    bool
    cancel(int kind, std::uint32_t target) override
    {
        // A fired or cancelled event's handle is stale: no-op.
        return q.deschedule(handle(kind, target));
    }

    ReferenceEventQueue::EventId &
    handle(int kind, std::uint32_t target)
    {
        return handles_[static_cast<std::size_t>(kind) * targets()
                        + target];
    }

    std::vector<ReferenceEventQueue::EventId> handles_;
};

/** What one differential run saw, for the tests' coverage checks. */
struct DifferentialRun {
    std::uint64_t executed = 0;
    int stops = 0;
    std::size_t cancels = 0;
    std::size_t peakPending = 0;
    /** Fired events whose tick equals the previous one's. */
    std::uint64_t equalTicks = 0;
};

/**
 * Drive a typed queue and the closure reference with the same seeded
 * actors over @p targets targets, stopping run() at random ticks, and
 * require identical logs, cancel results, sizes, clocks and pending
 * answers at every stop.
 */
DifferentialRun
runDifferential(std::uint64_t seed, std::uint32_t targets,
                std::uint32_t max_events)
{
    DifferentialRun out;
    TypedActors typed(seed, targets, max_events);
    ReferenceActors reference(seed, targets, max_events);
    for (Actors *actors :
         {static_cast<Actors *>(&typed),
          static_cast<Actors *>(&reference)}) {
        actors->seed(0, 0, 0);
        actors->seed(1, 0, 0);
        actors->seed(0, 1, kLaneDelay);
        actors->seed(Actors::kLane, 2, 0);
        actors->seed(1, 3, 7);
    }

    sim::Rng stops(seed);
    Tick stop = 0;
    while (!typed.q.empty() || !reference.q.empty()) {
        stop += 1 + stops.below(4 * kLaneDelay);
        const std::uint64_t ran = typed.q.run(stop);
        EXPECT_EQ(ran, reference.q.run(stop));
        out.executed += ran;
        ++out.stops;
        EXPECT_EQ(typed.q.size(), reference.q.size());
        EXPECT_EQ(typed.q.curTick(), reference.q.curTick());
        for (int k = 0; k <= Actors::kLane; ++k) {
            for (std::uint32_t t = 0; t < targets; ++t) {
                if (typed.queuePending(k, t) != typed.expectPending(k, t)) {
                    ADD_FAILURE() << "pending(" << k << ", " << t
                                  << ") wrong at tick " << stop;
                    return out;
                }
            }
        }
        if (::testing::Test::HasFailure())
            return out;
    }
    EXPECT_EQ(typed.log, reference.log);
    EXPECT_EQ(typed.cancels, reference.cancels);
    EXPECT_EQ(out.executed, typed.log.size());
    out.cancels = typed.cancels.size();
    out.peakPending = typed.peakSize;
    for (std::size_t i = 1; i < typed.log.size(); ++i)
        out.equalTicks += typed.log[i].second == typed.log[i - 1].second;
    return out;
}

TEST(EventQueueDifferential, MatchesTheClosureReference)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        const DifferentialRun run = runDifferential(seed, 16, 20'000);
        ASSERT_FALSE(HasFailure());
        EXPECT_GT(run.executed, 10'000u);
        EXPECT_GT(run.stops, 100);
        EXPECT_GT(run.cancels, 100u);
    }
}

TEST(EventQueueDifferential, DeepHeapMatchesTheClosureReference)
{
    // 1,024 targets let the actors' fan-out fill the heap with
    // thousands of events, most of them sharing a tick with another,
    // so every sift walks many levels and breaks ties on seq alone.
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(seed);
        const DifferentialRun run = runDifferential(seed, 1024, 100'000);
        ASSERT_FALSE(HasFailure());
        EXPECT_GT(run.executed, 90'000u);
        EXPECT_GT(run.peakPending, 1'000u);
        EXPECT_GT(run.equalTicks, run.executed / 2);
        EXPECT_GT(run.cancels, 1'000u);
    }
}

} // namespace
