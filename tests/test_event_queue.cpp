/**
 * @file
 * Unit tests for the deterministic event queue.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/audit.h"
#include "sim/event_queue.h"
#include "sim/random.h"

namespace {

using sim::EventQueue;
using sim::Tick;

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
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.curTick(), 30u);
}

TEST(EventQueue, SameTickEventsFireInScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleInIsRelativeToNow)
{
    EventQueue q;
    Tick fired_at = 0;
    q.schedule(100, [&] {
        q.scheduleIn(50, [&] { fired_at = q.curTick(); });
    });
    q.run();
    EXPECT_EQ(fired_at, 150u);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            q.scheduleIn(1, chain);
    };
    q.schedule(0, chain);
    q.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(q.curTick(), 4u);
}

TEST(EventQueue, DescheduleCancelsPendingEvent)
{
    EventQueue q;
    bool fired = false;
    sim::EventId id = q.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(q.deschedule(id));
    q.run();
    EXPECT_FALSE(fired);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DescheduleTwiceIsIdempotent)
{
    EventQueue q;
    sim::EventId id = q.schedule(10, [] {});
    EXPECT_TRUE(q.deschedule(id));
    EXPECT_FALSE(q.deschedule(id));
}

TEST(EventQueue, DescheduleNoEventIsNoop)
{
    EventQueue q;
    EXPECT_FALSE(q.deschedule(sim::kNoEvent));
}

TEST(EventQueue, SizeTracksCancellations)
{
    EventQueue q;
    sim::EventId a = q.schedule(10, [] {});
    q.schedule(20, [] {});
    EXPECT_EQ(q.size(), 2u);
    q.deschedule(a);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_FALSE(q.empty());
}

TEST(EventQueue, CancelledEventDoesNotBlockLaterOnes)
{
    EventQueue q;
    std::vector<int> order;
    sim::EventId a = q.schedule(10, [&] { order.push_back(1); });
    q.schedule(10, [&] { order.push_back(2); });
    q.deschedule(a);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueue, RunStopsAtMaxTick)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    q.schedule(30, [&] { ++fired; });
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
    for (int i = 0; i < 7; ++i)
        q.schedule(static_cast<Tick>(i), [] {});
    EXPECT_EQ(q.run(), 7u);
}

TEST(EventQueue, EventAtCurrentTickRunsImmediately)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.run();
    bool fired = false;
    q.schedule(10, [&] { fired = true; });
    q.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(q.curTick(), 10u);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.run();
    EXPECT_DEATH(q.schedule(5, [] {}), "assertion");
}

// ---- fixed-delay lane ------------------------------------------------

constexpr sim::Cycles kLaneDelay = 50;

/**
 * A random event tree run on one queue. Each event logs (id, tick)
 * and schedules up to three children: lane events, and heap events
 * whose delay is 0, the lane delay, or anything up to twice it, so
 * heap and lane events keep colliding at equal ticks. With @p lane
 * false the "lane" children go through scheduleIn(kLaneDelay), which
 * is the order the lane must reproduce.
 */
class EventTree
{
  public:
    EventTree(EventQueue &q, bool lane, std::uint32_t max_events)
        : q_(q), lane_(lane), maxEvents_(max_events)
    {
        if (lane_)
            q_.setLane(kLaneDelay, [this](std::uint32_t id) { fire(id); });
    }

    void
    seed(Tick when)
    {
        const std::uint32_t id = nextId_++;
        q_.schedule(when, [this, id] { fire(id); });
    }

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
                    q_.scheduleLane(child);
                else
                    q_.scheduleIn(kLaneDelay,
                                  [this, child] { fire(child); });
                continue;
            }
            const sim::Cycles delay =
                kind == 2 ? (rng.below(2) == 0 ? 0 : kLaneDelay)
                          : rng.below(2 * kLaneDelay);
            q_.scheduleIn(delay, [this, child] { fire(child); });
        }
    }

    EventQueue &q_;
    bool lane_;
    std::uint32_t maxEvents_;
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
    q.setLane(kLaneDelay, [&](std::uint32_t) { ++fired; });
    q.scheduleLane(1);
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(q.size(), 1u);
    q.schedule(10, [] {});
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
    q.setLane(kLaneDelay, [&](std::uint32_t t) { fired.push_back(t); });
    q.scheduleLane(1); // tick 50
    q.schedule(20, [&] { q.scheduleLane(2); }); // tick 70
    EXPECT_EQ(q.run(60), 2u);
    EXPECT_EQ(fired, (std::vector<std::uint32_t>{1}));
    EXPECT_EQ(q.curTick(), 50u);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.run(), 1u);
    EXPECT_EQ(fired, (std::vector<std::uint32_t>{1, 2}));
    EXPECT_EQ(q.curTick(), 70u);
}

TEST(EventQueueLane, LaneGrowsPastItsFirstRing)
{
    EventQueue q;
    std::vector<std::uint32_t> fired;
    q.setLane(kLaneDelay, [&](std::uint32_t t) { fired.push_back(t); });
    // Wrap the ring before it grows: pop some, then push past 16.
    for (std::uint32_t t = 0; t < 10; ++t)
        q.scheduleLane(t);
    q.run(kLaneDelay - 1);
    q.schedule(kLaneDelay, [&] {
        for (std::uint32_t t = 10; t < 40; ++t)
            q.scheduleLane(t);
    });
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
    rewound.setLane(kLaneDelay, [](std::uint32_t) {});
    rewound.schedule(kLaneDelay, [] {});
    rewound.testSetNextSeq(0);
    rewound.scheduleLane(0);
    rewound.run();
    EXPECT_TRUE(engine.fired("event.tiebreak"));
}

} // namespace
