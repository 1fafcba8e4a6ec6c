/**
 * @file
 * Unit tests for the OS scheduler model: dispatch, yield, block/wake,
 * preemption, kernel-cost accounting and idle tracking.
 */

#include <gtest/gtest.h>

#include <vector>

#include "os/scheduler.h"

namespace {

using os::OsScheduler;
using os::SchedulerConfig;
using os::ThreadState;

/** A tiny harness: each dispatched thread runs a scripted action. */
class SchedulerTest : public ::testing::Test
{
  protected:
    SchedulerTest() : sched_(events_, config()) {}

    static SchedulerConfig
    config()
    {
        SchedulerConfig config;
        config.numCpus = 2;
        config.quantum = 1000;
        config.contextSwitchCost = 10;
        config.yieldCost = 5;
        config.blockCost = 20;
        config.wakeCost = 15;
        return config;
    }

    sim::EventQueue events_;
    OsScheduler sched_;
    std::vector<int> dispatches_;
};

TEST_F(SchedulerTest, ThreadsGetSequentialIds)
{
    EXPECT_EQ(sched_.addThread(0), 0);
    EXPECT_EQ(sched_.addThread(1), 1);
    EXPECT_EQ(sched_.addThread(0), 2);
    EXPECT_EQ(sched_.numThreads(), 3);
}

TEST_F(SchedulerTest, StartDispatchesFirstThreadPerCpu)
{
    sched_.addThread(0);
    sched_.addThread(1);
    sched_.addThread(0);
    sched_.setDispatchFn([&](sim::ThreadId tid) {
        dispatches_.push_back(tid);
        sched_.finishCurrent(tid);
    });
    sched_.start();
    events_.run();
    // All threads eventually run; first dispatches are 0 and 1.
    ASSERT_EQ(dispatches_.size(), 3u);
    EXPECT_EQ(dispatches_[0], 0);
    EXPECT_EQ(dispatches_[1], 1);
    EXPECT_EQ(dispatches_[2], 2);
    EXPECT_TRUE(sched_.allFinished());
}

TEST_F(SchedulerTest, YieldRotatesRoundRobin)
{
    sched_.addThread(0);
    sched_.addThread(0);
    int remaining = 6;
    sched_.setDispatchFn([&](sim::ThreadId tid) {
        dispatches_.push_back(tid);
        if (--remaining > 0)
            sched_.yieldCurrent(tid);
        else
            sched_.finishCurrent(tid);
    });
    sched_.start();
    events_.run(sim::kMaxTick, 1000);
    // Alternating 0,1,0,1,...
    ASSERT_GE(dispatches_.size(), 4u);
    for (std::size_t i = 0; i + 1 < dispatches_.size(); ++i)
        EXPECT_NE(dispatches_[i], dispatches_[i + 1]);
}

TEST_F(SchedulerTest, YieldAloneRedispatchesSelf)
{
    sched_.addThread(0);
    int count = 0;
    sched_.setDispatchFn([&](sim::ThreadId tid) {
        if (++count < 3)
            sched_.yieldCurrent(tid);
        else
            sched_.finishCurrent(tid);
    });
    sched_.start();
    events_.run();
    EXPECT_EQ(count, 3);
}

TEST_F(SchedulerTest, YieldChargesKernelCycles)
{
    sched_.addThread(0);
    sched_.setDispatchFn([&](sim::ThreadId tid) {
        if (sched_.thread(tid).yields == 0)
            sched_.yieldCurrent(tid);
        else
            sched_.finishCurrent(tid);
    });
    sched_.start();
    events_.run();
    EXPECT_EQ(sched_.thread(0).yields, 1u);
    EXPECT_EQ(sched_.thread(0).kernelCycles, 5u); // one yieldCost
}

TEST_F(SchedulerTest, ContextSwitchChargedToIncomingThread)
{
    sched_.addThread(0);
    sched_.addThread(0);
    sched_.setDispatchFn([&](sim::ThreadId tid) {
        dispatches_.push_back(tid);
        if (dispatches_.size() <= 2)
            sched_.yieldCurrent(tid);
        else
            sched_.finishCurrent(tid);
    });
    sched_.start();
    events_.run(sim::kMaxTick, 1000);
    // Thread 1 was switched in once after thread 0 ran.
    EXPECT_GE(sched_.thread(1).kernelCycles, 10u);
}

TEST_F(SchedulerTest, BlockAndWake)
{
    sched_.addThread(0);
    sched_.addThread(1);
    bool blocked_once = false;
    sched_.setDispatchFn([&](sim::ThreadId tid) {
        if (tid == 0 && !blocked_once) {
            blocked_once = true;
            sched_.blockCurrent(0);
            return;
        }
        if (tid == 1) {
            sched_.wake(0, 1);
            sched_.finishCurrent(1);
            return;
        }
        sched_.finishCurrent(tid);
    });
    sched_.start();
    events_.run();
    EXPECT_TRUE(sched_.allFinished());
    EXPECT_EQ(sched_.thread(0).blocks, 1u);
    // Waker paid the wake cost.
    EXPECT_GE(sched_.thread(1).kernelCycles, 15u);
}

TEST_F(SchedulerTest, WakeBeforeBlockIsNotLost)
{
    // Thread 1 wakes thread 0 while thread 0 is still Running
    // toward its block (signal-before-sleep).
    sched_.addThread(0);
    sched_.addThread(1);
    bool thread0_blocked = false;
    sched_.setDispatchFn([&](sim::ThreadId tid) {
        if (tid == 1) {
            sched_.wake(0, 1); // thread 0 is Running right now
            sched_.finishCurrent(1);
            return;
        }
        if (!thread0_blocked) {
            thread0_blocked = true;
            // The wake arrived during the begin-to-block window on
            // the other CPU at the same tick ordering.
            sched_.blockCurrent(0);
            return;
        }
        sched_.finishCurrent(0);
    });
    sched_.start();
    events_.run(sim::kMaxTick, 1000);
    EXPECT_TRUE(sched_.allFinished());
}

TEST_F(SchedulerTest, ShouldPreemptNeedsQuantumAndWaiter)
{
    sched_.addThread(0);
    sched_.addThread(0);
    sim::ThreadId running = sim::kNoThread;
    sched_.setDispatchFn([&](sim::ThreadId tid) { running = tid; });
    sched_.start();
    events_.run();
    ASSERT_EQ(running, 0);
    // Quantum not expired yet.
    EXPECT_FALSE(sched_.shouldPreempt(0));
}

TEST_F(SchedulerTest, PreemptAfterQuantum)
{
    sched_.addThread(0);
    sched_.addThread(0);
    std::vector<int> order;
    const sim::EventKind computed =
        events_.addKind([this, &order](std::uint32_t t) {
            const auto tid = static_cast<sim::ThreadId>(t);
            if (sched_.shouldPreempt(tid)) {
                sched_.preemptCurrent(tid);
            } else if (order.size() >= 4) {
                sched_.finishCurrent(tid);
            } else {
                sched_.yieldCurrent(tid);
            }
        });
    sched_.setDispatchFn([&](sim::ThreadId tid) {
        order.push_back(tid);
        if (order.size() >= 4) {
            sched_.finishCurrent(tid);
            return;
        }
        // Simulate compute until past the quantum, then check.
        events_.scheduleIn(1500, computed,
                           static_cast<std::uint32_t>(tid));
    });
    sched_.start();
    events_.run(sim::kMaxTick, 100);
    // Thread 0 ran past its quantum with thread 1 ready: preempted.
    EXPECT_GE(sched_.thread(0).preemptions, 1u);
    ASSERT_GE(order.size(), 2u);
    EXPECT_EQ(order[1], 1);
}

TEST_F(SchedulerTest, NoPreemptWithoutWaiters)
{
    sched_.addThread(0);
    bool checked = false;
    const sim::EventKind computed =
        events_.addKind([this, &checked](std::uint32_t t) {
            const auto tid = static_cast<sim::ThreadId>(t);
            checked = true;
            EXPECT_FALSE(sched_.shouldPreempt(tid));
            sched_.finishCurrent(tid);
        });
    sched_.setDispatchFn([&](sim::ThreadId tid) {
        events_.scheduleIn(5000, computed,
                           static_cast<std::uint32_t>(tid));
    });
    sched_.start();
    events_.run();
    EXPECT_TRUE(checked);
}

TEST_F(SchedulerTest, IdleCyclesAccumulateWhileQueueEmpty)
{
    sched_.addThread(0);
    const sim::EventKind wake = events_.addKind([this](std::uint32_t t) {
        sched_.wake(static_cast<sim::ThreadId>(t));
    });
    sched_.setDispatchFn([&](sim::ThreadId tid) {
        sched_.blockCurrent(tid);
        // Wake it much later from a detached event.
        events_.scheduleIn(1000, wake, 0);
    });
    bool finished = false;
    sched_.start();
    // Replace dispatch behaviour after first block.
    sched_.setDispatchFn([&](sim::ThreadId tid) {
        if (!finished) {
            finished = true;
            sched_.blockCurrent(tid);
            events_.scheduleIn(1000, wake, 0);
        } else {
            sched_.finishCurrent(tid);
        }
    });
    events_.run(sim::kMaxTick, 100);
    EXPECT_GT(sched_.idleCycles(0), 500u);
}

TEST_F(SchedulerTest, RunningOnReflectsDispatch)
{
    sched_.addThread(0);
    sched_.setDispatchFn([&](sim::ThreadId tid) {
        EXPECT_EQ(sched_.runningOn(0), tid);
        sched_.finishCurrent(tid);
    });
    EXPECT_EQ(sched_.runningOn(0), sim::kNoThread);
    sched_.start();
    events_.run();
    EXPECT_EQ(sched_.runningOn(0), sim::kNoThread);
}

TEST_F(SchedulerTest, FinishCountsTowardsAllFinished)
{
    sched_.addThread(0);
    sched_.addThread(1);
    sched_.setDispatchFn(
        [&](sim::ThreadId tid) { sched_.finishCurrent(tid); });
    EXPECT_FALSE(sched_.allFinished());
    sched_.start();
    events_.run();
    EXPECT_TRUE(sched_.allFinished());
    EXPECT_EQ(sched_.thread(0).state, ThreadState::Finished);
}

} // namespace
