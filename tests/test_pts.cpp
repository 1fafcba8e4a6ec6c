/**
 * @file
 * Unit tests for Proactive Transaction Scheduling: conflict-graph
 * updates, begin-time serialization, and commit-time Bloom
 * verification of serialization decisions.
 */

#include <gtest/gtest.h>

#include "cm/pts.h"
#include "cm_test_util.h"

namespace {

using cm::BeginAction;
using cm::PtsConfig;
using cm::PtsManager;

class PtsTest : public ::testing::Test
{
  protected:
    PtsTest()
        : manager_(machine_.ids, machine_.services(), config())
    {
    }

    static PtsConfig
    config()
    {
        PtsConfig config;
        config.confThreshold = 40;
        config.incVal = 48.0;
        config.decVal = 24.0;
        config.suspendDecay = 0.0; // keep edges stable for tests
        return config;
    }

    /** Commit @p tx with the line numbers in @p lines. */
    void
    commit(const cm::TxInfo &tx, std::vector<mem::Addr> lines)
    {
        manager_.onTxCommit(tx, lines);
    }

    cmtest::Machine machine_;
    PtsManager manager_;
};

TEST_F(PtsTest, GraphStartsEmpty)
{
    EXPECT_DOUBLE_EQ(
        manager_.confidence(machine_.tx(0, 0).dTx,
                            machine_.tx(1, 1).dTx),
        0.0);
}

TEST_F(PtsTest, ConflictStrengthensEdge)
{
    const cm::TxInfo a = machine_.tx(0, 0), b = machine_.tx(1, 1);
    manager_.onConflictDetected(a, b);
    EXPECT_DOUBLE_EQ(manager_.confidence(a.dTx, b.dTx), 48.0);
}

TEST_F(PtsTest, EdgeIsSymmetric)
{
    const cm::TxInfo a = machine_.tx(0, 0), b = machine_.tx(1, 1);
    manager_.onConflictDetected(a, b);
    EXPECT_DOUBLE_EQ(manager_.confidence(b.dTx, a.dTx),
                     manager_.confidence(a.dTx, b.dTx));
}

TEST_F(PtsTest, EdgesArePerDynamicPair)
{
    // Same sites, different threads: a distinct edge (the paper's
    // criticism of PTS's large dTxID-pair graph).
    manager_.onConflictDetected(machine_.tx(0, 0), machine_.tx(1, 1));
    EXPECT_DOUBLE_EQ(
        manager_.confidence(machine_.tx(2, 0).dTx,
                            machine_.tx(3, 1).dTx),
        0.0);
}

TEST_F(PtsTest, BeginSerializesAgainstHighConfidenceRunning)
{
    const cm::TxInfo a = machine_.tx(0, 0), b = machine_.tx(1, 1);
    manager_.onConflictDetected(a, b); // edge 48 > threshold 40
    machine_.start(manager_, b);
    cm::BeginDecision d = manager_.onTxBegin(a);
    EXPECT_NE(d.action, BeginAction::Proceed);
    EXPECT_EQ(d.waitOn, b.dTx);
    EXPECT_EQ(manager_.serializations().value(), 1u);
}

TEST_F(PtsTest, BeginIgnoresLowConfidenceRunning)
{
    const cm::TxInfo a = machine_.tx(0, 0), b = machine_.tx(1, 1);
    machine_.start(manager_, b);
    cm::BeginDecision d = manager_.onTxBegin(a);
    EXPECT_EQ(d.action, BeginAction::Proceed);
}

TEST_F(PtsTest, BeginCostScalesWithRunningTransactions)
{
    const cm::TxInfo a = machine_.tx(0, 0);
    const sim::Cycles empty_cost = manager_.onTxBegin(a).cost.sched;
    machine_.start(manager_, machine_.tx(1, 1));
    machine_.start(manager_, machine_.tx(2, 2));
    const sim::Cycles busy_cost = manager_.onTxBegin(a).cost.sched;
    EXPECT_GT(busy_cost, empty_cost);
}

TEST_F(PtsTest, SmallHolderStallsLargeHolderYields)
{
    const cm::TxInfo a = machine_.tx(0, 0);
    const cm::TxInfo small_holder = machine_.tx(1, 1);
    const cm::TxInfo large_holder = machine_.tx(2, 2);
    // Teach holder sizes via commits: 4 lines vs 30 lines.
    commit(small_holder, {1, 2, 3, 4});
    std::vector<mem::Addr> big;
    for (mem::Addr line = 100; line < 130; ++line)
        big.push_back(line);
    commit(large_holder, big);

    manager_.onConflictDetected(a, small_holder);
    machine_.start(manager_, small_holder);
    EXPECT_EQ(manager_.onTxBegin(a).action, BeginAction::StallOn);
    machine_.abort(manager_, small_holder, a); // clears the CPU Table

    manager_.onConflictDetected(a, large_holder);
    machine_.start(manager_, large_holder);
    EXPECT_EQ(manager_.onTxBegin(a).action, BeginAction::YieldOn);
}

TEST_F(PtsTest, CommitConfirmsJustifiedSerialization)
{
    const cm::TxInfo a = machine_.tx(0, 0), b = machine_.tx(1, 1);
    // b commits lines {1..8}; its Bloom filter is stored.
    commit(b, {1, 2, 3, 4, 5, 6, 7, 8});
    manager_.onConflictDetected(a, b);
    machine_.start(manager_, b);
    manager_.onTxBegin(a); // serializes behind b, waitedOn recorded
    const double before = manager_.confidence(a.dTx, b.dTx);
    // a commits an overlapping set: serialization was justified.
    commit(a, {4, 5, 99});
    EXPECT_GT(manager_.confidence(a.dTx, b.dTx), before);
}

TEST_F(PtsTest, CommitWeakensDisprovenSerialization)
{
    const cm::TxInfo a = machine_.tx(0, 0), b = machine_.tx(1, 1);
    commit(b, {1, 2, 3, 4});
    // a's previous commit overlapped b's set; its filter is refilled
    // in place, so only the commit below may count.
    commit(a, {1, 2, 3, 4});
    manager_.onConflictDetected(a, b);
    machine_.start(manager_, b);
    manager_.onTxBegin(a);
    const double before = manager_.confidence(a.dTx, b.dTx);
    // a's set is far away from b's: serialization was wasted.
    commit(a, {0x900001, 0x900002, 0x900003});
    EXPECT_LT(manager_.confidence(a.dTx, b.dTx), before);
}

TEST_F(PtsTest, ConfidenceSaturatesAtBounds)
{
    const cm::TxInfo a = machine_.tx(0, 0), b = machine_.tx(1, 1);
    for (int i = 0; i < 100; ++i)
        manager_.onConflictDetected(a, b);
    EXPECT_DOUBLE_EQ(manager_.confidence(a.dTx, b.dTx), 255.0);
}

TEST_F(PtsTest, CommitTracksAverageSize)
{
    const cm::TxInfo a = machine_.tx(0, 0);
    commit(a, {1, 2, 3, 4});
    commit(a, {1, 2, 3, 4, 5, 6, 7, 8});
    // EWMA: 0.5*(4+8) = 6; exposed indirectly via the stall/yield
    // decision of a waiter (avg 6 < smallTxLines 10 -> stall).
    const cm::TxInfo waiter = machine_.tx(1, 1);
    manager_.onConflictDetected(waiter, a);
    machine_.start(manager_, a);
    EXPECT_EQ(manager_.onTxBegin(waiter).action,
              BeginAction::StallOn);
}

TEST_F(PtsTest, AbortKeepsWaitHistoryForRetry)
{
    const cm::TxInfo a = machine_.tx(0, 0), b = machine_.tx(1, 1);
    commit(b, {1, 2, 3});
    manager_.onConflictDetected(a, b);
    machine_.start(manager_, b);
    manager_.onTxBegin(a); // waits behind b
    machine_.start(manager_, a);
    machine_.abort(manager_, a, b);
    const double before = manager_.confidence(a.dTx, b.dTx);
    // The eventual commit still verifies the earlier serialization.
    commit(a, {2, 50});
    EXPECT_GT(manager_.confidence(a.dTx, b.dTx), before);
}

} // namespace
