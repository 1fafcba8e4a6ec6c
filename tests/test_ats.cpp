/**
 * @file
 * Unit tests for Adaptive Transaction Scheduling: conflict pressure
 * dynamics, the bypass path, the serialization token and the central
 * wait queue.
 */

#include <gtest/gtest.h>

#include "cm/ats.h"
#include "cm_test_util.h"

namespace {

using cm::AtsConfig;
using cm::AtsManager;
using cm::BeginAction;

class AtsTest : public ::testing::Test
{
  protected:
    AtsTest() : manager_(4, machine_.services(), config()) {}

    static AtsConfig
    config()
    {
        AtsConfig config;
        config.alpha = 0.5; // fast-moving for tests
        config.threshold = 0.5;
        return config;
    }

    /** Drive site 0's pressure above the threshold. */
    void
    raisePressure(htm::STxId stx = 0)
    {
        while (manager_.pressure(stx) <= config().threshold) {
            manager_.onTxAbort(machine_.tx(6, stx),
                               machine_.tx(7, stx));
        }
    }

    cmtest::Machine machine_;
    AtsManager manager_;
};

TEST_F(AtsTest, PressureStartsAtZero)
{
    for (int stx = 0; stx < 4; ++stx)
        EXPECT_DOUBLE_EQ(manager_.pressure(stx), 0.0);
}

TEST_F(AtsTest, AbortRaisesPressureCommitLowersIt)
{
    const cm::TxInfo tx = machine_.tx(0, 0);
    manager_.onTxAbort(tx, machine_.tx(1, 0));
    EXPECT_DOUBLE_EQ(manager_.pressure(0), 0.5);
    manager_.onTxAbort(tx, machine_.tx(1, 0));
    EXPECT_DOUBLE_EQ(manager_.pressure(0), 0.75);
    manager_.onTxCommit(tx, {});
    EXPECT_DOUBLE_EQ(manager_.pressure(0), 0.375);
}

TEST_F(AtsTest, PressureIsPerSite)
{
    manager_.onTxAbort(machine_.tx(0, 0), machine_.tx(1, 0));
    EXPECT_GT(manager_.pressure(0), 0.0);
    EXPECT_DOUBLE_EQ(manager_.pressure(1), 0.0);
}

TEST_F(AtsTest, ConflictDetectionAloneDoesNotMovePressure)
{
    manager_.onConflictDetected(machine_.tx(0, 0), machine_.tx(1, 0));
    EXPECT_DOUBLE_EQ(manager_.pressure(0), 0.0);
}

TEST_F(AtsTest, LowPressureBypassesQueue)
{
    cm::BeginDecision d = manager_.onTxBegin(machine_.tx(0, 0));
    EXPECT_EQ(d.action, BeginAction::Proceed);
    EXPECT_EQ(manager_.tokenHolder(), sim::kNoThread);
    EXPECT_EQ(manager_.queueLength(), 0u);
}

TEST_F(AtsTest, HighPressureTakesToken)
{
    raisePressure();
    cm::BeginDecision d = manager_.onTxBegin(machine_.tx(0, 0));
    EXPECT_EQ(d.action, BeginAction::Proceed);
    EXPECT_EQ(manager_.tokenHolder(), 0);
}

TEST_F(AtsTest, SecondHighPressureThreadBlocks)
{
    raisePressure();
    manager_.onTxBegin(machine_.tx(0, 0)); // takes token
    cm::BeginDecision d = manager_.onTxBegin(machine_.tx(1, 0));
    EXPECT_EQ(d.action, BeginAction::Block);
    EXPECT_EQ(manager_.queueLength(), 1u);
    EXPECT_GT(d.cost.kernel, 0u);
}

TEST_F(AtsTest, TokenHolderRetriesKeepToken)
{
    raisePressure();
    manager_.onTxBegin(machine_.tx(0, 0));
    machine_.start(manager_, machine_.tx(0, 0));
    machine_.abort(manager_, machine_.tx(0, 0), machine_.tx(1, 0));
    // Retry begin: still the holder, proceeds without queueing.
    cm::BeginDecision d = manager_.onTxBegin(machine_.tx(0, 0));
    EXPECT_EQ(d.action, BeginAction::Proceed);
    EXPECT_EQ(manager_.tokenHolder(), 0);
    EXPECT_EQ(manager_.queueLength(), 0u);
}

TEST_F(AtsTest, CommitReleasesTokenWhenQueueEmpty)
{
    raisePressure();
    manager_.onTxBegin(machine_.tx(0, 0));
    machine_.start(manager_, machine_.tx(0, 0));
    machine_.commit(manager_, machine_.tx(0, 0));
    EXPECT_EQ(manager_.tokenHolder(), sim::kNoThread);
}

TEST_F(AtsTest, CommitHandsTokenToQueueHead)
{
    raisePressure();
    manager_.onTxBegin(machine_.tx(0, 0));
    machine_.start(manager_, machine_.tx(0, 0));
    manager_.onTxBegin(machine_.tx(1, 0)); // blocks, queued
    manager_.onTxBegin(machine_.tx(2, 0)); // blocks, queued

    cm::CmCost cost = machine_.commit(manager_, machine_.tx(0, 0));
    EXPECT_GT(cost.kernel, 0u); // paid the wake
    EXPECT_EQ(manager_.queueLength(), 1u);

    // The woken head begins and inherits the token.
    cm::BeginDecision d = manager_.onTxBegin(machine_.tx(1, 0));
    EXPECT_EQ(d.action, BeginAction::Proceed);
    EXPECT_EQ(manager_.tokenHolder(), 1);
}

TEST_F(AtsTest, NonQueuedSitesBypassEvenWhileTokenHeld)
{
    raisePressure(0);
    manager_.onTxBegin(machine_.tx(0, 0)); // token for site-0 storm
    // Site 1 has no pressure: run freely.
    cm::BeginDecision d = manager_.onTxBegin(machine_.tx(3, 1));
    EXPECT_EQ(d.action, BeginAction::Proceed);
}

TEST_F(AtsTest, SerializationsCounted)
{
    raisePressure();
    manager_.onTxBegin(machine_.tx(0, 0));
    manager_.onTxBegin(machine_.tx(1, 0));
    EXPECT_EQ(manager_.serializations().value(), 2u);
}

TEST_F(AtsTest, AbortReturnsRandomizedBackoff)
{
    bool nonzero = false;
    for (int i = 0; i < 20; ++i) {
        cm::AbortResponse resp =
            manager_.onTxAbort(machine_.tx(0, 1), machine_.tx(1, 1));
        EXPECT_LT(resp.backoff, 2u * config().abortBackoff);
        nonzero |= resp.backoff > 0;
    }
    EXPECT_TRUE(nonzero);
}

} // namespace
