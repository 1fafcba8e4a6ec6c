/**
 * @file
 * Unit tests for the randomized exponential backoff manager.
 */

#include <gtest/gtest.h>

#include "cm/backoff.h"
#include "cm_test_util.h"

namespace {

using cm::BackoffConfig;
using cm::BackoffManager;

class BackoffTest : public ::testing::Test
{
  protected:
    BackoffTest() : manager_(machine_.services(), config()) {}

    static BackoffConfig
    config()
    {
        return BackoffConfig{.baseWindow = 100, .maxExponent = 4};
    }

    cmtest::Machine machine_;
    BackoffManager manager_;
};

TEST_F(BackoffTest, BeginAlwaysProceedsFree)
{
    for (int i = 0; i < 10; ++i) {
        cm::BeginDecision d = manager_.onTxBegin(machine_.tx(0, 0));
        EXPECT_EQ(d.action, cm::BeginAction::Proceed);
        EXPECT_EQ(d.cost.sched + d.cost.kernel, 0u);
    }
}

TEST_F(BackoffTest, WindowDoublesWithConsecutiveAborts)
{
    // Mean of samples from below(window) grows with the streak.
    const cm::TxInfo tx = machine_.tx(0, 0);
    const cm::TxInfo other = machine_.tx(1, 1);
    double first_mean = 0.0, fifth_mean = 0.0;
    constexpr int kTrials = 300;
    for (int trial = 0; trial < kTrials; ++trial) {
        manager_.onTxCommit(tx, {}); // reset streak
        first_mean += static_cast<double>(
            manager_.onTxAbort(tx, other).backoff);
        for (int i = 0; i < 3; ++i)
            manager_.onTxAbort(tx, other);
        fifth_mean += static_cast<double>(
            manager_.onTxAbort(tx, other).backoff);
    }
    first_mean /= kTrials;
    fifth_mean /= kTrials;
    // Streak 1 -> window 200 (mean ~100); streak >= 4 -> window
    // capped at 1600 (mean ~800).
    EXPECT_NEAR(first_mean, 100.0, 30.0);
    EXPECT_NEAR(fifth_mean, 800.0, 200.0);
}

TEST_F(BackoffTest, ExponentIsCapped)
{
    const cm::TxInfo tx = machine_.tx(2, 1);
    const cm::TxInfo other = machine_.tx(3, 2);
    for (int i = 0; i < 50; ++i) {
        sim::Cycles backoff = manager_.onTxAbort(tx, other).backoff;
        // Window never exceeds base << maxExponent = 1600.
        EXPECT_LT(backoff, 1600u);
    }
}

TEST_F(BackoffTest, CommitResetsStreak)
{
    const cm::TxInfo tx = machine_.tx(0, 0);
    const cm::TxInfo other = machine_.tx(1, 1);
    for (int i = 0; i < 10; ++i)
        manager_.onTxAbort(tx, other);
    manager_.onTxCommit(tx, {});
    // After the reset the next window is the base window again.
    double mean = 0.0;
    for (int trial = 0; trial < 300; ++trial) {
        mean += static_cast<double>(
            manager_.onTxAbort(tx, other).backoff);
        manager_.onTxCommit(tx, {});
    }
    EXPECT_NEAR(mean / 300.0, 100.0, 30.0);
}

TEST_F(BackoffTest, StreaksArePerThread)
{
    const cm::TxInfo enemy = machine_.tx(7, 3);
    for (int i = 0; i < 10; ++i)
        manager_.onTxAbort(machine_.tx(0, 0), enemy);
    // Thread 1's first abort still uses the base window.
    double mean = 0.0;
    for (int trial = 0; trial < 300; ++trial) {
        mean += static_cast<double>(
            manager_.onTxAbort(machine_.tx(1, 0), enemy).backoff);
        manager_.onTxCommit(machine_.tx(1, 0), {});
    }
    EXPECT_NEAR(mean / 300.0, 100.0, 30.0);
}

} // namespace
