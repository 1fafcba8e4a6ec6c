/**
 * @file
 * Unit tests for the BFGTS contention manager: similarity-weighted
 * confidence learning, suspend decisions (Examples 1-2), conflict
 * handling (Example 3), commit bookkeeping (Example 4), the
 * small-transaction update interval, and the four variants.
 */

#include <gtest/gtest.h>

#include "cm/bfgts.h"
#include "cm_test_util.h"

namespace {

using cm::BeginAction;
using cm::BfgtsConfig;
using cm::BfgtsManager;
using cm::BfgtsVariant;

BfgtsConfig
baseConfig(BfgtsVariant variant)
{
    BfgtsConfig config;
    config.variant = variant;
    config.confThreshold = 50;
    config.incVal = 96.0;
    config.decayVal = 40.0;
    config.initialSimilarity = 0.5;
    config.smallTxLines = 10.0;
    config.smallTxInterval = 4;
    return config;
}

class BfgtsSwTest : public ::testing::Test
{
  protected:
    BfgtsSwTest()
        : manager_(machine_.ids, machine_.services(),
                   baseConfig(BfgtsVariant::Sw))
    {
    }

    std::vector<mem::Addr>
    lines(mem::Addr base, int n)
    {
        std::vector<mem::Addr> result;
        for (int i = 0; i < n; ++i)
            result.push_back(base + static_cast<mem::Addr>(i));
        return result;
    }

    cmtest::Machine machine_;
    BfgtsManager manager_;
};

TEST_F(BfgtsSwTest, VariantNames)
{
    EXPECT_STREQ(cm::bfgtsVariantName(BfgtsVariant::Sw), "BFGTS-SW");
    EXPECT_STREQ(cm::bfgtsVariantName(BfgtsVariant::Hw), "BFGTS-HW");
    EXPECT_STREQ(cm::bfgtsVariantName(BfgtsVariant::HwBackoff),
                 "BFGTS-HW/Backoff");
    EXPECT_STREQ(cm::bfgtsVariantName(BfgtsVariant::NoOverhead),
                 "BFGTS-NoOverhead");
    EXPECT_EQ(manager_.name(), "BFGTS-SW");
}

TEST_F(BfgtsSwTest, InitialStateIsNeutral)
{
    for (int row = 0; row < 4; ++row)
        for (int col = 0; col < 4; ++col)
            EXPECT_EQ(manager_.confidence(row, col), 0u);
    EXPECT_DOUBLE_EQ(manager_.similarityOf(machine_.tx(0, 0).dTx),
                     0.5);
    EXPECT_DOUBLE_EQ(manager_.avgSizeOf(machine_.tx(0, 0).dTx), 0.0);
}

TEST_F(BfgtsSwTest, ConflictRaisesConfidenceBothDirectionsBySim)
{
    const cm::TxInfo a = machine_.tx(0, 0), b = machine_.tx(1, 1);
    manager_.onConflictDetected(a, b);
    // inc = incVal * 0.5*(0.5+0.5) = 48.
    EXPECT_EQ(manager_.confidence(0, 1), 48u);
    EXPECT_EQ(manager_.confidence(1, 0), 48u);
    EXPECT_EQ(manager_.confidence(0, 0), 0u);
}

TEST_F(BfgtsSwTest, ConfidenceSaturatesAt255)
{
    const cm::TxInfo a = machine_.tx(0, 0), b = machine_.tx(1, 1);
    for (int i = 0; i < 20; ++i)
        manager_.onConflictDetected(a, b);
    EXPECT_EQ(manager_.confidence(0, 1), 255u);
}

TEST_F(BfgtsSwTest, BeginSerializesAgainstFlaggedRunningTx)
{
    const cm::TxInfo a = machine_.tx(0, 0), b = machine_.tx(1, 1);
    manager_.onConflictDetected(a, b);
    manager_.onConflictDetected(a, b); // conf 96 > 50
    machine_.start(manager_, b);
    cm::BeginDecision d = manager_.onTxBegin(a);
    EXPECT_NE(d.action, BeginAction::Proceed);
    EXPECT_EQ(d.waitOn, b.dTx);
}

TEST_F(BfgtsSwTest, BeginIgnoresUnflaggedRunningTx)
{
    const cm::TxInfo a = machine_.tx(0, 0), b = machine_.tx(1, 1);
    machine_.start(manager_, b);
    EXPECT_EQ(manager_.onTxBegin(a).action, BeginAction::Proceed);
}

TEST_F(BfgtsSwTest, SuspendDecaysConsultedEdge)
{
    const cm::TxInfo a = machine_.tx(0, 0), b = machine_.tx(1, 1);
    manager_.onConflictDetected(a, b);
    manager_.onConflictDetected(a, b); // conf 96
    machine_.start(manager_, b);
    manager_.onTxBegin(a); // suspend: decay = 40*(1-0.5) = 20
    EXPECT_EQ(manager_.confidence(0, 1), 76u);
    // The reverse edge is untouched by the suspend.
    EXPECT_EQ(manager_.confidence(1, 0), 96u);
}

TEST_F(BfgtsSwTest, RepeatedSuspendsRestoreOptimism)
{
    const cm::TxInfo a = machine_.tx(0, 0), b = machine_.tx(1, 1);
    manager_.onConflictDetected(a, b);
    manager_.onConflictDetected(a, b);
    machine_.start(manager_, b);
    int suspends = 0;
    while (manager_.onTxBegin(a).action != BeginAction::Proceed) {
        ++suspends;
        ASSERT_LT(suspends, 20);
    }
    // conf 96, decay 20/suspend, threshold 50: 3 suspends.
    EXPECT_EQ(suspends, 3);
}

TEST_F(BfgtsSwTest, DissimilarPairsDecayFaster)
{
    // Give thread 2's site-2 dTx a low similarity by committing two
    // disjoint sets, and thread 3's site-3 dTx a high one.
    const cm::TxInfo low = machine_.tx(2, 2);
    const cm::TxInfo high = machine_.tx(3, 3);
    manager_.onTxCommit(low, lines(0x1000, 20));
    manager_.onTxCommit(low, lines(0x2000, 20)); // disjoint
    manager_.onTxCommit(high, lines(0x3000, 20));
    manager_.onTxCommit(high, lines(0x3000, 20)); // identical
    EXPECT_LT(manager_.similarityOf(low.dTx),
              manager_.similarityOf(high.dTx));

    const cm::TxInfo a = machine_.tx(0, 0);
    // Push both edges over the serialization threshold.
    manager_.onConflictDetected(a, low);
    manager_.onConflictDetected(a, low);
    manager_.onConflictDetected(a, high);
    manager_.onConflictDetected(a, high);
    const std::uint32_t conf_low = manager_.confidence(0, 2);
    const std::uint32_t conf_high = manager_.confidence(0, 3);
    // Suspend once against each; the low-similarity edge decays more.
    machine_.start(manager_, low);
    manager_.onTxBegin(a);
    machine_.abort(manager_, low, a); // clear running
    machine_.start(manager_, high);
    manager_.onTxBegin(a);
    const std::uint32_t decay_low = conf_low
                                  - manager_.confidence(0, 2);
    const std::uint32_t decay_high = conf_high
                                   - manager_.confidence(0, 3);
    EXPECT_GT(decay_low, decay_high);
}

TEST_F(BfgtsSwTest, SimilarPairsLearnConflictsFaster)
{
    const cm::TxInfo low = machine_.tx(2, 2);
    const cm::TxInfo high = machine_.tx(3, 3);
    manager_.onTxCommit(low, lines(0x1000, 20));
    manager_.onTxCommit(low, lines(0x2000, 20));
    manager_.onTxCommit(high, lines(0x3000, 20));
    manager_.onTxCommit(high, lines(0x3000, 20));

    const cm::TxInfo a = machine_.tx(0, 0);
    manager_.onConflictDetected(a, low);
    const std::uint32_t inc_low = manager_.confidence(0, 2);
    manager_.onConflictDetected(a, high);
    const std::uint32_t inc_high = manager_.confidence(0, 3);
    EXPECT_GT(inc_high, inc_low);
}

TEST_F(BfgtsSwTest, StallForSmallHolderYieldForLarge)
{
    const cm::TxInfo a = machine_.tx(0, 0);
    const cm::TxInfo small_holder = machine_.tx(1, 1);
    const cm::TxInfo large_holder = machine_.tx(2, 2);
    manager_.onTxCommit(small_holder, lines(0x100, 4));
    manager_.onTxCommit(large_holder, lines(0x200, 40));

    for (int i = 0; i < 3; ++i) {
        manager_.onConflictDetected(a, small_holder);
        manager_.onConflictDetected(a, large_holder);
    }
    machine_.start(manager_, small_holder);
    EXPECT_EQ(manager_.onTxBegin(a).action, BeginAction::StallOn);
    machine_.abort(manager_, small_holder, a);

    machine_.start(manager_, large_holder);
    EXPECT_EQ(manager_.onTxBegin(a).action, BeginAction::YieldOn);
}

TEST_F(BfgtsSwTest, CommitUpdatesAvgSizeAsEwma)
{
    const cm::TxInfo a = machine_.tx(0, 0);
    manager_.onTxCommit(a, lines(0x100, 4));
    EXPECT_DOUBLE_EQ(manager_.avgSizeOf(a.dTx), 4.0);
    manager_.onTxCommit(a, lines(0x100, 12));
    EXPECT_DOUBLE_EQ(manager_.avgSizeOf(a.dTx), 8.0);
}

TEST_F(BfgtsSwTest, SimilarityConvergesForRepeatingSets)
{
    const cm::TxInfo a = machine_.tx(0, 0);
    // Large transaction (> smallTxLines) so similarity updates on
    // every commit.
    for (int i = 0; i < 8; ++i)
        manager_.onTxCommit(a, lines(0x5000, 24));
    EXPECT_GT(manager_.similarityOf(a.dTx), 0.85);
}

TEST_F(BfgtsSwTest, SimilarityDropsForJumpingSets)
{
    const cm::TxInfo a = machine_.tx(0, 0);
    for (int i = 0; i < 8; ++i) {
        manager_.onTxCommit(
            a, lines(0x5000 + static_cast<mem::Addr>(i) * 0x1000,
                     24));
    }
    EXPECT_LT(manager_.similarityOf(a.dTx), 0.15);
}

TEST_F(BfgtsSwTest, SmallTxSkipsSimilarityUpdates)
{
    const cm::TxInfo a = machine_.tx(0, 0);
    // 4-line transactions are small; interval = 4.
    for (int i = 0; i < 8; ++i)
        manager_.onTxCommit(a, lines(0x100, 4));
    EXPECT_GT(manager_.skippedSimUpdates().value(), 4u);
    EXPECT_LT(manager_.skippedSimUpdates().value(), 8u);
}

TEST_F(BfgtsSwTest, LargeTxAlwaysUpdatesSimilarity)
{
    const cm::TxInfo a = machine_.tx(0, 0);
    for (int i = 0; i < 8; ++i)
        manager_.onTxCommit(a, lines(0x100, 30));
    EXPECT_EQ(manager_.skippedSimUpdates().value(), 0u);
}

TEST_F(BfgtsSwTest, CommitConfirmsJustifiedSerialization)
{
    const cm::TxInfo a = machine_.tx(0, 0), b = machine_.tx(1, 1);
    manager_.onTxCommit(b, lines(0x100, 20)); // store b's filter
    manager_.onConflictDetected(a, b);
    manager_.onConflictDetected(a, b);
    machine_.start(manager_, b);
    manager_.onTxBegin(a); // suspend records waitingOn
    const std::uint32_t before = manager_.confidence(0, 1);
    manager_.onTxCommit(a, lines(0x100, 20)); // overlaps b
    EXPECT_GT(manager_.confidence(0, 1), before);
}

TEST_F(BfgtsSwTest, CommitWeakensDisprovenSerialization)
{
    const cm::TxInfo a = machine_.tx(0, 0), b = machine_.tx(1, 1);
    manager_.onTxCommit(b, lines(0x100, 20));
    manager_.onConflictDetected(a, b);
    manager_.onConflictDetected(a, b);
    machine_.start(manager_, b);
    manager_.onTxBegin(a);
    const std::uint32_t before = manager_.confidence(0, 1);
    manager_.onTxCommit(a, lines(0x900000, 20)); // disjoint from b
    EXPECT_LT(manager_.confidence(0, 1), before);
}

TEST_F(BfgtsSwTest, BeginCostIsSoftwareScan)
{
    const BfgtsConfig &config = manager_.config();
    cm::BeginDecision d = manager_.onTxBegin(machine_.tx(0, 0));
    EXPECT_EQ(d.cost.sched,
              config.swScanBase + 3 * config.swScanPerEntry);
}

TEST_F(BfgtsSwTest, CommitCostGrowsWithBloomSize)
{
    BfgtsConfig small_config = baseConfig(BfgtsVariant::Sw);
    small_config.bloom.numBits = 512;
    BfgtsConfig large_config = baseConfig(BfgtsVariant::Sw);
    large_config.bloom.numBits = 8192;
    BfgtsManager small_mgr(machine_.ids, machine_.services(),
                           small_config);
    BfgtsManager large_mgr(machine_.ids, machine_.services(),
                           large_config);
    const cm::TxInfo a = machine_.tx(0, 0);
    const sim::Cycles small_cost =
        small_mgr.onTxCommit(a, lines(0x100, 30)).sched;
    const sim::Cycles large_cost =
        large_mgr.onTxCommit(a, lines(0x100, 30)).sched;
    EXPECT_GT(large_cost, small_cost);
}

// ---- hardware variant --------------------------------------------------

class BfgtsHwTest : public ::testing::Test
{
  protected:
    BfgtsHwTest()
        : manager_(machine_.ids, machine_.services(),
                   baseConfig(BfgtsVariant::Hw))
    {
    }

    cmtest::Machine machine_;
    BfgtsManager manager_;
};

TEST_F(BfgtsHwTest, StartBroadcastsToPredictors)
{
    const cm::TxInfo a = machine_.tx(1, 2);
    machine_.start(manager_, a);
    EXPECT_EQ(machine_.predictors.cpuTableUpdates().value(), 1u);
    machine_.commit(manager_, a, {1, 2, 3});
    EXPECT_EQ(machine_.predictors.cpuTableUpdates().value(), 2u);
}

TEST_F(BfgtsHwTest, AbortAlsoBroadcastsEnd)
{
    const cm::TxInfo a = machine_.tx(1, 2);
    machine_.start(manager_, a);
    machine_.abort(manager_, a, machine_.tx(2, 1));
    EXPECT_EQ(machine_.predictors.cpuTableUpdates().value(), 2u);
}

TEST_F(BfgtsHwTest, HwBeginIsCheaperThanSwScan)
{
    BfgtsManager sw(machine_.ids, machine_.services(),
                    baseConfig(BfgtsVariant::Sw));
    const cm::TxInfo a = machine_.tx(0, 0);
    const sim::Cycles hw_cost = manager_.onTxBegin(a).cost.sched;
    const sim::Cycles sw_cost = sw.onTxBegin(a).cost.sched;
    EXPECT_LT(hw_cost, sw_cost);
}

TEST_F(BfgtsHwTest, PredictionUsesPredictorCounters)
{
    manager_.onTxBegin(machine_.tx(0, 0));
    EXPECT_EQ(machine_.predictors.predictions().value(), 1u);
}

TEST_F(BfgtsHwTest, HwSerializesLikeSw)
{
    const cm::TxInfo a = machine_.tx(0, 0), b = machine_.tx(1, 1);
    manager_.onConflictDetected(a, b);
    manager_.onConflictDetected(a, b);
    machine_.start(manager_, b);
    cm::BeginDecision d = manager_.onTxBegin(a);
    EXPECT_NE(d.action, BeginAction::Proceed);
    EXPECT_EQ(d.waitOn, b.dTx);
    EXPECT_EQ(machine_.predictors.conflictsPredicted().value(), 1u);
}

// ---- hybrid variant ----------------------------------------------------

class BfgtsHybridTest : public ::testing::Test
{
  protected:
    BfgtsHybridTest()
        : manager_(machine_.ids, machine_.services(), config())
    {
    }

    static BfgtsConfig
    config()
    {
        BfgtsConfig config = baseConfig(BfgtsVariant::HwBackoff);
        config.pressureAlpha = 0.5;
        config.pressureThreshold = 0.25;
        return config;
    }

    cmtest::Machine machine_;
    BfgtsManager manager_;
};

TEST_F(BfgtsHybridTest, LowPressureGatesPredictionOff)
{
    const cm::TxInfo a = machine_.tx(0, 0), b = machine_.tx(1, 1);
    // Teach a strong edge, but pressure is zero.
    manager_.onConflictDetected(a, b);
    manager_.onConflictDetected(a, b);
    // Reset pressure via commits (alpha decay).
    for (int i = 0; i < 10; ++i)
        manager_.onTxCommit(a, {});
    machine_.start(manager_, b);
    cm::BeginDecision d = manager_.onTxBegin(a);
    EXPECT_EQ(d.action, BeginAction::Proceed);
    EXPECT_GT(manager_.gatedBegins().value(), 0u);
}

TEST_F(BfgtsHybridTest, HighPressureEnablesBfgts)
{
    const cm::TxInfo a = machine_.tx(0, 0), b = machine_.tx(1, 1);
    manager_.onConflictDetected(a, b);
    manager_.onConflictDetected(a, b);
    // Aborts raise site-0 pressure past 0.25.
    manager_.onTxAbort(a, b);
    ASSERT_GT(manager_.pressure(0), 0.25);
    machine_.start(manager_, b);
    EXPECT_NE(manager_.onTxBegin(a).action, BeginAction::Proceed);
}

TEST_F(BfgtsHybridTest, PredictedConflictsRaisePressure)
{
    const cm::TxInfo a = machine_.tx(0, 0), b = machine_.tx(1, 1);
    manager_.onConflictDetected(a, b);
    manager_.onConflictDetected(a, b);
    manager_.onTxAbort(a, b);
    const double before = manager_.pressure(0);
    machine_.start(manager_, b);
    manager_.onTxBegin(a); // suspendTx raises pressure
    EXPECT_GT(manager_.pressure(0), before);
}

TEST_F(BfgtsHybridTest, CommitsLowerPressure)
{
    const cm::TxInfo a = machine_.tx(0, 0);
    manager_.onTxAbort(a, machine_.tx(1, 1));
    const double before = manager_.pressure(0);
    manager_.onTxCommit(a, {});
    EXPECT_LT(manager_.pressure(0), before);
}

TEST_F(BfgtsHybridTest, GatedCommitSkipsBloomWork)
{
    const cm::TxInfo a = machine_.tx(0, 0);
    std::vector<mem::Addr> big;
    for (mem::Addr line = 0; line < 30; ++line)
        big.push_back(line);
    // Pressure zero: the similarity machinery must be skipped.
    const sim::Cycles gated = manager_.onTxCommit(a, big).sched;
    // Raise pressure, commit again: full Bloom cost.
    for (int i = 0; i < 5; ++i)
        manager_.onTxAbort(a, machine_.tx(1, 1));
    const sim::Cycles engaged = manager_.onTxCommit(a, big).sched;
    EXPECT_GT(engaged, gated);
}

// ---- no-overhead variant -----------------------------------------------

class BfgtsNoOverheadTest : public ::testing::Test
{
  protected:
    BfgtsNoOverheadTest()
        : manager_(machine_.ids, machine_.services(),
                   baseConfig(BfgtsVariant::NoOverhead))
    {
    }

    cmtest::Machine machine_;
    BfgtsManager manager_;
};

TEST_F(BfgtsNoOverheadTest, AllCostsAreOneCycle)
{
    const cm::TxInfo a = machine_.tx(0, 0);
    EXPECT_LE(manager_.onTxBegin(a).cost.sched, 1u);
    std::vector<mem::Addr> set;
    for (mem::Addr line = 0; line < 30; ++line)
        set.push_back(line);
    EXPECT_LE(manager_.onTxCommit(a, set).sched, 2u);
    EXPECT_LE(manager_.onConflictDetected(a, machine_.tx(1, 1)).sched,
              1u);
}

TEST_F(BfgtsNoOverheadTest, PerfectSignaturesGiveExactSimilarity)
{
    const cm::TxInfo a = machine_.tx(0, 0);
    std::vector<mem::Addr> set;
    for (mem::Addr line = 0; line < 20; ++line)
        set.push_back(line);
    // Identical large sets repeatedly: similarity EWMA converges to
    // exactly 1 (no Bloom estimation noise).
    for (int i = 0; i < 12; ++i)
        manager_.onTxCommit(a, set);
    EXPECT_NEAR(manager_.similarityOf(a.dTx), 1.0, 1e-3);
}

TEST_F(BfgtsNoOverheadTest, SchedulingDecisionsStillHappen)
{
    const cm::TxInfo a = machine_.tx(0, 0), b = machine_.tx(1, 1);
    manager_.onConflictDetected(a, b);
    manager_.onConflictDetected(a, b);
    machine_.start(manager_, b);
    EXPECT_NE(manager_.onTxBegin(a).action, BeginAction::Proceed);
}

} // namespace
