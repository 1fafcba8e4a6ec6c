/**
 * @file
 * Tests for the experiment drivers (src/runner/experiment.h):
 * RunOptions -> SimConfig mapping and the single-core baseline's
 * equal-total-work invariant.
 */

#include <gtest/gtest.h>

#include "runner/experiment.h"
#include "workloads/stamp.h"

namespace {

runner::RunOptions
smallOptions()
{
    runner::RunOptions options;
    options.numCpus = 4;
    options.threadsPerCpu = 2;
    options.txPerThread = 5;
    return options;
}

TEST(ExperimentTest, MakeConfigMapsEveryKnob)
{
    runner::RunOptions options = smallOptions();
    options.seed = 42;
    options.bloomBits = 512;
    options.smallTxInterval = 10;
    options.tuning.bfgts.confTableSlots = 3;

    const runner::SimConfig config =
        runner::makeConfig("Intruder", cm::CmKind::Pts, options);
    EXPECT_EQ(config.workload, "Intruder");
    EXPECT_EQ(config.cm, cm::CmKind::Pts);
    EXPECT_EQ(config.numCpus, 4);
    EXPECT_EQ(config.threadsPerCpu, 2);
    EXPECT_EQ(config.seed, 42u);
    EXPECT_EQ(config.txPerThreadOverride, 5);
    EXPECT_EQ(config.tuning.bfgts.bloom.numBits, 512u);
    EXPECT_EQ(config.tuning.bfgts.smallTxInterval, 10);
    EXPECT_EQ(config.tuning.bfgts.confTableSlots, 3);

    // 0 means "keep the tuning default", not "set to zero".
    runner::RunOptions defaults = smallOptions();
    const runner::SimConfig def_config =
        runner::makeConfig("Intruder", cm::CmKind::BfgtsHw, defaults);
    EXPECT_EQ(def_config.tuning.bfgts.bloom.numBits,
              cm::CmTuning{}.bfgts.bloom.numBits);
    EXPECT_EQ(def_config.tuning.bfgts.smallTxInterval,
              cm::CmTuning{}.bfgts.smallTxInterval);
}

TEST(ExperimentTest, BaselineRunsSameTotalWorkOnOneCore)
{
    const auto options = smallOptions();
    const runner::SimResults base =
        runner::runSingleCoreBaseline("Intruder", options);
    // One thread, all the work: 4 CPUs x 2 threads x 5 tx.
    EXPECT_EQ(base.commits, 4u * 2u * 5u);
    // A single thread can't conflict with anyone.
    EXPECT_EQ(base.aborts, 0u);

    const runner::SimResults parallel =
        runner::runStamp("Intruder", cm::CmKind::Backoff, options);
    EXPECT_EQ(parallel.commits, base.commits);
    EXPECT_GT(runner::speedupOverOneCore(parallel, base), 0.0);
}

} // namespace
