/**
 * @file
 * Integration tests: full simulations across every benchmark and
 * contention manager must complete, conserve work, account time
 * sanely, and be bit-reproducible.
 */

#include <gtest/gtest.h>

#include "cm/factory.h"
#include "runner/experiment.h"
#include "workloads/stamp.h"

namespace {

runner::RunOptions
quick()
{
    runner::RunOptions options;
    options.txPerThread = 12;
    return options;
}

TEST(Simulation, CompletesAndConservesCommits)
{
    const runner::SimResults results =
        runner::runStamp("Intruder", cm::CmKind::BfgtsHw, quick());
    // Every thread commits exactly its quota.
    EXPECT_EQ(results.commits, 64u * 12u);
    EXPECT_GT(results.runtime, 0u);
}

TEST(Simulation, BreakdownCoversMachineCapacity)
{
    const runner::SimResults results =
        runner::runStamp("Delaunay", cm::CmKind::BfgtsSw, quick());
    const sim::Cycles capacity = 16u * results.runtime;
    const runner::Breakdown &b = results.breakdown;
    // idle is defined as capacity - busy, so the total matches
    // exactly unless busy accounting overshoots capacity.
    EXPECT_EQ(b.total(), capacity);
    // And busy work must be a sane share of the machine.
    EXPECT_GT(b.frac(b.tx) + b.frac(b.nonTx), 0.02);
}

TEST(Simulation, ContentionRateIsConsistent)
{
    const runner::SimResults results =
        runner::runStamp("Genome", cm::CmKind::Backoff, quick());
    const double expected =
        static_cast<double>(results.aborts)
        / static_cast<double>(results.aborts + results.commits);
    EXPECT_DOUBLE_EQ(results.contentionRate, expected);
}

TEST(Simulation, DeterministicAcrossRuns)
{
    const runner::SimResults a =
        runner::runStamp("Kmeans", cm::CmKind::BfgtsHw, quick());
    const runner::SimResults b =
        runner::runStamp("Kmeans", cm::CmKind::BfgtsHw, quick());
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.aborts, b.aborts);
    EXPECT_EQ(a.conflicts, b.conflicts);
    EXPECT_EQ(a.breakdown.kernel, b.breakdown.kernel);
}

TEST(Simulation, SeedChangesOutcome)
{
    runner::RunOptions opt_a = quick();
    runner::RunOptions opt_b = quick();
    opt_b.seed = 999;
    const runner::SimResults a =
        runner::runStamp("Vacation", cm::CmKind::Backoff, opt_a);
    const runner::SimResults b =
        runner::runStamp("Vacation", cm::CmKind::Backoff, opt_b);
    EXPECT_NE(a.runtime, b.runtime);
}

TEST(Simulation, NoStallTimeoutsInNormalRuns)
{
    for (cm::CmKind kind :
         {cm::CmKind::BfgtsHw, cm::CmKind::Pts}) {
        const runner::SimResults results =
            runner::runStamp("Intruder", kind, quick());
        EXPECT_EQ(results.stallTimeouts, 0u)
            << cm::cmKindName(kind);
    }
}

TEST(Simulation, SingleCpuSingleThreadHasNoContention)
{
    runner::RunOptions options;
    options.numCpus = 1;
    options.threadsPerCpu = 1;
    options.txPerThread = 40;
    const runner::SimResults results =
        runner::runStamp("Delaunay", cm::CmKind::Backoff, options);
    EXPECT_EQ(results.aborts, 0u);
    EXPECT_EQ(results.conflicts, 0u);
    EXPECT_DOUBLE_EQ(results.contentionRate, 0.0);
    EXPECT_EQ(results.breakdown.kernel, 0u);
}

TEST(Simulation, ParallelBeatsSerial)
{
    runner::RunOptions options;
    options.txPerThread = 12;
    const runner::SimResults baseline =
        runner::runSingleCoreBaseline("Vacation", options);
    const runner::SimResults parallel =
        runner::runStamp("Vacation", cm::CmKind::Backoff, options);
    EXPECT_GT(runner::speedupOverOneCore(parallel, baseline), 2.0);
}

TEST(Simulation, BaselineRunsAllTheWork)
{
    runner::RunOptions options;
    options.txPerThread = 5;
    const runner::SimResults baseline =
        runner::runSingleCoreBaseline("Ssca2", options);
    EXPECT_EQ(baseline.commits, 64u * 5u);
}

TEST(Simulation, MoreCpusRunFaster)
{
    runner::RunOptions small = quick();
    small.numCpus = 4;
    runner::RunOptions large = quick();
    large.numCpus = 16;
    // Same per-thread work; 16 CPUs host 64 threads vs 16 threads on
    // 4 CPUs -- compare total throughput instead: fix total threads.
    small.threadsPerCpu = 16; // 64 threads on 4 CPUs
    large.threadsPerCpu = 4;  // 64 threads on 16 CPUs
    const runner::SimResults s =
        runner::runStamp("Ssca2", cm::CmKind::Backoff, small);
    const runner::SimResults l =
        runner::runStamp("Ssca2", cm::CmKind::Backoff, large);
    EXPECT_LT(l.runtime, s.runtime);
}

TEST(Simulation, BloomBitsOptionReachesBfgts)
{
    runner::SimConfig config =
        runner::makeConfig("Genome", cm::CmKind::BfgtsHw, quick());
    EXPECT_EQ(config.tuning.bfgts.bloom.numBits, 2048u);
    runner::RunOptions options = quick();
    options.bloomBits = 512;
    config = runner::makeConfig("Genome", cm::CmKind::BfgtsHw,
                                options);
    EXPECT_EQ(config.tuning.bfgts.bloom.numBits, 512u);
}

TEST(Simulation, ValidateBoundsTheBloomHashCount)
{
    // The H3 family sizes its stack buffers for kMaxHashes functions.
    runner::SimConfig config =
        runner::makeConfig("Genome", cm::CmKind::BfgtsHw, quick());
    config.tuning.bfgts.bloom.numHashes =
        bloom::H3HashFamily::kMaxHashes;
    EXPECT_EQ(config.validate(), "");
    config.tuning.bfgts.bloom.numHashes =
        bloom::H3HashFamily::kMaxHashes + 1;
    EXPECT_NE(config.validate().find("bloom.numHashes"), std::string::npos);
    config.tuning.bfgts.bloom.numHashes = 0;
    EXPECT_NE(config.validate().find("bloom.numHashes"), std::string::npos);
}

TEST(Simulation, IntervalOptionReachesBfgts)
{
    runner::RunOptions options = quick();
    options.smallTxInterval = 10;
    runner::SimConfig config =
        runner::makeConfig("Genome", cm::CmKind::BfgtsHw, options);
    EXPECT_EQ(config.tuning.bfgts.smallTxInterval, 10);
}

TEST(Simulation, CustomWorkloadFactoryIsUsed)
{
    runner::SimConfig config;
    config.cm = cm::CmKind::Backoff;
    config.numCpus = 4;
    config.threadsPerCpu = 2;
    config.workloadFactory = [](int num_threads) {
        workloads::SyntheticParams params;
        params.name = "custom";
        params.txPerThread = 5;
        params.hotGroupLines = {32};
        workloads::SiteParams site;
        site.meanAccesses = 6;
        site.accessJitter = 1;
        site.nonTxWork = 200;
        params.sites = {site};
        return std::make_unique<workloads::SyntheticWorkload>(
            params, num_threads);
    };
    runner::Simulation simulation(config);
    const runner::SimResults results = simulation.run();
    EXPECT_EQ(results.workload, "custom");
    EXPECT_EQ(results.commits, 8u * 5u);
}

/** Every (benchmark, manager) cell completes without livelock. */
class FullMatrix
    : public ::testing::TestWithParam<
          std::tuple<std::string, cm::CmKind>>
{
};

TEST_P(FullMatrix, RunsToCompletion)
{
    const auto &[workload, kind] = GetParam();
    runner::RunOptions options;
    options.txPerThread = 6;
    const runner::SimResults results =
        runner::runStamp(workload, kind, options);
    EXPECT_EQ(results.commits, 64u * 6u);
    EXPECT_EQ(results.cm, cm::cmKindName(kind));
    EXPECT_EQ(results.workload, workload);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FullMatrix,
    ::testing::Combine(
        ::testing::ValuesIn(workloads::stampBenchmarkNames()),
        ::testing::ValuesIn(cm::allCmKinds())),
    [](const auto &info) {
        std::string name = std::get<0>(info.param);
        name += "_";
        std::string cm_name = cm::cmKindName(std::get<1>(info.param));
        for (char &c : cm_name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name + cm_name;
    });

TEST(CmFactory, NamesRoundTrip)
{
    for (cm::CmKind kind : cm::allCmKinds())
        EXPECT_EQ(cm::cmKindFromName(cm::cmKindName(kind)), kind);
}

TEST(CmFactory, IsBfgtsClassifiesCorrectly)
{
    EXPECT_FALSE(cm::isBfgts(cm::CmKind::Backoff));
    EXPECT_FALSE(cm::isBfgts(cm::CmKind::Ats));
    EXPECT_FALSE(cm::isBfgts(cm::CmKind::Pts));
    EXPECT_TRUE(cm::isBfgts(cm::CmKind::BfgtsSw));
    EXPECT_TRUE(cm::isBfgts(cm::CmKind::BfgtsHw));
    EXPECT_TRUE(cm::isBfgts(cm::CmKind::BfgtsHwBackoff));
    EXPECT_TRUE(cm::isBfgts(cm::CmKind::BfgtsNoOverhead));
}

TEST(CmFactoryDeath, UnknownNameIsFatal)
{
    EXPECT_DEATH((void)cm::cmKindFromName("NotACm"), "unknown");
}

} // namespace
