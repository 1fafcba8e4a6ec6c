/**
 * @file
 * Tests of the host-performance profiler (src/sim/profiler.h).
 *
 * The wall-clock parts run against a scripted fake clock, so nesting
 * and self-time attribution are checked exactly; the integration
 * tests assert the observational contract -- attaching a profiler
 * (real clock) never changes deterministic results, and a profiled
 * sweep neither perturbs the cache key nor re-executes warm cells.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "htm/tx_id.h"
#include "runner/experiment.h"
#include "runner/simulation.h"
#include "runner/sweep.h"
#include "sim/profiler.h"

namespace {

/** Scripted clock: tests advance g_fake_now between profiler calls
 *  (ClockFn is a plain function pointer, hence the global). */
std::uint64_t g_fake_now = 0;

std::uint64_t
fakeClock()
{
    return g_fake_now;
}

TEST(ProfilerTest, SelfTimeAttributionAcrossNestedPhases)
{
    g_fake_now = 1000;
    sim::Profiler prof(&fakeClock);
    prof.beginRun();

    // 100 ns in cm_commit before Bloom work starts...
    prof.enter(sim::Profiler::kCmCommit);
    g_fake_now += 100;
    // ...300 ns of nested Bloom work...
    prof.enter(sim::Profiler::kBloom);
    g_fake_now += 300;
    prof.exit();
    // ...and 50 more ns of commit tail after the Bloom scope.
    g_fake_now += 50;
    prof.exit();

    // 200 ns of unattributed run loop, then the run ends.
    g_fake_now += 200;
    prof.endRun(/*events_executed=*/10, /*final_tick=*/650);

    const sim::Profiler::Data &data = prof.data();
    EXPECT_EQ(data.wallNs, 650u);
    EXPECT_EQ(data.phaseNs[sim::Profiler::kCmCommit], 150u);
    EXPECT_EQ(data.phaseNs[sim::Profiler::kBloom], 300u);
    EXPECT_EQ(data.phaseCalls[sim::Profiler::kCmCommit], 1u);
    EXPECT_EQ(data.phaseCalls[sim::Profiler::kBloom], 1u);
    EXPECT_EQ(data.otherNs(), 200u);
    EXPECT_EQ(data.events, 10u);
    EXPECT_EQ(data.ticks, 650u);
    EXPECT_DOUBLE_EQ(data.wallNsPerCycle(), 1.0);

    // Self-time shares plus "other" cover the whole run loop.
    double share_sum = 0.0;
    for (int p = 0; p <= sim::Profiler::kNumPhases; ++p)
        share_sum += data.share(p);
    EXPECT_DOUBLE_EQ(share_sum, 1.0);
}

TEST(ProfilerTest, ScopedPhaseIsNullSafe)
{
    // The hook pattern used at every site: a null profiler must be a
    // no-op, not a crash.
    sim::ScopedPhase phase(nullptr, sim::Profiler::kMem);
}

TEST(ProfilerTest, UnbalancedExitIsIgnored)
{
    g_fake_now = 0;
    sim::Profiler prof(&fakeClock);
    prof.beginRun();
    prof.exit(); // stray exit at depth 0
    g_fake_now = 100;
    prof.endRun(1, 100);
    for (std::uint64_t ns : prof.data().phaseNs)
        EXPECT_EQ(ns, 0u);
    EXPECT_EQ(prof.data().otherNs(), 100u);
}

TEST(ProfilerTest, RecordBytesKeepsHighWater)
{
    sim::Profiler prof(&fakeClock);
    prof.recordBytes(sim::Profiler::kStructEventQueue, 100);
    prof.recordBytes(sim::Profiler::kStructEventQueue, 50);
    EXPECT_EQ(
        prof.data().structBytes[sim::Profiler::kStructEventQueue],
        100u);
    prof.recordBytes(sim::Profiler::kStructEventQueue, 200);
    EXPECT_EQ(
        prof.data().structBytes[sim::Profiler::kStructEventQueue],
        200u);
}

TEST(ProfilerTest, PeakRssIsPositiveAndMonotonic)
{
    sim::Profiler prof(&fakeClock);
    prof.samplePeakRss();
    const std::uint64_t first = prof.data().peakRssBytes;
    EXPECT_GT(first, 0u) << "getrusage should report a peak RSS";
    // Touch some memory, re-sample: the gauge may grow, never shrink.
    std::vector<char> ballast(4 * 1024 * 1024, 1);
    prof.samplePeakRss();
    EXPECT_GE(prof.data().peakRssBytes, first);
    EXPECT_GT(ballast.size(), 0u);
}

TEST(ProfilerTest, MinMedianMax)
{
    const sim::MinMedMax odd = sim::minMedianMax({3.0, 1.0, 2.0});
    EXPECT_DOUBLE_EQ(odd.min, 1.0);
    EXPECT_DOUBLE_EQ(odd.median, 2.0);
    EXPECT_DOUBLE_EQ(odd.max, 3.0);

    const sim::MinMedMax even =
        sim::minMedianMax({4.0, 1.0, 3.0, 2.0});
    EXPECT_DOUBLE_EQ(even.min, 1.0);
    EXPECT_DOUBLE_EQ(even.median, 2.5);
    EXPECT_DOUBLE_EQ(even.max, 4.0);

    const sim::MinMedMax empty = sim::minMedianMax({});
    EXPECT_DOUBLE_EQ(empty.min, 0.0);
    EXPECT_DOUBLE_EQ(empty.median, 0.0);
    EXPECT_DOUBLE_EQ(empty.max, 0.0);
}

TEST(ProfilerTest, RunReportIsSchemaShaped)
{
    g_fake_now = 0;
    sim::Profiler prof(&fakeClock);
    prof.beginRun();
    prof.enter(sim::Profiler::kEventQueue);
    g_fake_now = 500;
    prof.exit();
    prof.endRun(4, 1000);

    std::ostringstream os;
    prof.writeReport(os, "unit");
    const std::string report = os.str();
    EXPECT_NE(report.find("\"schema\": \"bfgts-prof-v1\""),
              std::string::npos);
    EXPECT_NE(report.find("\"kind\": \"run\""), std::string::npos);
    EXPECT_NE(report.find("\"event_queue\""), std::string::npos);
    EXPECT_NE(report.find("\"other\""), std::string::npos);
    EXPECT_NE(report.find("\"peakRssBytes\""), std::string::npos);
}

// ---- integration: profiling is observational --------------------------

runner::RunOptions
smallOptions()
{
    runner::RunOptions options;
    options.numCpus = 4;
    options.threadsPerCpu = 2;
    options.txPerThread = 6;
    return options;
}

std::string
resultsString(const runner::SimResults &results)
{
    std::ostringstream os;
    runner::writeSweepResults(os, results);
    return os.str();
}

TEST(ProfilerIntegrationTest, ProfiledRunLeavesResultsIdentical)
{
    const runner::RunOptions options = smallOptions();
    const runner::SimResults plain =
        runner::runStamp("Intruder", cm::CmKind::BfgtsHw, options);

    sim::Profiler prof;
    const runner::SimResults profiled = runner::runStamp(
        "Intruder", cm::CmKind::BfgtsHw, options, &prof);

    EXPECT_EQ(resultsString(plain), resultsString(profiled));

    // The profiler actually measured the run it rode along on.
    const sim::Profiler::Data &data = prof.data();
    EXPECT_GT(data.wallNs, 0u);
    EXPECT_GT(data.events, 0u);
    EXPECT_EQ(data.ticks,
              static_cast<std::uint64_t>(profiled.runtime));
    EXPECT_GT(data.phaseCalls[sim::Profiler::kEventQueue], 0u);
    EXPECT_GT(data.phaseCalls[sim::Profiler::kCmDecide], 0u);
    EXPECT_GT(data.peakRssBytes, 0u);
    EXPECT_GT(data.structBytes[sim::Profiler::kStructEventQueue], 0u);
    EXPECT_GT(data.structBytes[sim::Profiler::kPredictorCaches], 0u);
}

TEST(ProfilerIntegrationTest, ByteGaugesReportTheManagersOwnStructures)
{
    // PTS holds a conflict graph of one double per dTxID pair and a
    // filter per committed dTxID, and no predictor caches.
    runner::SimConfig config =
        runner::makeConfig("Intruder", cm::CmKind::Pts, smallOptions());
    sim::Profiler prof;
    config.profiler = &prof;
    runner::Simulation simulation(config);
    simulation.run();

    const htm::TxIdSpace ids(simulation.workload().numStaticTx(),
                             config.numThreads());
    const auto n = static_cast<std::uint64_t>(ids.numDynamicTx());
    const sim::Profiler::Data &data = prof.data();
    EXPECT_EQ(data.structBytes[sim::Profiler::kConfidenceTables],
              n * (n + 1) / 2 * sizeof(double));
    EXPECT_GT(data.structBytes[sim::Profiler::kBloomSignatures], 0u);
    EXPECT_EQ(data.structBytes[sim::Profiler::kPredictorCaches], 0u);
}

class ProfilerSweepTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // One directory per test and process: ctest -j runs the
        // discovered cases of this fixture concurrently.
        cacheDir_ = std::filesystem::temp_directory_path()
                  / ("bfgts_profiler_cache_"
                     + std::string(::testing::UnitTest::GetInstance()
                                       ->current_test_info()
                                       ->name())
                     + "_" + std::to_string(::getpid()));
        std::filesystem::remove_all(cacheDir_);
    }

    void TearDown() override { std::filesystem::remove_all(cacheDir_); }

    std::vector<runner::SweepCell>
    matrix() const
    {
        std::vector<runner::SweepCell> cells;
        for (const char *workload : {"Intruder", "Genome"}) {
            runner::SweepCell cell;
            cell.workload = workload;
            cell.cm = cm::CmKind::BfgtsHw;
            cell.options = smallOptions();
            cells.push_back(cell);
        }
        return cells;
    }

    std::filesystem::path cacheDir_;
};

TEST_F(ProfilerSweepTest, ProfileDoesNotPerturbCacheKeyOrResults)
{
    // Cold pass without profiling fills the cache.
    runner::SweepOptions cold;
    cold.cacheDir = cacheDir_.string();
    runner::SweepRunner first(cold);
    const auto plain = first.run(matrix());
    ASSERT_EQ(first.stats().executed, 2);

    // Warm profiled pass: same cache keys, so every cell is a hit,
    // nothing executes, results match byte for byte, and no profile
    // is recorded (there was no execution to measure).
    runner::SweepOptions warm = cold;
    warm.profile = true;
    runner::SweepRunner second(warm);
    const auto cached = second.run(matrix());
    EXPECT_EQ(second.stats().executed, 0);
    EXPECT_EQ(second.stats().cacheHits, 2);
    ASSERT_EQ(cached.size(), plain.size());
    for (std::size_t i = 0; i < cached.size(); ++i) {
        EXPECT_TRUE(cached[i].fromCache);
        EXPECT_EQ(resultsString(cached[i].results),
                  resultsString(plain[i].results));
        EXPECT_FALSE(cached[i].profile.has_value());
    }
}

TEST_F(ProfilerSweepTest, ProfiledCellsCarryDataAndAggregate)
{
    runner::SweepOptions options;
    options.profile = true;
    options.jobs = 2;
    runner::SweepRunner sweep(options);
    const auto results = sweep.run(matrix());
    ASSERT_EQ(results.size(), 2u);
    for (const runner::SweepCellResult &result : results) {
        ASSERT_TRUE(result.ok);
        ASSERT_TRUE(result.profile.has_value());
        EXPECT_GT(result.profile->wallNs, 0u);
        EXPECT_GT(result.profile->events, 0u);
    }

    std::ostringstream os;
    sweep.writeProfileReport(os, "unit-sweep");
    const std::string report = os.str();
    EXPECT_NE(report.find("\"schema\": \"bfgts-prof-v1\""),
              std::string::npos);
    EXPECT_NE(report.find("\"kind\": \"sweep\""), std::string::npos);
    EXPECT_NE(report.find("\"profiledCells\": 2"), std::string::npos);
    EXPECT_NE(report.find("\"aggregate\""), std::string::npos);
    EXPECT_NE(report.find("\"median\""), std::string::npos);
}

TEST_F(ProfilerSweepTest, SweepReportIdenticalWithAndWithoutProfile)
{
    runner::SweepOptions plain_options;
    runner::SweepRunner plain(plain_options);
    plain.run(matrix());
    std::ostringstream plain_report;
    plain.writeReport(plain_report, "unit-sweep");

    runner::SweepOptions prof_options;
    prof_options.profile = true;
    runner::SweepRunner profiled(prof_options);
    profiled.run(matrix());
    std::ostringstream prof_report;
    profiled.writeReport(prof_report, "unit-sweep");

    EXPECT_EQ(plain_report.str(), prof_report.str());
}

} // namespace
