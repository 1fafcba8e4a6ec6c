/**
 * @file
 * Differential tests of the sweep engine (src/runner/sweep.h): host
 * parallelism and the on-disk cache must be invisible in the results.
 * A sweep run with 8 workers must produce a byte-identical JSON
 * report and identical per-cell results to the same sweep run with 1
 * worker, a warm cache must answer every cell without executing
 * a single simulation, and a partly warm one must execute exactly the
 * cells it lacks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/sweep.h"
#include "workloads/stamp.h"

namespace {

/** Small-but-contended options so each cell runs in milliseconds. */
runner::RunOptions
smallOptions()
{
    runner::RunOptions options;
    options.numCpus = 4;
    options.threadsPerCpu = 2;
    options.txPerThread = 6;
    return options;
}

/** A small mixed matrix: baselines plus a (workload, cm) grid. */
std::vector<runner::SweepCell>
smallMatrix()
{
    const std::vector<std::string> names{"Intruder", "Genome",
                                         "Kmeans"};
    const std::vector<cm::CmKind> managers{
        cm::CmKind::Backoff, cm::CmKind::Pts, cm::CmKind::BfgtsHw};
    std::vector<runner::SweepCell> cells;
    for (const std::string &name : names) {
        runner::SweepCell cell;
        cell.workload = name;
        cell.options = smallOptions();
        cell.baseline = true;
        cells.push_back(cell);
    }
    for (const std::string &name : names) {
        for (cm::CmKind kind : managers) {
            runner::SweepCell cell;
            cell.workload = name;
            cell.cm = kind;
            cell.options = smallOptions();
            cells.push_back(cell);
        }
    }
    return cells;
}

/** Every field of a SimResults, flattened for comparison. */
std::string
digest(const runner::SimResults &r)
{
    std::ostringstream os;
    runner::writeSweepResults(os, r);
    return os.str();
}

/** Run the small matrix with @p options; returns (digests, report). */
std::pair<std::vector<std::string>, std::string>
runSmallMatrix(const runner::SweepOptions &options,
               runner::SweepStats *stats = nullptr)
{
    runner::SweepRunner sweep(options);
    const auto results = sweep.run(smallMatrix());
    std::vector<std::string> digests;
    for (const runner::SweepCellResult &result : results) {
        EXPECT_TRUE(result.ok) << result.error;
        digests.push_back(digest(result.results));
    }
    std::ostringstream report;
    sweep.writeReport(report, "test-sweep");
    if (stats != nullptr)
        *stats = sweep.stats();
    return {digests, report.str()};
}

TEST(SweepTest, ParallelReportByteIdenticalToSerial)
{
    runner::SweepOptions serial;
    serial.jobs = 1;
    runner::SweepOptions parallel;
    parallel.jobs = 8;

    const auto [serial_digests, serial_report] =
        runSmallMatrix(serial);
    const auto [parallel_digests, parallel_report] =
        runSmallMatrix(parallel);

    ASSERT_EQ(serial_digests.size(), parallel_digests.size());
    for (std::size_t i = 0; i < serial_digests.size(); ++i)
        EXPECT_EQ(serial_digests[i], parallel_digests[i])
            << "cell " << i;
    EXPECT_EQ(serial_report, parallel_report);
    EXPECT_FALSE(serial_report.empty());
}

TEST(SweepTest, WarmCacheAnswersEverythingWithoutExecuting)
{
    const std::string cache_dir =
        ::testing::TempDir() + "/sweep_cache_warm";
    std::filesystem::remove_all(cache_dir);

    runner::SweepOptions options;
    options.jobs = 2;
    options.cacheDir = cache_dir;

    runner::SweepStats cold_stats;
    const auto [cold_digests, cold_report] =
        runSmallMatrix(options, &cold_stats);
    EXPECT_EQ(cold_stats.executed,
              static_cast<int>(cold_digests.size()));
    EXPECT_EQ(cold_stats.cacheHits, 0);

    runner::SweepStats warm_stats;
    const auto [warm_digests, warm_report] =
        runSmallMatrix(options, &warm_stats);
    EXPECT_EQ(warm_stats.executed, 0);
    EXPECT_EQ(warm_stats.cacheHits,
              static_cast<int>(warm_digests.size()));

    ASSERT_EQ(cold_digests.size(), warm_digests.size());
    for (std::size_t i = 0; i < cold_digests.size(); ++i)
        EXPECT_EQ(cold_digests[i], warm_digests[i]) << "cell " << i;
    EXPECT_EQ(cold_report, warm_report);
    std::filesystem::remove_all(cache_dir);
}

TEST(SweepTest, PartialCacheExecutesOnlyMissingCells)
{
    // An interrupted sweep leaves some cells cached and others not.
    // Rerunning the matrix on that cache must execute exactly the
    // missing cells and write the uninterrupted run's report bytes.
    const std::string cache_dir =
        ::testing::TempDir() + "/sweep_cache_partial";
    std::filesystem::remove_all(cache_dir);

    runner::SweepOptions options;
    options.jobs = 2;
    options.cacheDir = cache_dir;

    runner::SweepStats cold_stats;
    const auto [cold_digests, cold_report] =
        runSmallMatrix(options, &cold_stats);
    const int cells = static_cast<int>(cold_digests.size());
    EXPECT_EQ(cold_stats.executed, cells);

    std::vector<std::filesystem::path> entries;
    for (const auto &entry :
         std::filesystem::directory_iterator(cache_dir)) {
        if (entry.path().extension() == ".cell")
            entries.push_back(entry.path());
    }
    ASSERT_EQ(static_cast<int>(entries.size()), cells);
    constexpr int kKept = 3;
    std::sort(entries.begin(), entries.end());
    for (std::size_t i = kKept; i < entries.size(); ++i)
        std::filesystem::remove(entries[i]);

    runner::SweepStats resumed_stats;
    const auto [resumed_digests, resumed_report] =
        runSmallMatrix(options, &resumed_stats);
    EXPECT_EQ(resumed_stats.cacheHits, kKept);
    EXPECT_EQ(resumed_stats.executed, cells - kKept);
    EXPECT_EQ(resumed_stats.errors, 0);
    EXPECT_EQ(resumed_digests, cold_digests);
    EXPECT_EQ(resumed_report, cold_report);
    std::filesystem::remove_all(cache_dir);
}

TEST(SweepTest, ThrowingCellIsIsolated)
{
    std::vector<runner::SweepCell> cells;
    runner::SweepCell good;
    good.workload = "Intruder";
    good.options = smallOptions();
    cells.push_back(good);

    runner::SweepCell bad;
    bad.workload = "Intruder";
    bad.label = "boom";
    bad.custom = []() -> runner::SimResults {
        throw std::runtime_error("synthetic cell failure");
    };
    cells.push_back(bad);
    cells.push_back(good);

    runner::SweepOptions options;
    options.jobs = 4;
    runner::SweepRunner sweep(options);
    const auto results = sweep.run(cells);

    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("synthetic cell failure"),
              std::string::npos);
    EXPECT_TRUE(results[2].ok);
    // Cells partition into executed / cacheHits / errors.
    EXPECT_EQ(sweep.stats().errors, 1);
    EXPECT_EQ(sweep.stats().executed, 2);

    // The report carries the error entry instead of results.
    std::ostringstream report;
    sweep.writeReport(report, "errors");
    EXPECT_NE(report.str().find("synthetic cell failure"),
              std::string::npos);
    // And the healthy cells are bit-equal between the two runs.
    EXPECT_EQ(digest(results[0].results),
              digest(results[2].results));
}

TEST(SweepTest, ProgressLinesCoverEveryCell)
{
    std::ostringstream progress;
    runner::SweepOptions options;
    options.jobs = 1;
    options.progress = &progress;
    runner::SweepRunner sweep(options);
    const auto cells = smallMatrix();
    sweep.run(cells);

    const std::string text = progress.str();
    std::size_t lines = 0;
    for (char c : text) {
        if (c == '\n')
            ++lines;
    }
    EXPECT_EQ(lines, cells.size());
    EXPECT_NE(text.find("Intruder/baseline"), std::string::npos);
    EXPECT_NE(text.find("Genome/BFGTS-HW"), std::string::npos);
}

TEST(SweepTest, CellKeyDistinguishesEveryKnob)
{
    runner::SweepCell base;
    base.workload = "Intruder";
    base.cm = cm::CmKind::BfgtsHw;
    base.options = smallOptions();

    const std::string key = runner::SweepRunner::cellKey(base);
    EXPECT_NE(key.find("Intruder"), std::string::npos);

    // Same cell, same key.
    EXPECT_EQ(runner::SweepRunner::cellKey(base), key);

    // Every knob must perturb the key (a collision would let the
    // cache hand back results for a different configuration).
    std::vector<runner::SweepCell> variants(9, base);
    variants[0].workload = "Genome";
    variants[1].cm = cm::CmKind::Pts;
    variants[2].baseline = true;
    variants[3].options.numCpus = 8;
    variants[4].options.threadsPerCpu = 1;
    variants[5].options.seed = 99;
    variants[6].options.txPerThread = 7;
    variants[7].options.bloomBits = 512;
    variants[8].options.smallTxInterval = 10;
    for (std::size_t i = 0; i < variants.size(); ++i)
        EXPECT_NE(runner::SweepRunner::cellKey(variants[i]), key)
            << "variant " << i;

    // Tuning fields are part of the digest too.
    runner::SweepCell tuned = base;
    tuned.options.tuning.bfgts.confTableSlots = 3;
    EXPECT_NE(runner::SweepRunner::cellKey(tuned), key);
}

TEST(SweepTest, ResultsRoundTripThroughCacheFormat)
{
    runner::SimResults r;
    r.workload = "Synthetic";
    r.cm = "BFGTS-HW";
    r.runtime = 123456789;
    r.commits = 1024;
    r.aborts = 77;
    r.conflicts = 99;
    r.serializations = 55;
    r.stallTimeouts = 1;
    r.contentionRate = 0.0701234;
    r.breakdown.nonTx = 11;
    r.breakdown.kernel = 22;
    r.breakdown.tx = 33;
    r.breakdown.aborted = 44;
    r.breakdown.sched = 55;
    r.breakdown.idle = 66;
    r.prediction.predictedStalls = 10;
    r.prediction.truePositives = 6;
    r.prediction.falsePositives = 3;
    r.prediction.falseNegatives = 2;
    r.prediction.predictedAborts = 1;
    r.similarityPerSite = {0.25, 0.9993, 0.0};
    r.conflictGraph = {{0, 1}, {1, 2}};
    r.abortPairs = {{{0, 1}, 12}, {{1, 2}, 3}};
    r.abortEdges[{0, 1}] = {5, 5000};
    r.abortEdges[{2, 1}] = {1, 123};
    r.serializationEdges = {{{-1, 3}, 9}, {{0, 2}, 4}};

    std::ostringstream os;
    runner::writeSweepResults(os, r);
    std::istringstream is(os.str());
    runner::SimResults back;
    ASSERT_TRUE(runner::readSweepResults(is, &back));
    EXPECT_EQ(digest(back), digest(r));
    EXPECT_EQ(back.workload, "Synthetic");
    EXPECT_EQ(back.runtime, r.runtime);
    EXPECT_DOUBLE_EQ(back.contentionRate, r.contentionRate);
    EXPECT_EQ(back.similarityPerSite, r.similarityPerSite);
    EXPECT_EQ(back.conflictGraph, r.conflictGraph);
    EXPECT_EQ(back.abortPairs, r.abortPairs);
    EXPECT_EQ(back.serializationEdges, r.serializationEdges);
    ASSERT_EQ(back.abortEdges.size(), r.abortEdges.size());
    const auto edge = back.abortEdges.at({0, 1});
    EXPECT_EQ(edge.aborts, 5u);
    EXPECT_EQ(edge.wastedCycles, 5000u);

    // Malformed input must be rejected, not half-parsed.
    std::istringstream garbage("not a cache file");
    runner::SimResults ignored;
    EXPECT_FALSE(runner::readSweepResults(is, &ignored));
    EXPECT_FALSE(runner::readSweepResults(garbage, &ignored));
}

TEST(SweepTest, CacheRacesCountConcurrentWinners)
{
    const std::string cache_dir =
        ::testing::TempDir() + "/sweep_cache_races";
    std::filesystem::remove_all(cache_dir);

    runner::SweepOptions options;
    options.jobs = 2;
    options.cacheDir = cache_dir;

    // Cold run: every key is written exactly once, no entry exists
    // before its own write.
    runner::SweepStats cold_stats;
    const auto [cold_digests, cold_report] =
        runSmallMatrix(options, &cold_stats);
    EXPECT_EQ(cold_stats.cacheRaces, 0);

    // A quality sweep skips cache reads but still writes: every
    // write now finds the cold run's entry already present -- the
    // same observable as a second --sweep process on the same cache
    // landing the key first. All cells must count as races, and
    // results stay bit-identical.
    options.quality = true;
    runner::SweepStats raced_stats;
    const auto [raced_digests, raced_report] =
        runSmallMatrix(options, &raced_stats);
    EXPECT_EQ(raced_stats.cacheRaces,
              static_cast<int>(raced_digests.size()));
    EXPECT_EQ(raced_stats.executed,
              static_cast<int>(raced_digests.size()));
    EXPECT_EQ(raced_stats.cacheHits, 0);
    ASSERT_EQ(cold_digests.size(), raced_digests.size());
    for (std::size_t i = 0; i < cold_digests.size(); ++i)
        EXPECT_EQ(cold_digests[i], raced_digests[i]) << "cell " << i;
    std::filesystem::remove_all(cache_dir);
}

TEST(SweepTest, CorruptCacheEntryFallsBackToExecution)
{
    const std::string cache_dir =
        ::testing::TempDir() + "/sweep_cache_corrupt";
    std::filesystem::remove_all(cache_dir);

    std::vector<runner::SweepCell> cells;
    runner::SweepCell cell;
    cell.workload = "Intruder";
    cell.options = smallOptions();
    cells.push_back(cell);

    runner::SweepOptions options;
    options.cacheDir = cache_dir;
    {
        runner::SweepRunner sweep(options);
        const auto results = sweep.run(cells);
        ASSERT_TRUE(results[0].ok);
        EXPECT_EQ(sweep.stats().executed, 1);
    }

    // Truncate every cache entry to garbage.
    for (const auto &entry :
         std::filesystem::directory_iterator(cache_dir)) {
        std::ofstream os(entry.path(), std::ios::trunc);
        os << "garbage";
    }

    runner::SweepRunner sweep(options);
    const auto results = sweep.run(cells);
    ASSERT_TRUE(results[0].ok);
    EXPECT_EQ(sweep.stats().executed, 1);
    EXPECT_EQ(sweep.stats().cacheHits, 0);
    std::filesystem::remove_all(cache_dir);
}

} // namespace
