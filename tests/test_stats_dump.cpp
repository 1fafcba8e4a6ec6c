/**
 * @file
 * Tests for Simulation::dumpStats(): every component group appears,
 * values are consistent with the results, and the dump is stable
 * across identical runs.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "runner/experiment.h"
#include "runner/simulation.h"

namespace {

std::pair<runner::SimResults, std::string>
runAndDump(cm::CmKind kind)
{
    runner::RunOptions options;
    options.txPerThread = 6;
    runner::SimConfig config =
        runner::makeConfig("Kmeans", kind, options);
    runner::Simulation simulation(config);
    runner::SimResults results = simulation.run();
    std::ostringstream os;
    simulation.dumpStats(os);
    return {std::move(results), os.str()};
}

std::uint64_t
statValue(const std::string &dump, const std::string &key)
{
    const auto pos = dump.find(key + " ");
    EXPECT_NE(pos, std::string::npos) << key;
    if (pos == std::string::npos)
        return 0;
    return std::strtoull(dump.c_str() + pos + key.size() + 1,
                         nullptr, 10);
}

TEST(StatsDump, AllComponentGroupsPresent)
{
    const auto [results, dump] = runAndDump(cm::CmKind::BfgtsHw);
    for (const char *key :
         {"mem.l1.hits", "mem.l2.misses", "mem.bus.requests",
          "htm.conflictsDetected", "htm.undoLog.appends",
          "predictor.predictions", "predictor.confCache.hits",
          "cm.serializations", "os.yields", "os.kernelCycles"}) {
        EXPECT_NE(dump.find(key), std::string::npos) << key;
    }
}

TEST(StatsDump, CountsMatchResults)
{
    const auto [results, dump] = runAndDump(cm::CmKind::BfgtsHw);
    EXPECT_EQ(statValue(dump, "htm.commits"), results.commits);
    EXPECT_EQ(statValue(dump, "htm.aborts"), results.aborts);
    EXPECT_EQ(statValue(dump, "cm.commits"), results.commits);
    EXPECT_EQ(statValue(dump, "cm.aborts"), results.aborts);
    EXPECT_EQ(statValue(dump, "cm.serializations"),
              results.serializations);
}

TEST(StatsDump, PredictorIdleForSoftwareVariants)
{
    const auto [results, dump] = runAndDump(cm::CmKind::Backoff);
    EXPECT_EQ(statValue(dump, "predictor.predictions"), 0u);
    (void)results;
}

TEST(StatsDump, UndoLogActivityTracksWrites)
{
    const auto [results, dump] = runAndDump(cm::CmKind::Backoff);
    // Every committed or aborted transaction wrote something in this
    // workload; appends must be substantial.
    EXPECT_GT(statValue(dump, "htm.undoLog.appends"),
              results.commits);
    // Restored entries only come from aborts.
    if (results.aborts == 0) {
        EXPECT_EQ(statValue(dump, "htm.undoLog.restoredEntries"), 0u);
    }
}

TEST(StatsDump, StableAcrossIdenticalRuns)
{
    const auto [r1, d1] = runAndDump(cm::CmKind::BfgtsHw);
    const auto [r2, d2] = runAndDump(cm::CmKind::BfgtsHw);
    EXPECT_EQ(d1, d2);
    (void)r1;
    (void)r2;
}

} // namespace
