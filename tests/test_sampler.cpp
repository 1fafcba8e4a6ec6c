/**
 * @file
 * Tests for the interval time-series sampler: window alignment, the
 * final partial window, zero-activity windows, the bfgts-ts-v1 JSONL
 * stream, and a simulation-level cross-check that window deltas sum
 * to the run totals.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "runner/experiment.h"
#include "runner/simulation.h"
#include "sim/event_queue.h"
#include "sim/json.h"
#include "sim/sampler.h"

namespace {

/** Drive a sampler over a synthetic run: one commit every
 *  @p commit_every ticks until @p end_tick, then report windows. */
struct SyntheticRun {
    sim::EventQueue events;
    std::uint64_t commits = 0;
    bool active = true;

    void
    run(sim::Sampler &sampler, sim::Tick end_tick,
        sim::Tick commit_every)
    {
        // Every commit is scheduled up front, so each needs its own
        // target: one pending event per (kind, target).
        const sim::EventKind commit =
            events.addKind([this](std::uint32_t) { ++commits; });
        const sim::EventKind end =
            events.addKind([this](std::uint32_t) { active = false; });
        std::uint32_t n = 0;
        for (sim::Tick t = commit_every; t < end_tick;
             t += commit_every)
            events.schedule(t, commit, n++);
        events.schedule(end_tick, end, 0);
        sampler.start(
            events,
            [this](sim::SampleCounts &counts, sim::SampleGauges &) {
                counts.commits = commits;
            },
            [this] { return active; });
        events.run();
        sampler.finish(end_tick);
    }
};

TEST(Sampler, WindowsAlignToIntervalMultiples)
{
    sim::Sampler::Config config;
    config.interval = 10'000;
    sim::Sampler sampler(config);
    SyntheticRun run;
    run.run(sampler, /*end_tick=*/35'000, /*commit_every=*/100);

    const auto &windows = sampler.windows();
    ASSERT_EQ(windows.size(), 4u);
    for (std::size_t i = 0; i < windows.size(); ++i) {
        EXPECT_EQ(windows[i].window, i);
        EXPECT_EQ(windows[i].startTick,
                  static_cast<sim::Tick>(i) * 10'000);
    }
    // Full windows end exactly one interval later...
    EXPECT_EQ(windows[0].endTick, 10'000u);
    EXPECT_EQ(windows[1].endTick, 20'000u);
    EXPECT_EQ(windows[2].endTick, 30'000u);
    // ...and the tail lands in a final partial window.
    EXPECT_EQ(windows[3].endTick, 35'000u);
}

TEST(Sampler, DeltasArePerWindowNotCumulative)
{
    sim::Sampler::Config config;
    config.interval = 10'000;
    sim::Sampler sampler(config);
    SyntheticRun run;
    run.run(sampler, 30'000, /*commit_every=*/1'000);

    // One commit per 1000 ticks: 9 fall strictly inside the first
    // window (1000..9000), 10 in each later one.
    const auto &windows = sampler.windows();
    ASSERT_EQ(windows.size(), 3u);
    std::uint64_t total = 0;
    for (const sim::TimeSeriesWindow &w : windows) {
        EXPECT_LE(w.delta.commits, 10u);
        total += w.delta.commits;
    }
    EXPECT_EQ(total, run.commits);
}

TEST(Sampler, ZeroActivityWindowsAreStillEmitted)
{
    sim::Sampler::Config config;
    config.interval = 1'000;
    sim::Sampler sampler(config);
    SyntheticRun run;
    // Only two events total, 10 windows apart: the quiet windows in
    // between must still appear, with zero deltas and a 0 abort rate.
    run.run(sampler, 10'500, /*commit_every=*/10'000);

    const auto &windows = sampler.windows();
    ASSERT_EQ(windows.size(), 11u);
    int quiet = 0;
    for (const sim::TimeSeriesWindow &w : windows) {
        if (w.delta.commits == 0) {
            ++quiet;
            EXPECT_EQ(w.abortRate, 0.0);
        }
    }
    EXPECT_GE(quiet, 9);
}

TEST(Sampler, JsonlStreamHasHeaderAndOneLinePerWindow)
{
    std::ostringstream os;
    sim::Sampler::Config config;
    config.interval = 10'000;
    config.jsonl = &os;
    sim::Sampler sampler(config);
    SyntheticRun run;
    run.run(sampler, 25'000, /*commit_every=*/500);

    std::istringstream in(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_NE(line.find("\"schema\":\"bfgts-ts-v1\""),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"kind\":\"header\""), std::string::npos);
    EXPECT_NE(line.find("\"interval\":10000"), std::string::npos);
    int body = 0;
    while (std::getline(in, line)) {
        EXPECT_NE(line.find("\"window\":"), std::string::npos);
        EXPECT_NE(line.find("\"commits\":"), std::string::npos);
        EXPECT_NE(line.find("\"abortRate\":"), std::string::npos);
        EXPECT_NE(line.find("\"readyQueueDepth\":"),
                  std::string::npos);
        ++body;
    }
    EXPECT_EQ(static_cast<std::size_t>(body),
              sampler.windows().size());
}

TEST(Sampler, SimulationWindowDeltasSumToRunTotals)
{
    runner::RunOptions options;
    options.txPerThread = 5;
    runner::SimConfig config =
        runner::makeConfig("Intruder", cm::CmKind::BfgtsHw, options);
    sim::Sampler::Config sampler_config;
    sampler_config.interval = 5'000;
    sim::Sampler sampler(sampler_config);
    config.sampler = &sampler;
    runner::Simulation simulation(config);
    const runner::SimResults r = simulation.run();

    const auto &windows = sampler.windows();
    ASSERT_FALSE(windows.empty());
    sim::SampleCounts sum;
    for (const sim::TimeSeriesWindow &w : windows) {
        sum.commits += w.delta.commits;
        sum.aborts += w.delta.aborts;
        sum.stallTimeouts += w.delta.stallTimeouts;
    }
    EXPECT_EQ(sum.commits, r.commits);
    EXPECT_EQ(sum.aborts, r.aborts);
    EXPECT_EQ(sum.stallTimeouts, r.stallTimeouts);
    // The final partial window closes at the run's finish tick.
    EXPECT_EQ(windows.back().endTick,
              static_cast<sim::Tick>(r.runtime));
    // Sampling is observational: results match an unsampled run.
    const runner::SimResults plain =
        runner::runStamp("Intruder", cm::CmKind::BfgtsHw, options);
    EXPECT_EQ(plain.runtime, r.runtime);
    EXPECT_EQ(plain.commits, r.commits);
}

TEST(Sampler, ManagerGaugesArePinned)
{
    // The managers fill these gauges themselves (sampleGauges); each
    // is summed over every window of Intruder 16x4 at 5 tx/thread.
    const struct {
        cm::CmKind kind;
        const char *confidence;
        const char *occupancy;
        const char *pressure;
    } cases[] = {
        {cm::CmKind::BfgtsHw, "434.25962738651555", "0.1941410414807212",
         "0"},
        {cm::CmKind::BfgtsHwBackoff, "743.6666666666665", "0",
         "3.020857477768327"},
        {cm::CmKind::BfgtsNoOverhead, "437.99999999999994", "0", "0"},
        {cm::CmKind::Ats, "0", "0", "2.017383020786517"},
    };
    for (const auto &expected : cases) {
        runner::RunOptions options;
        options.txPerThread = 5;
        runner::SimConfig config =
            runner::makeConfig("Intruder", expected.kind, options);
        sim::Sampler::Config sampler_config;
        sampler_config.interval = 5'000;
        sim::Sampler sampler(sampler_config);
        config.sampler = &sampler;
        runner::Simulation simulation(config);
        simulation.run();

        double confidence = 0.0;
        double occupancy = 0.0;
        double pressure = 0.0;
        for (const sim::TimeSeriesWindow &w : sampler.windows()) {
            confidence += w.gauges.meanConfidence;
            occupancy += w.gauges.bloomOccupancy;
            pressure += w.gauges.conflictPressure;
        }
        const char *name = cm::cmKindName(expected.kind);
        EXPECT_EQ(sim::jsonNumber(confidence), expected.confidence)
            << name;
        EXPECT_EQ(sim::jsonNumber(occupancy), expected.occupancy)
            << name;
        EXPECT_EQ(sim::jsonNumber(pressure), expected.pressure) << name;
    }
}

} // namespace
