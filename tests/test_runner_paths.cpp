/**
 * @file
 * Targeted tests for specific runner mechanics that the integration
 * matrix only exercises incidentally: begin-stall waiting and its
 * timeout valve, yield/block round trips, remote aborts interrupting
 * in-flight accesses, and preemption interleaving.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cm/base.h"
#include "runner/experiment.h"
#include "runner/simulation.h"
#include "workloads/generator.h"

namespace {

/** A manager that stalls every beginner behind any running tx. */
class AlwaysStallManager : public cm::ContentionManagerBase
{
  public:
    AlwaysStallManager(int num_cpus, const cm::Services &services)
        : ContentionManagerBase(num_cpus, services)
    {
    }

    std::string name() const override { return "AlwaysStall"; }

    cm::BeginDecision
    onTxBegin(const cm::TxInfo &tx) override
    {
        cm::BeginDecision decision;
        for (int cpu = 0; cpu < numCpus(); ++cpu) {
            if (cpu == tx.cpu)
                continue;
            if (runningOn(cpu) != htm::kNoTx) {
                trackSerialization(kUnknownSite, tx.sTx);
                decision.action = cm::BeginAction::StallOn;
                decision.waitOn = runningOn(cpu);
                decision.cost.sched = 5;
                return decision;
            }
        }
        return decision;
    }

    void onTxStart(const cm::TxInfo &tx) override { trackStart(tx); }

    cm::AbortResponse
    onTxAbort(const cm::TxInfo &tx, const cm::TxInfo &) override
    {
        trackEnd(tx, false);
        return cm::AbortResponse{};
    }

    cm::CmCost
    onTxCommit(const cm::TxInfo &tx,
               const std::vector<mem::Addr> &) override
    {
        trackEnd(tx, true);
        return cm::CmCost{};
    }
};

/** A manager that always yields at begin N times per thread. */
class YieldNTimesManager : public cm::ContentionManagerBase
{
  public:
    YieldNTimesManager(int num_cpus, int yields,
                       const cm::Services &services)
        : ContentionManagerBase(num_cpus, services), yields_(yields)
    {
    }

    std::string name() const override { return "YieldNTimes"; }

    cm::BeginDecision
    onTxBegin(const cm::TxInfo &tx) override
    {
        cm::BeginDecision decision;
        int &done = yielded_[tx.thread];
        if (done < yields_) {
            ++done;
            decision.action = cm::BeginAction::YieldOn;
        }
        return decision;
    }

    void onTxStart(const cm::TxInfo &tx) override { trackStart(tx); }

    cm::AbortResponse
    onTxAbort(const cm::TxInfo &tx, const cm::TxInfo &) override
    {
        trackEnd(tx, false);
        return cm::AbortResponse{};
    }

    cm::CmCost
    onTxCommit(const cm::TxInfo &tx,
               const std::vector<mem::Addr> &) override
    {
        trackEnd(tx, true);
        return cm::CmCost{};
    }

  private:
    int yields_;
    std::map<sim::ThreadId, int> yielded_;
};

runner::SimConfig
tinyConfig()
{
    runner::SimConfig config;
    config.numCpus = 2;
    config.threadsPerCpu = 2;
    config.txPerThreadOverride = 6;
    config.workloadFactory = [](int threads) {
        workloads::SyntheticParams params;
        params.name = "tiny";
        params.txPerThread = 6;
        params.hotGroupLines = {16};
        workloads::SiteParams site;
        site.meanAccesses = 5;
        site.accessJitter = 1;
        site.nonTxWork = 300;
        site.hotGroups = {{.group = 0, .frac = 0.4,
                           .writeFraction = 0.7}};
        params.sites = {site};
        return std::make_unique<workloads::SyntheticWorkload>(
            params, threads);
    };
    return config;
}

TEST(RunnerPaths, BeginStallWaitsAndReleases)
{
    runner::SimConfig config = tinyConfig();
    config.managerFactory = [](int num_cpus, const htm::TxIdSpace &,
                               const cm::Services &services) {
        return std::make_unique<AlwaysStallManager>(num_cpus,
                                                    services);
    };
    runner::Simulation simulation(config);
    const runner::SimResults r = simulation.run();
    EXPECT_EQ(r.commits, 4u * 6u);
    // Stalling serialized at most one running tx at a time, so there
    // were serializations but no stall timeouts.
    EXPECT_GT(r.serializations, 0u);
    EXPECT_EQ(r.stallTimeouts, 0u);
    // All the stall spinning landed in the sched bucket.
    EXPECT_GT(r.breakdown.sched, 0u);
}

TEST(RunnerPaths, StallTimeoutValveFires)
{
    // Force the timeout: make every wait instantly "too long".
    runner::SimConfig config = tinyConfig();
    config.beginStallTimeout = 1;
    config.managerFactory = [](int num_cpus, const htm::TxIdSpace &,
                               const cm::Services &services) {
        return std::make_unique<AlwaysStallManager>(num_cpus,
                                                    services);
    };
    runner::Simulation simulation(config);
    const runner::SimResults r = simulation.run();
    EXPECT_EQ(r.commits, 4u * 6u); // still completes
    EXPECT_GT(r.stallTimeouts, 0u);
}

/** Exact results of a run whose begin-stalls time out and preempt. */
struct PinnedStallRun {
    const char *workload;
    cm::CmKind kind;
    sim::Tick runtime;
    std::uint64_t commits;
    std::uint64_t aborts;
    std::uint64_t serializations;
    std::uint64_t stallTimeouts;
    sim::Cycles sched;
    sim::Cycles kernel;
};

TEST(RunnerPaths, StallTimeoutAndPreemptionArePinned)
{
    // A short stall timeout and quantum make begin-stalls end by
    // timeout and by preemption as well as by their enemy leaving.
    // The figures pin all three exits of the stall path, so a change
    // to how stalls are polled must reproduce them exactly.
    const PinnedStallRun pinned[] = {
        {"Genome", cm::CmKind::BfgtsHw, 217'867, 640, 137, 1'773, 19,
         958'771, 626'850},
        {"Kmeans", cm::CmKind::Pts, 158'869, 640, 345, 271, 4, 673'632,
         395'850},
    };
    for (const PinnedStallRun &want : pinned) {
        SCOPED_TRACE(want.workload);
        runner::RunOptions options;
        options.txPerThread = 10;
        runner::SimConfig config =
            runner::makeConfig(want.workload, want.kind, options);
        config.beginStallTimeout = 1'500;
        config.sched.quantum = 3'000;
        runner::Simulation simulation(config);
        const runner::SimResults r = simulation.run();
        EXPECT_EQ(r.runtime, want.runtime);
        EXPECT_EQ(r.commits, want.commits);
        EXPECT_EQ(r.aborts, want.aborts);
        EXPECT_EQ(r.serializations, want.serializations);
        EXPECT_EQ(r.stallTimeouts, want.stallTimeouts);
        EXPECT_EQ(r.breakdown.sched, want.sched);
        EXPECT_EQ(r.breakdown.kernel, want.kernel);
    }
}

TEST(RunnerPaths, YieldRoundTripsReturnToBegin)
{
    runner::SimConfig config = tinyConfig();
    config.managerFactory = [](int num_cpus, const htm::TxIdSpace &,
                               const cm::Services &services) {
        return std::make_unique<YieldNTimesManager>(num_cpus, 3,
                                                    services);
    };
    runner::Simulation simulation(config);
    const runner::SimResults r = simulation.run();
    EXPECT_EQ(r.commits, 4u * 6u);
    // Every thread yielded 3 times; kernel time was charged.
    EXPECT_GT(r.breakdown.kernel, 0u);
}

TEST(RunnerPaths, RemoteAbortsInterruptInFlightWork)
{
    // A starvation-prone setup: the escape hatch lets old requesters
    // kill in-flight holders (AbortHolders), which must cancel the
    // victim's pending event cleanly.
    runner::SimConfig config = tinyConfig();
    config.conflict.selfAbortEscape = 0; // age arbitration always on
    config.numCpus = 4;
    config.threadsPerCpu = 2;
    runner::Simulation simulation(config);
    const runner::SimResults r = simulation.run();
    EXPECT_EQ(r.commits, 8u * 6u);
    EXPECT_GT(r.aborts, 0u);
}

TEST(RunnerPaths, QuantumPreemptionSharesTheCpu)
{
    // One CPU, two threads, long non-tx phases: with a small quantum
    // both threads must make interleaved progress (preemptions > 0).
    runner::SimConfig config = tinyConfig();
    config.numCpus = 1;
    config.threadsPerCpu = 2;
    config.sched.quantum = 2'000;
    config.nonTxChunk = 1'000;
    config.txPerThreadOverride = 3;
    config.workloadFactory = [](int threads) {
        workloads::SyntheticParams params;
        params.name = "longNonTx";
        params.txPerThread = 3;
        params.hotGroupLines = {16};
        workloads::SiteParams site;
        site.meanAccesses = 4;
        site.accessJitter = 1;
        site.nonTxWork = 50'000;
        params.sites = {site};
        return std::make_unique<workloads::SyntheticWorkload>(
            params, threads);
    };
    runner::Simulation simulation(config);
    const runner::SimResults r = simulation.run();
    EXPECT_EQ(r.commits, 2u * 3u);
    EXPECT_GT(r.breakdown.kernel, 0u); // preemption context switches
}

TEST(RunnerPaths, SchedBucketSeparatesFromTxBucket)
{
    runner::RunOptions options;
    options.txPerThread = 10;
    const runner::SimResults bfgts =
        runner::runStamp("Intruder", cm::CmKind::BfgtsHw, options);
    const runner::SimResults backoff =
        runner::runStamp("Intruder", cm::CmKind::Backoff, options);
    // Backoff does no scheduling work at all.
    EXPECT_EQ(backoff.breakdown.sched, 0u);
    EXPECT_GT(bfgts.breakdown.sched, 0u);
}

} // namespace
