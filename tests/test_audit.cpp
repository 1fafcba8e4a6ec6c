/**
 * @file
 * Mutation selftest of the audit engine (sim/audit.h).
 *
 * A checker that never fires is indistinguishable from one that does
 * not exist, so every invariant check id gets a test here that
 * corrupts exactly the state the check guards -- through the
 * testXxx() hooks the audited subsystems expose, or by feeding the
 * runner-level auditors crafted inputs -- and asserts the violation
 * is collected. Clean-state companions pin down that the checks do
 * not fire spuriously.
 *
 * The end-to-end cases close the loop: a fully audited contended
 * simulation reports zero violations while running an exact,
 * recorded number of checks, and its stats digest is byte-identical
 * to the unaudited run (auditing is purely observational).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bloom/bloom_filter.h"
#include "cm/bfgts.h"
#include "cm/factory.h"
#include "cpu/predictor.h"
#include "htm/conflict_detector.h"
#include "htm/cpu_table.h"
#include "htm/tx_id.h"
#include "htm/tx_state.h"
#include "os/scheduler.h"
#include "runner/audit_checks.h"
#include "runner/simulation.h"
#include "sim/audit.h"
#include "sim/event_queue.h"

namespace {

using runner::ActiveTx;
using runner::LifecycleAuditor;
using runner::WaitEdge;
using TxEvent = LifecycleAuditor::TxEvent;

/** A live engine that collects instead of panicking. */
sim::AuditEngine
collectEngine()
{
    sim::AuditEngine engine;
    engine.setEnabled(true);
    engine.setMode(sim::AuditEngine::Mode::Collect);
    return engine;
}

// ---- engine ---------------------------------------------------------

TEST(AuditEngine, DisabledByDefault)
{
    sim::AuditEngine engine;
    EXPECT_FALSE(engine.enabled());
    EXPECT_FALSE(engine.shouldCheck());

    engine.setEnabled(true);
    EXPECT_TRUE(engine.shouldCheck());

    // Dry-run keeps the hooks dispatching but skips checker bodies.
    engine.setDryRun(true);
    EXPECT_TRUE(engine.enabled());
    EXPECT_FALSE(engine.shouldCheck());
}

TEST(AuditEngine, CollectsStructuredViolations)
{
    sim::AuditEngine engine = collectEngine();

    EXPECT_TRUE(engine.check(true, "htm.registry", "fine", 1));
    EXPECT_EQ(engine.checksRun(), 1u);
    EXPECT_EQ(engine.violationCount(), 0u);

    EXPECT_FALSE(engine.check(false, "htm.isolation", "broken", 42,
                              /*cpu=*/3, /*thread=*/5, /*stx=*/2,
                              /*dtx=*/9));
    ASSERT_EQ(engine.violationCount(), 1u);
    EXPECT_TRUE(engine.fired("htm.isolation"));
    EXPECT_FALSE(engine.fired("htm.registry"));

    const sim::AuditViolation &v = engine.violations().front();
    EXPECT_EQ(v.check, "htm.isolation");
    EXPECT_EQ(v.tick, 42u);
    EXPECT_EQ(v.cpu, 3);
    EXPECT_EQ(v.thread, 5);
    EXPECT_EQ(v.sTx, 2);
    EXPECT_EQ(v.dTx, 9);
    EXPECT_EQ(v.message, "broken");

    engine.clearViolations();
    EXPECT_EQ(engine.violationCount(), 0u);
    EXPECT_FALSE(engine.fired("htm.isolation"));
}

// ---- event queue ----------------------------------------------------

TEST(AuditEventQueue, MonotonicFiresOnPastScheduling)
{
    sim::AuditEngine engine = collectEngine();
    sim::EventQueue events;
    events.setAudit(&engine);
    const sim::EventKind noop = events.addKind([](std::uint32_t) {});

    events.schedule(10, noop, 0);
    events.run();
    ASSERT_EQ(events.curTick(), 10u);
    EXPECT_FALSE(engine.fired("event.monotonic"));

    // Scheduling into the past is the violation (and is clamped so
    // the collected run can continue).
    events.schedule(5, noop, 0);
    EXPECT_TRUE(engine.fired("event.monotonic"));
}

TEST(AuditEventQueue, TiebreakFiresOnSequenceRewind)
{
    sim::AuditEngine engine = collectEngine();
    sim::EventQueue events;
    events.setAudit(&engine);

    int order = 0;
    const sim::EventKind digit =
        events.addKind([&order](std::uint32_t d) {
            order = order * 10 + static_cast<int>(d);
        });
    events.schedule(10, digit, 1);
    // Rewind the insertion counter: the second same-tick event reuses
    // the first one's sequence number, so the executed (tick, seq)
    // stream can no longer be strictly increasing.
    events.testSetNextSeq(0);
    events.schedule(10, digit, 2);
    events.run();

    EXPECT_TRUE(engine.fired("event.tiebreak"));
}

TEST(AuditEventQueue, CleanRunReportsNothing)
{
    sim::AuditEngine engine = collectEngine();
    sim::EventQueue events;
    events.setAudit(&engine);

    const sim::EventKind noop = events.addKind([](std::uint32_t) {});
    events.schedule(1, noop, 0);
    events.schedule(1, noop, 1);
    events.schedule(7, noop, 2);
    events.run();

    EXPECT_GT(engine.checksRun(), 0u);
    EXPECT_EQ(engine.violationCount(), 0u);
}

// ---- transaction lifecycle FSM --------------------------------------

TEST(AuditLifecycle, TransitionFiresOnCommitWithoutBegin)
{
    sim::AuditEngine engine = collectEngine();
    LifecycleAuditor fsm(engine, 2);

    fsm.onEvent(0, TxEvent::Commit, 5, 0, 3);
    EXPECT_TRUE(engine.fired("fsm.transition"));
}

TEST(AuditLifecycle, TransitionFiresOnNestedBegin)
{
    sim::AuditEngine engine = collectEngine();
    LifecycleAuditor fsm(engine, 1);

    fsm.onEvent(0, TxEvent::Begin, 1, 0, 3);
    EXPECT_FALSE(engine.fired("fsm.transition"));
    fsm.onEvent(0, TxEvent::Begin, 2, 0, 4);
    EXPECT_TRUE(engine.fired("fsm.transition"));
}

TEST(AuditLifecycle, BalanceFiresOnUnfinishedTransaction)
{
    sim::AuditEngine engine = collectEngine();
    LifecycleAuditor fsm(engine, 1);

    fsm.onEvent(0, TxEvent::Begin, 1, 0, 3);
    fsm.finalize(10);
    EXPECT_TRUE(engine.fired("fsm.balance"));
}

TEST(AuditLifecycle, CleanSequencePasses)
{
    sim::AuditEngine engine = collectEngine();
    LifecycleAuditor fsm(engine, 2);

    fsm.onEvent(0, TxEvent::Begin, 1, 0, 3);
    fsm.onEvent(0, TxEvent::Access, 2, 0, 3);
    fsm.onEvent(0, TxEvent::Commit, 3, 0, 3);
    fsm.onEvent(0, TxEvent::ThreadFinish, 4, 0, -1);
    fsm.onEvent(1, TxEvent::Begin, 1, 1, 7);
    fsm.onEvent(1, TxEvent::Abort, 2, 1, 7);
    fsm.onEvent(1, TxEvent::ThreadFinish, 3, 1, -1);
    fsm.finalize(10);

    EXPECT_EQ(engine.violationCount(), 0u);
    EXPECT_EQ(fsm.begins(), 2u);
    EXPECT_EQ(fsm.commits(), 1u);
    EXPECT_EQ(fsm.aborts(), 1u);
}

// ---- cycle accounting -----------------------------------------------

TEST(AuditCycles, ConservationFiresOnOversubscription)
{
    sim::AuditEngine engine = collectEngine();
    runner::Breakdown breakdown;
    breakdown.tx = 150; // > 2 cpus * 50 ticks
    runner::auditBreakdown(engine, breakdown, /*runtime=*/50,
                           /*num_cpus=*/2, /*tick=*/50);
    EXPECT_TRUE(engine.fired("cycles.conservation"));
}

TEST(AuditCycles, ConservationPassesWhenBalanced)
{
    sim::AuditEngine engine = collectEngine();
    runner::Breakdown breakdown;
    breakdown.nonTx = 30;
    breakdown.tx = 50;
    breakdown.idle = 20;
    runner::auditBreakdown(engine, breakdown, /*runtime=*/50,
                           /*num_cpus=*/2, /*tick=*/50);
    EXPECT_EQ(engine.violationCount(), 0u);
}

// ---- wait graph and timestamps --------------------------------------

TEST(AuditWaitGraph, TimestampFiresOnDuplicateAges)
{
    sim::AuditEngine engine = collectEngine();
    const std::vector<ActiveTx> active = {{1, 5}, {2, 5}};
    runner::auditWaitGraph(engine, active, {}, 10);
    EXPECT_TRUE(engine.fired("htm.timestamp"));
}

TEST(AuditWaitGraph, TimestampFiresOnMissingAge)
{
    sim::AuditEngine engine = collectEngine();
    const std::vector<ActiveTx> active = {{1, 0}};
    runner::auditWaitGraph(engine, active, {}, 10);
    EXPECT_TRUE(engine.fired("htm.timestamp"));
}

TEST(AuditWaitGraph, FiresOnSelfWait)
{
    sim::AuditEngine engine = collectEngine();
    const std::vector<WaitEdge> edges = {{1, 5, 1, 5}};
    runner::auditWaitGraph(engine, {{1, 5}}, edges, 10);
    EXPECT_TRUE(engine.fired("htm.waitgraph"));
}

TEST(AuditWaitGraph, FiresOnYoungerWaitsOlderCycle)
{
    sim::AuditEngine engine = collectEngine();
    // A timestamp tie puts both directions of a mutual stall into the
    // younger-waits-on-older subgraph: an unresolvable deadlock.
    const std::vector<WaitEdge> edges = {{1, 5, 2, 5}, {2, 5, 1, 5}};
    runner::auditWaitGraph(engine, {}, edges, 10);
    EXPECT_TRUE(engine.fired("htm.waitgraph"));
}

TEST(AuditWaitGraph, MixedDirectionCycleIsLegal)
{
    sim::AuditEngine engine = collectEngine();
    // 1 (older) waits on 2 (younger) and vice versa: a transient
    // mutual NACK stall that age arbitration resolves. Not flagged.
    const std::vector<ActiveTx> active = {{1, 1}, {2, 2}};
    const std::vector<WaitEdge> edges = {{1, 1, 2, 2}, {2, 2, 1, 1}};
    runner::auditWaitGraph(engine, active, edges, 10);
    EXPECT_EQ(engine.violationCount(), 0u);
}

// ---- CM CPU table ---------------------------------------------------

TEST(AuditCmCpuTable, FiresOnDeadTransaction)
{
    sim::AuditEngine engine = collectEngine();
    runner::auditCmCpuTable(engine, /*cm_view=*/{7, -1},
                            /*running_dtxs=*/{3}, 10);
    EXPECT_TRUE(engine.fired("cm.cputable"));
}

TEST(AuditCmCpuTable, PassesOnLiveView)
{
    sim::AuditEngine engine = collectEngine();
    runner::auditCmCpuTable(engine, {3, -1}, {3}, 10);
    EXPECT_EQ(engine.violationCount(), 0u);
}

// ---- conflict detector ----------------------------------------------

TEST(AuditConflictDetector, IsolationFiresOnForcedWriter)
{
    sim::AuditEngine engine = collectEngine();
    htm::ConflictDetector detector;

    htm::TxState reader;
    reader.dTxId = 1;
    reader.thread = 0;
    reader.cpu = 0;
    reader.timestamp = 1;
    reader.active = true;
    htm::TxState writer;
    writer.dTxId = 2;
    writer.thread = 1;
    writer.cpu = 1;
    writer.timestamp = 2;
    writer.active = true;

    ASSERT_TRUE(detector.access(reader, 100, false).conflicts.empty());
    detector.auditCheck(engine, {&reader, &writer}, 10);
    EXPECT_EQ(engine.violationCount(), 0u);

    // Smash a writer into the line the reader holds: eager isolation
    // is gone and the registry no longer matches the exact sets.
    detector.testForceWriter(100, &writer);
    detector.auditCheck(engine, {&reader, &writer}, 20);
    EXPECT_TRUE(engine.fired("htm.isolation"));
    EXPECT_TRUE(engine.fired("htm.registry"));
}

TEST(AuditConflictDetector, RegistryFiresOnUntrackedSetEntry)
{
    sim::AuditEngine engine = collectEngine();
    htm::ConflictDetector detector;

    htm::TxState tx;
    tx.dTxId = 1;
    tx.thread = 0;
    tx.cpu = 0;
    tx.timestamp = 1;
    tx.active = true;
    ASSERT_TRUE(detector.access(tx, 100, true).conflicts.empty());

    // A write-set entry the registry never saw.
    tx.writeSet.push_back(200);
    detector.auditCheck(engine, {&tx}, 10);
    EXPECT_TRUE(engine.fired("htm.registry"));
}

TEST(AuditConflictDetector, RegistryFiresOnOwnerlessEntry)
{
    sim::AuditEngine engine = collectEngine();
    htm::ConflictDetector detector;

    // An entry with no writer and no reader: the per-line counts
    // still balance, so only the ownerless-entry check can see it.
    detector.testForceWriter(300, nullptr);
    detector.auditCheck(engine, {}, 10);
    EXPECT_TRUE(engine.fired("htm.registry"));
}

TEST(AuditConflictDetector, BloomMembershipFiresOnFalseNegative)
{
    sim::AuditEngine engine = collectEngine();
    htm::ConflictPolicy policy;
    policy.detectionMode = htm::DetectionMode::Signature;
    htm::ConflictDetector detector(policy);

    htm::TxState tx;
    tx.dTxId = 1;
    tx.thread = 0;
    tx.cpu = 0;
    tx.timestamp = 1;
    tx.active = true;
    ASSERT_TRUE(detector.access(tx, 100, false).conflicts.empty());
    detector.auditCheck(engine, {&tx}, 10);
    EXPECT_EQ(engine.violationCount(), 0u);

    // Grow the exact set behind the signature's back: the hardware
    // filter now has a false negative, which Bloom filters never do.
    tx.readSet.push_back(999);
    detector.auditCheck(engine, {&tx}, 20);
    EXPECT_TRUE(engine.fired("bloom.membership"));
}

TEST(AuditConflictDetector, BloomMembershipFiresOnLeakedSignature)
{
    sim::AuditEngine engine = collectEngine();
    htm::ConflictPolicy policy;
    policy.detectionMode = htm::DetectionMode::Signature;
    htm::ConflictDetector detector(policy);

    htm::TxState tx;
    tx.dTxId = 1;
    tx.thread = 0;
    tx.cpu = 0;
    tx.timestamp = 1;
    tx.active = true;
    ASSERT_TRUE(detector.access(tx, 100, false).conflicts.empty());

    // The tx is gone from the active set but removeTx() was never
    // called, so its hardware signature leaked.
    detector.auditCheck(engine, {}, 10);
    EXPECT_TRUE(engine.fired("bloom.membership"));
}

// ---- BFGTS prediction structures ------------------------------------

TEST(AuditBfgts, ConfidenceFiresOnRangeEscape)
{
    sim::AuditEngine engine = collectEngine();
    htm::TxIdSpace ids(4, 4);
    cm::Services services;
    cm::BfgtsConfig config;
    config.variant = cm::BfgtsVariant::Sw;
    cm::BfgtsManager manager(ids, services, config);

    manager.auditCheck(engine, 10);
    EXPECT_EQ(engine.violationCount(), 0u);

    manager.testCorruptConfidence(0, 1, 999.0);
    manager.auditCheck(engine, 20);
    EXPECT_TRUE(engine.fired("cm.confidence"));
}

TEST(AuditBfgts, SimilarityFiresOnEwmaEscape)
{
    sim::AuditEngine engine = collectEngine();
    htm::TxIdSpace ids(4, 4);
    cm::Services services;
    cm::BfgtsConfig config;
    config.variant = cm::BfgtsVariant::Sw;
    cm::BfgtsManager manager(ids, services, config);

    manager.testCorruptSimilarity(ids.make(0, 0), 2.0);
    manager.auditCheck(engine, 10);
    EXPECT_TRUE(engine.fired("bloom.similarity"));
}

TEST(AuditBfgts, StatsFireOnNegativeFootprint)
{
    sim::AuditEngine engine = collectEngine();
    htm::TxIdSpace ids(4, 4);
    cm::Services services;
    cm::BfgtsConfig config;
    config.variant = cm::BfgtsVariant::Sw;
    cm::BfgtsManager manager(ids, services, config);

    manager.testCorruptAvgSize(ids.make(1, 2), -3.0);
    manager.auditCheck(engine, 10);
    EXPECT_TRUE(engine.fired("cm.stats"));
}

TEST(AuditBfgts, PressureFiresOnEwmaEscape)
{
    sim::AuditEngine engine = collectEngine();
    htm::TxIdSpace ids(4, 4);
    cm::Services services;
    cm::BfgtsConfig config;
    config.variant = cm::BfgtsVariant::HwBackoff;
    htm::CpuTable table(4);
    cpu::PredictorSystem predictors(table, ids);
    services.predictors = &predictors;
    cm::BfgtsManager manager(ids, services, config);

    manager.testCorruptPressure(0, 1.5);
    manager.auditCheck(engine, 10);
    EXPECT_TRUE(engine.fired("cm.pressure"));
}

TEST(AuditBfgts, EstimateFiresOnMisestimatingSignature)
{
    sim::AuditEngine engine = collectEngine();
    htm::TxIdSpace ids(4, 4);
    cm::Services services;
    services.audit = &engine;
    cm::BfgtsConfig config;
    config.variant = cm::BfgtsVariant::NoOverhead;
    cm::BfgtsManager manager(ids, services, config);

    cm::TxInfo tx;
    tx.thread = 0;
    tx.cpu = 0;
    tx.sTx = 0;
    tx.dTx = ids.make(0, 0);

    // A perfect signature claiming three lines for a two-line set:
    // Eq. 2 must be exact under NoOverhead.
    manager.testAuditSignature(tx, std::vector<mem::Addr>{1, 2, 3},
                               {1, 2});
    EXPECT_TRUE(engine.fired("bloom.estimate"));
}

TEST(AuditBfgts, HonestSignaturePassesTheEstimateAudit)
{
    sim::AuditEngine engine = collectEngine();
    htm::TxIdSpace ids(4, 4);
    cm::Services services;
    services.audit = &engine;
    cm::BfgtsConfig config;
    config.variant = cm::BfgtsVariant::NoOverhead;
    cm::BfgtsManager manager(ids, services, config);

    cm::TxInfo tx;
    tx.thread = 0;
    tx.cpu = 0;
    tx.sTx = 0;
    tx.dTx = ids.make(0, 0);

    manager.testAuditSignature(tx, std::vector<mem::Addr>{1, 2},
                               {1, 2, 2});
    EXPECT_GT(engine.checksRun(), 0u);
    EXPECT_EQ(engine.violationCount(), 0u);
}

TEST(AuditBfgts, PartitionFiresOnClearedSignatureBit)
{
    sim::AuditEngine engine = collectEngine();
    htm::TxIdSpace ids(4, 4);
    cm::Services services;
    services.audit = &engine;
    cm::BfgtsConfig config;
    config.variant = cm::BfgtsVariant::Sw;
    config.bloom.partitioned = true;
    cm::BfgtsManager manager(ids, services, config);

    cm::TxInfo tx;
    tx.thread = 0;
    tx.cpu = 0;
    tx.sTx = 0;
    tx.dTx = ids.make(0, 0);

    const std::vector<mem::Addr> rw_lines = {11, 22, 33};
    bloom::BloomFilter sig(config.bloom);
    for (const mem::Addr line : rw_lines)
        sig.insert(line);

    // Clear one bit an inserted line hashes to: the no-false-negative
    // membership property of the partitioned layout is now broken and
    // the commit-time audit must say so.
    bloom::BloomFilter::Positions pos{};
    sig.positions(22, pos);
    sig.testClearBit(pos[1]);
    manager.testAuditSignature(tx, sig, rw_lines);
    EXPECT_TRUE(engine.fired("bloom.partition"));
}

TEST(AuditBfgts, PartitionedHonestSignaturePasses)
{
    sim::AuditEngine engine = collectEngine();
    htm::TxIdSpace ids(4, 4);
    cm::Services services;
    services.audit = &engine;
    cm::BfgtsConfig config;
    config.variant = cm::BfgtsVariant::Sw;
    config.bloom.partitioned = true;
    cm::BfgtsManager manager(ids, services, config);

    cm::TxInfo tx;
    tx.thread = 0;
    tx.cpu = 0;
    tx.sTx = 0;
    tx.dTx = ids.make(0, 0);

    const std::vector<mem::Addr> rw_lines = {11, 22, 33};
    bloom::BloomFilter sig(config.bloom);
    for (const mem::Addr line : rw_lines)
        sig.insert(line);
    manager.testAuditSignature(tx, sig, rw_lines);
    EXPECT_GT(engine.checksRun(), 0u);
    EXPECT_EQ(engine.violationCount(), 0u);
    EXPECT_FALSE(engine.fired("bloom.partition"));
}

// ---- OS scheduler ---------------------------------------------------

TEST(AuditOsScheduler, AffinityFiresOnDuplicatedThread)
{
    sim::AuditEngine engine = collectEngine();
    sim::EventQueue events;
    os::SchedulerConfig config;
    config.numCpus = 2;
    os::OsScheduler scheduler(events, config);
    const sim::ThreadId tid = scheduler.addThread(0);
    scheduler.setDispatchFn([](sim::ThreadId) {});
    scheduler.start();
    events.run();
    ASSERT_EQ(scheduler.runningOn(0), tid);

    scheduler.auditCheck(engine, events.curTick());
    EXPECT_EQ(engine.violationCount(), 0u);

    // The running thread also appears in a ready queue: two
    // scheduler slots for one schedulable entity.
    scheduler.testPushReady(tid, 0);
    scheduler.auditCheck(engine, events.curTick());
    EXPECT_TRUE(engine.fired("os.affinity"));
}

TEST(AuditOsScheduler, AffinityFiresOnForeignQueue)
{
    sim::AuditEngine engine = collectEngine();
    sim::EventQueue events;
    os::SchedulerConfig config;
    config.numCpus = 2;
    os::OsScheduler scheduler(events, config);
    const sim::ThreadId a = scheduler.addThread(0);
    const sim::ThreadId b = scheduler.addThread(0);
    (void)a;
    scheduler.setDispatchFn([](sim::ThreadId) {});
    scheduler.start();
    events.run();

    // Thread b waits on CPU 0; migrating its queue entry to CPU 1
    // breaks static affinity (and duplicates its placement).
    scheduler.testPushReady(b, 1);
    scheduler.auditCheck(engine, events.curTick());
    EXPECT_TRUE(engine.fired("os.affinity"));
}

TEST(AuditOsScheduler, ReadyQueueFiresOnBlockedThreadQueued)
{
    sim::AuditEngine engine = collectEngine();
    sim::EventQueue events;
    os::SchedulerConfig config;
    config.numCpus = 1;
    os::OsScheduler scheduler(events, config);
    const sim::ThreadId tid = scheduler.addThread(0);
    scheduler.setDispatchFn([](sim::ThreadId) {});
    scheduler.start();
    events.run();
    scheduler.blockCurrent(tid);
    events.run();

    scheduler.auditCheck(engine, events.curTick());
    EXPECT_EQ(engine.violationCount(), 0u);

    scheduler.testPushReady(tid, 0);
    scheduler.auditCheck(engine, events.curTick());
    EXPECT_TRUE(engine.fired("os.readyqueue"));
}

// ---- end to end -----------------------------------------------------

runner::SimConfig
auditedConfig(cm::CmKind kind)
{
    runner::SimConfig config;
    // Intruder is the paper's most contended benchmark: plenty of
    // aborts, stalls and CM arbitration on every audited path.
    config.workload = "Intruder";
    config.cm = kind;
    config.numCpus = 4;
    config.threadsPerCpu = 2;
    config.txPerThreadOverride = 10;
    config.seed = 7;
    return config;
}

TEST(AuditEndToEnd, ContendedRunsAreViolationFree)
{
    // Exact check counts: every checker of the sweep and the
    // manager's own auditCheck included, so dropping any one of them
    // changes the count.
    const struct {
        cm::CmKind kind;
        std::uint64_t checks;
    } cases[] = {
        {cm::CmKind::Backoff, 12306},
        {cm::CmKind::Ats, 13141},
        {cm::CmKind::BfgtsHw, 25807},
        {cm::CmKind::BfgtsNoOverhead, 26740},
    };
    for (const auto &[kind, checks] : cases) {
        sim::AuditEngine engine = collectEngine();
        runner::SimConfig config = auditedConfig(kind);
        config.audit = true;
        config.auditEngine = &engine;

        runner::Simulation simulation(config);
        simulation.run();

        EXPECT_EQ(engine.checksRun(), checks) << cm::cmKindName(kind);
        EXPECT_EQ(engine.violationCount(), 0u)
            << "first violation: "
            << (engine.violations().empty()
                    ? std::string("none")
                    : engine.violations().front().check + ": "
                          + engine.violations().front().message);
    }
}

/** Digest of everything a run reports (stats dump + results). */
std::string
digestFor(const runner::SimConfig &config)
{
    runner::Simulation simulation(config);
    const runner::SimResults results = simulation.run();
    std::ostringstream digest;
    simulation.dumpStats(digest);
    digest << results.runtime << ' ' << results.commits << ' '
           << results.aborts << ' ' << results.conflicts << ' '
           << results.serializations;
    return digest.str();
}

TEST(AuditEndToEnd, AuditedRunIsByteIdentical)
{
    for (cm::CmKind kind : {cm::CmKind::Backoff, cm::CmKind::BfgtsHw}) {
        runner::SimConfig plain = auditedConfig(kind);
        plain.audit = false;

        sim::AuditEngine engine = collectEngine();
        runner::SimConfig audited = auditedConfig(kind);
        audited.audit = true;
        audited.auditEngine = &engine;

        EXPECT_EQ(digestFor(plain), digestFor(audited));
        EXPECT_EQ(engine.violationCount(), 0u);
    }
}

} // namespace
