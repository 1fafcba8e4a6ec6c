/**
 * @file
 * Unit tests for transaction IDs, transaction state, and the eager
 * conflict detector.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "htm/conflict_detector.h"
#include "htm/cpu_table.h"
#include "htm/tx_id.h"
#include "htm/tx_state.h"
#include "sim/audit.h"

namespace {

using htm::AccessResult;
using htm::ConflictDetector;
using htm::TxState;

/** The detector's audit over @p active, collected, not panicking. */
sim::AuditEngine
audited(const ConflictDetector &detector,
        const std::vector<const TxState *> &active)
{
    sim::AuditEngine audit;
    audit.setEnabled(true);
    audit.setMode(sim::AuditEngine::Mode::Collect);
    detector.auditCheck(audit, active, /*tick=*/0);
    return audit;
}

TEST(TxIdSpace, RoundTripsThreadAndStatic)
{
    htm::TxIdSpace ids(5, 64);
    for (int thread = 0; thread < 64; thread += 7) {
        for (int stx = 0; stx < 5; ++stx) {
            htm::DTxId dtx = ids.make(thread, stx);
            EXPECT_EQ(ids.threadOf(dtx), thread);
            EXPECT_EQ(ids.staticOf(dtx), stx);
        }
    }
}

TEST(CpuTable, FindRunningWalksTheRunningCpusInOrder)
{
    for (int cpus : {1, 63, 64, 65, 130}) {
        SCOPED_TRACE(std::to_string(cpus) + " CPUs");
        htm::CpuTable table(cpus);
        const auto never = [](sim::CpuId, htm::DTxId) { return false; };
        EXPECT_EQ(table.findRunning(never), cpus);
        // Every third CPU, each word's last CPU and the machine's last.
        std::vector<sim::CpuId> running;
        for (sim::CpuId cpu = 0; cpu < cpus; ++cpu) {
            if (cpu % 3 == 0 || cpu % 64 == 63 || cpu == cpus - 1) {
                table.start(cpu, 2 * cpu + 1);
                running.push_back(cpu);
            }
        }
        std::vector<sim::CpuId> walked;
        const auto visit_all = [&](sim::CpuId cpu, htm::DTxId dtx) {
            EXPECT_EQ(dtx, 2 * cpu + 1);
            EXPECT_EQ(table.runningOn(cpu), dtx);
            walked.push_back(cpu);
            return false;
        };
        EXPECT_EQ(table.findRunning(visit_all), cpus);
        EXPECT_EQ(walked, running);
        // From any start, the walk stops at the first running CPU.
        for (sim::CpuId from = 0; from <= cpus; ++from) {
            const auto at_or_after = [from](sim::CpuId cpu, htm::DTxId) {
                return cpu >= from;
            };
            const auto next =
                std::lower_bound(running.begin(), running.end(), from);
            EXPECT_EQ(table.findRunning(at_or_after),
                      next == running.end() ? cpus : *next)
                << "from " << from;
        }
        for (sim::CpuId cpu : running)
            table.end(cpu, 2 * cpu + 1);
        EXPECT_EQ(table.findRunning(never), cpus);
        EXPECT_EQ(table.runningOn(cpus - 1), htm::kNoTx);
    }
}

TEST(CpuTable, StartAndEndCheckTheEntry)
{
    htm::CpuTable table(2);
    table.start(1, 7);
    EXPECT_DEATH(table.end(1, 8), "ends on cpu 1");
    EXPECT_DEATH(table.end(0, 7), "ends on cpu 0");
    EXPECT_DEATH(table.start(1, 9), "already runs dTx 7");
}

TEST(TxIdSpace, StaticRecoveredByRightShift)
{
    // The hardware computes confidx = dTxID >> shift (Example 1).
    htm::TxIdSpace ids(4, 64);
    htm::DTxId dtx = ids.make(37, 3);
    EXPECT_EQ(dtx >> ids.shift(), 3);
}

TEST(TxIdSpace, DTxIdsAreUnique)
{
    htm::TxIdSpace ids(6, 16);
    std::set<htm::DTxId> seen;
    for (int thread = 0; thread < 16; ++thread)
        for (int stx = 0; stx < 6; ++stx)
            seen.insert(ids.make(thread, stx));
    EXPECT_EQ(static_cast<int>(seen.size()), ids.numDynamicTx());
}

TEST(TxIdSpace, DenseIndexIsABijection)
{
    htm::TxIdSpace ids(3, 8);
    std::set<int> indices;
    for (int thread = 0; thread < 8; ++thread) {
        for (int stx = 0; stx < 3; ++stx) {
            int index = ids.denseIndex(ids.make(thread, stx));
            EXPECT_GE(index, 0);
            EXPECT_LT(index, ids.numDynamicTx());
            indices.insert(index);
        }
    }
    EXPECT_EQ(static_cast<int>(indices.size()), ids.numDynamicTx());
}

TEST(TxIdSpace, SingleThreadSingleSite)
{
    htm::TxIdSpace ids(1, 1);
    EXPECT_EQ(ids.make(0, 0) >> ids.shift(), 0);
    EXPECT_EQ(ids.numDynamicTx(), 1);
}

TEST(TxState, ResetAttemptKeepsIdentity)
{
    TxState tx;
    tx.dTxId = 42;
    tx.timestamp = 7;
    tx.readSet = {1};
    tx.writeSet = {2};
    tx.accessesDone = 3;
    tx.active = true;
    tx.resetAttempt();
    EXPECT_EQ(tx.dTxId, 42);
    EXPECT_EQ(tx.timestamp, 7u);
    EXPECT_TRUE(tx.readSet.empty());
    EXPECT_TRUE(tx.writeSet.empty());
    EXPECT_FALSE(tx.active);
}

class ConflictDetectorTest : public ::testing::Test
{
  protected:
    TxState
    makeTx(htm::DTxId dtx, std::uint64_t timestamp)
    {
        TxState tx;
        tx.dTxId = dtx;
        tx.thread = dtx;
        tx.timestamp = timestamp;
        tx.active = true;
        return tx;
    }

    ConflictDetector detector_;
};

TEST_F(ConflictDetectorTest, ReadReadSharingIsFine)
{
    TxState a = makeTx(1, 1), b = makeTx(2, 2);
    EXPECT_TRUE(detector_.access(a, 100, false).conflicts.empty());
    EXPECT_TRUE(detector_.access(b, 100, false).conflicts.empty());
    EXPECT_EQ(detector_.conflictsDetected().value(), 0u);
}

TEST_F(ConflictDetectorTest, WriteAfterReadConflicts)
{
    TxState a = makeTx(1, 1), b = makeTx(2, 2);
    detector_.access(a, 100, false);
    AccessResult result = detector_.access(b, 100, true);
    ASSERT_EQ(result.conflicts.size(), 1u);
    EXPECT_EQ(result.conflicts[0], &a);
}

TEST_F(ConflictDetectorTest, ReadAfterWriteConflicts)
{
    TxState a = makeTx(1, 1), b = makeTx(2, 2);
    detector_.access(a, 100, true);
    AccessResult result = detector_.access(b, 100, false);
    ASSERT_EQ(result.conflicts.size(), 1u);
    EXPECT_EQ(result.conflicts[0], &a);
}

TEST_F(ConflictDetectorTest, WriteWriteConflicts)
{
    TxState a = makeTx(1, 1), b = makeTx(2, 2);
    detector_.access(a, 100, true);
    EXPECT_FALSE(detector_.access(b, 100, true).conflicts.empty());
}

TEST_F(ConflictDetectorTest, OwnAccessesNeverConflict)
{
    TxState a = makeTx(1, 1);
    EXPECT_TRUE(detector_.access(a, 100, false).conflicts.empty());
    EXPECT_TRUE(detector_.access(a, 100, true).conflicts.empty());
    EXPECT_TRUE(detector_.access(a, 100, false).conflicts.empty());
    EXPECT_EQ(detector_.conflictsDetected().value(), 0u);
}

TEST_F(ConflictDetectorTest, UpgradeAgainstOtherReadersConflicts)
{
    TxState a = makeTx(1, 1), b = makeTx(2, 2);
    detector_.access(a, 100, false);
    detector_.access(b, 100, false);
    AccessResult result = detector_.access(a, 100, true);
    ASSERT_EQ(result.conflicts.size(), 1u);
    EXPECT_EQ(result.conflicts[0], &b);
}

TEST_F(ConflictDetectorTest, WriterAlsoReaderReportedOnce)
{
    // a reads then writes the line; b's write must report a once.
    TxState a = makeTx(1, 1), b = makeTx(2, 2);
    detector_.access(a, 100, false);
    detector_.access(a, 100, true);
    AccessResult result = detector_.access(b, 100, true);
    EXPECT_EQ(result.conflicts.size(), 1u);
}

TEST_F(ConflictDetectorTest, MultipleReadersAllReported)
{
    TxState a = makeTx(1, 1), b = makeTx(2, 2), c = makeTx(3, 3);
    detector_.access(a, 100, false);
    detector_.access(b, 100, false);
    AccessResult result = detector_.access(c, 100, true);
    EXPECT_EQ(result.conflicts.size(), 2u);
}

TEST_F(ConflictDetectorTest, RemoveTxReleasesIsolation)
{
    TxState a = makeTx(1, 1), b = makeTx(2, 2);
    detector_.access(a, 100, true);
    detector_.access(a, 200, false);
    detector_.removeTx(a);
    EXPECT_TRUE(detector_.access(b, 100, true).conflicts.empty());
    EXPECT_TRUE(detector_.access(b, 200, true).conflicts.empty());
    EXPECT_EQ(detector_.ownedLines(), 2u);
}

TEST_F(ConflictDetectorTest, RegistryShrinksOnRemove)
{
    TxState a = makeTx(1, 1);
    detector_.access(a, 100, true);
    detector_.access(a, 200, false);
    EXPECT_EQ(detector_.ownedLines(), 2u);
    detector_.removeTx(a);
    EXPECT_EQ(detector_.ownedLines(), 0u);
}

TEST_F(ConflictDetectorTest, ConsistencyCheckerSeesRegistry)
{
    TxState a = makeTx(1, 1), b = makeTx(2, 2);
    detector_.access(a, 100, true);
    detector_.access(b, 200, false);
    EXPECT_EQ(audited(detector_, {&a, &b}).violationCount(), 0u);
    // A tx the registry does not know about breaks consistency.
    TxState ghost = makeTx(3, 3);
    ghost.readSet.push_back(300);
    EXPECT_TRUE(
        audited(detector_, {&a, &b, &ghost}).fired("htm.registry"));
    detector_.removeTx(a);
    EXPECT_EQ(audited(detector_, {&b}).violationCount(), 0u);
    // So does an entry no transaction owns.
    detector_.testForceWriter(400, nullptr);
    EXPECT_TRUE(audited(detector_, {&b}).fired("htm.registry"));
}

TEST_F(ConflictDetectorTest, ConflictCounterCounts)
{
    TxState a = makeTx(1, 1), b = makeTx(2, 2);
    detector_.access(a, 100, true);
    detector_.access(b, 100, true);
    detector_.access(b, 100, true);
    EXPECT_EQ(detector_.conflictsDetected().value(), 2u);
}

TEST_F(ConflictDetectorTest, FailedAccessDoesNotRecordOwnership)
{
    TxState a = makeTx(1, 1), b = makeTx(2, 2);
    detector_.access(a, 100, true);
    detector_.access(b, 100, true); // conflicts, not recorded
    EXPECT_TRUE(b.writeSet.empty());
    detector_.removeTx(a);
    EXPECT_EQ(detector_.ownedLines(), 0u);
}

} // namespace

// ---- signature-mode detection (LogTM-SE style) ---------------------------

class SignatureDetectorTest : public ::testing::Test
{
  protected:
    SignatureDetectorTest()
    {
        htm::ConflictPolicy policy;
        policy.detectionMode = htm::DetectionMode::Signature;
        policy.signature.numBits = 4096;
        detector_ = std::make_unique<ConflictDetector>(policy);
    }

    TxState
    makeTx(htm::DTxId dtx, std::uint64_t timestamp)
    {
        TxState tx;
        tx.dTxId = dtx;
        tx.thread = dtx;
        tx.timestamp = timestamp;
        tx.active = true;
        return tx;
    }

    std::unique_ptr<ConflictDetector> detector_;
};

TEST_F(SignatureDetectorTest, RealConflictsAreNeverMissed)
{
    TxState a = makeTx(1, 1), b = makeTx(2, 2);
    detector_->access(a, 100, true);
    AccessResult result = detector_->access(b, 100, true);
    ASSERT_FALSE(result.conflicts.empty());
    EXPECT_EQ(result.conflicts.front(), &a);
}

TEST_F(SignatureDetectorTest, FalseConflictsLeaveNoRegistryEntries)
{
    // A 64-bit signature aliases most lines, so most of b's reads hit
    // a's write signature: false conflicts on lines nobody owns. They
    // must not leave registry entries behind.
    htm::ConflictPolicy policy;
    policy.detectionMode = htm::DetectionMode::Signature;
    policy.signature.numBits = 64;
    policy.signature.numHashes = 2;
    ConflictDetector detector(policy);
    TxState a = makeTx(1, 1), b = makeTx(2, 2);
    for (mem::Addr line = 0; line < 40; ++line)
        detector.access(a, line, true);
    for (mem::Addr line = 1000; line < 3000; ++line)
        detector.access(b, line, false);
    ASSERT_GT(detector.falseConflicts().value(), 0u);
    EXPECT_EQ(audited(detector, {&a, &b}).violationCount(), 0u);
    detector.removeTx(a);
    detector.removeTx(b);
    EXPECT_EQ(detector.ownedLines(), 0u);
    EXPECT_EQ(audited(detector, {}).violationCount(), 0u);
}

TEST_F(SignatureDetectorTest, DisjointLinesUsuallyProceed)
{
    TxState a = makeTx(1, 1), b = makeTx(2, 2);
    detector_->access(a, 100, true);
    // One line in a 4096-bit signature: a false positive on a
    // specific other line is overwhelmingly unlikely.
    EXPECT_TRUE(detector_->access(b, 50000, true).conflicts.empty());
    EXPECT_EQ(detector_->falseConflicts().value(), 0u);
}

TEST_F(SignatureDetectorTest, TinySignaturesManufactureConflicts)
{
    htm::ConflictPolicy policy;
    policy.detectionMode = htm::DetectionMode::Signature;
    policy.signature.numBits = 64;
    policy.signature.numHashes = 4;
    ConflictDetector detector(policy);
    TxState a = makeTx(1, 1), b = makeTx(2, 2);
    // Crowd a's signature, then probe many disjoint lines from b.
    for (mem::Addr line = 0; line < 30; ++line)
        detector.access(a, line, true);
    int rejected = 0;
    for (mem::Addr line = 1000; line < 1030; ++line) {
        if (!detector.access(b, line, true).conflicts.empty())
            ++rejected;
    }
    EXPECT_GT(rejected, 0);
    EXPECT_EQ(detector.falseConflicts().value(),
              static_cast<std::uint64_t>(rejected));
}

TEST_F(SignatureDetectorTest, RemoveTxClearsSignatures)
{
    TxState a = makeTx(1, 1), b = makeTx(2, 2);
    detector_->access(a, 100, true);
    detector_->removeTx(a);
    a.resetAttempt();
    a.active = true;
    EXPECT_TRUE(detector_->access(b, 100, true).conflicts.empty());
}

TEST_F(SignatureDetectorTest, ReadersDoNotConflictWithReaders)
{
    TxState a = makeTx(1, 1), b = makeTx(2, 2);
    detector_->access(a, 100, false);
    EXPECT_TRUE(detector_->access(b, 100, false).conflicts.empty());
}
