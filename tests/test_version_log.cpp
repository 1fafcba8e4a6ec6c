/**
 * @file
 * Unit tests for the LogTM-style undo log, and for the once-per-line
 * logging contract it shares with the conflict detector: a store pays
 * the append only when the detector reports it as the line's first
 * write in the attempt.
 */

#include <gtest/gtest.h>

#include "htm/conflict_detector.h"
#include "htm/version_log.h"

namespace {

using htm::VersionLog;
using htm::VersionLogConfig;

VersionLogConfig
config()
{
    return VersionLogConfig{.appendCost = 4,
                            .commitCost = 10,
                            .abortTrapCost = 1000,
                            .restorePerEntry = 40};
}

TEST(VersionLog, StartsEmpty)
{
    VersionLog log(config());
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.highWaterMark(), 0u);
}

/** A transaction whose stores log the way the runner logs them. */
struct LoggedTx {
    htm::ConflictDetector detector;
    htm::TxState tx;
    VersionLog log{config()};

    LoggedTx()
    {
        tx.dTxId = 1;
        tx.thread = 0;
        tx.timestamp = 1;
        tx.active = true;
    }

    /** Store to @p line; @return the logging cycles it pays. */
    sim::Cycles
    store(mem::Addr line)
    {
        const htm::AccessResult result = detector.access(tx, line, true);
        EXPECT_TRUE(result.conflicts.empty());
        return result.firstWrite ? log.append() : 0;
    }

    /** End the attempt, as commit and abort both do. */
    void
    release()
    {
        detector.removeTx(tx);
        tx.resetAttempt();
        tx.active = true;
    }
};

TEST(VersionLog, AppendChargesOncePerLine)
{
    LoggedTx logged;
    EXPECT_EQ(logged.store(100), 4u);
    EXPECT_EQ(logged.store(100), 0u); // redundant write filtered
    EXPECT_EQ(logged.store(200), 4u);
    EXPECT_EQ(logged.log.size(), 2u);
    EXPECT_EQ(logged.log.appends().value(), 2u);
}

TEST(VersionLog, CommitIsConstantAndResets)
{
    VersionLog log(config());
    for (int i = 0; i < 50; ++i)
        log.append();
    EXPECT_EQ(log.commit(), 10u); // independent of size
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.commits().value(), 1u);
}

TEST(VersionLog, AbortCostScalesWithEntries)
{
    VersionLog log(config());
    for (int i = 0; i < 10; ++i)
        log.append();
    EXPECT_EQ(log.abort(), 1000u + 10u * 40u);
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.restoredEntries().value(), 10u);
    // An empty-log abort still pays the trap.
    EXPECT_EQ(log.abort(), 1000u);
}

TEST(VersionLog, LinesRelogAfterReset)
{
    LoggedTx logged;
    logged.store(7);
    logged.log.commit();
    logged.release();
    // After commit the line must be logged again on the next write.
    EXPECT_EQ(logged.store(7), 4u);
    logged.log.abort();
    logged.release();
    EXPECT_EQ(logged.store(7), 4u);
}

TEST(VersionLog, HighWaterMarkPersistsAcrossResets)
{
    VersionLog log(config());
    for (int i = 0; i < 30; ++i)
        log.append();
    log.abort();
    log.append();
    EXPECT_EQ(log.highWaterMark(), 30u);
}

} // namespace
