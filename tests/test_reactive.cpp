/**
 * @file
 * Unit tests for the reactive managers (Timestamp, Polka) and the
 * conflict-arbitration hook they are built on.
 */

#include <gtest/gtest.h>

#include "cm/reactive.h"
#include "cm_test_util.h"
#include "runner/experiment.h"

namespace {

using cm::ArbitrationContext;
using cm::ConflictArbitration;
using cm::PolkaManager;
using cm::TimestampManager;

class ReactiveTest : public ::testing::Test
{
  protected:
    ReactiveTest()
        : timestamp_(machine_.services()),
          polka_(machine_.services())
    {
    }

    ArbitrationContext
    context(std::int64_t age_delta, int req_karma, int holder_karma,
            int retries)
    {
        ArbitrationContext ctx;
        ctx.requester = machine_.tx(0, 0);
        ctx.holder = machine_.tx(1, 1);
        ctx.holderAgeDelta = age_delta;
        ctx.requesterAccesses = req_karma;
        ctx.holderAccesses = holder_karma;
        ctx.stallRetries = retries;
        return ctx;
    }

    cmtest::Machine machine_;
    TimestampManager timestamp_;
    PolkaManager polka_;
};

TEST_F(ReactiveTest, DefaultArbitrationDefersToSubstrate)
{
    cm::BackoffManager backoff(machine_.services());
    EXPECT_EQ(backoff.arbitrate(context(1, 0, 0, 0)),
              ConflictArbitration::UseSubstrate);
}

TEST_F(ReactiveTest, TimestampOlderRequesterKillsHolder)
{
    // holderAgeDelta > 0: holder is younger than the requester.
    EXPECT_EQ(timestamp_.arbitrate(context(+5, 0, 0, 0)),
              ConflictArbitration::AbortHolders);
}

TEST_F(ReactiveTest, TimestampYoungerRequesterStallsThenDies)
{
    EXPECT_EQ(timestamp_.arbitrate(context(-5, 0, 0, 0)),
              ConflictArbitration::StallRequester);
    EXPECT_EQ(timestamp_.arbitrate(context(-5, 0, 0, 1)),
              ConflictArbitration::StallRequester);
    EXPECT_EQ(timestamp_.arbitrate(context(-5, 0, 0, 2)),
              ConflictArbitration::AbortRequester);
}

TEST_F(ReactiveTest, PolkaRichRequesterWinsImmediately)
{
    EXPECT_EQ(polka_.arbitrate(context(0, 20, 5, 0)),
              ConflictArbitration::AbortHolders);
}

TEST_F(ReactiveTest, PolkaPoorRequesterWaitsOutTheDeficit)
{
    // Deficit of 3: stall three times, then win.
    for (int retries = 0; retries < 3; ++retries) {
        EXPECT_EQ(polka_.arbitrate(context(0, 2, 5, retries)),
                  ConflictArbitration::StallRequester)
            << retries;
    }
    EXPECT_EQ(polka_.arbitrate(context(0, 2, 5, 3)),
              ConflictArbitration::AbortHolders);
}

TEST_F(ReactiveTest, PolkaPatienceIsBounded)
{
    // Huge deficit: after the cap the requester gives up instead.
    EXPECT_EQ(polka_.arbitrate(context(0, 0, 1000, 32)),
              ConflictArbitration::AbortRequester);
}

TEST_F(ReactiveTest, BothProceedFreelyAtBegin)
{
    EXPECT_EQ(timestamp_.onTxBegin(machine_.tx(0, 0)).action,
              cm::BeginAction::Proceed);
    EXPECT_EQ(polka_.onTxBegin(machine_.tx(0, 0)).action,
              cm::BeginAction::Proceed);
}

TEST(ReactiveIntegration, FullRunsCompleteAndConserveWork)
{
    runner::RunOptions options;
    options.txPerThread = 8;
    for (cm::CmKind kind :
         {cm::CmKind::Timestamp, cm::CmKind::Polka}) {
        const runner::SimResults r =
            runner::runStamp("Intruder", kind, options);
        EXPECT_EQ(r.commits, 64u * 8u) << cm::cmKindName(kind);
        EXPECT_EQ(r.stallTimeouts, 0u);
    }
}

TEST(ReactiveIntegration, VictimSelectionBeatsPlainBackoff)
{
    // Heuristic victim selection should not be worse than blind
    // randomized backoff on a high-contention benchmark.
    runner::RunOptions options;
    options.txPerThread = 40;
    const runner::SimResults backoff =
        runner::runStamp("Genome", cm::CmKind::Backoff, options);
    const runner::SimResults polka =
        runner::runStamp("Genome", cm::CmKind::Polka, options);
    EXPECT_LT(polka.runtime, backoff.runtime);
}

TEST(ReactiveIntegration, ExtendedKindsRoundTrip)
{
    EXPECT_EQ(cm::cmKindFromName("Timestamp"), cm::CmKind::Timestamp);
    EXPECT_EQ(cm::cmKindFromName("Polka"), cm::CmKind::Polka);
    EXPECT_EQ(cm::extendedCmKinds().size(),
              cm::allCmKinds().size() + 2);
    EXPECT_FALSE(cm::isBfgts(cm::CmKind::Polka));
}

} // namespace
