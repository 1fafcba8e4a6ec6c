/**
 * @file
 * Unit tests for the conflict-arbitration hook -- its default, LogTM's
 * policy, and the reactive managers (Timestamp, Polka) that override
 * it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "cm/factory.h"
#include "cm/reactive.h"
#include "cm_test_util.h"
#include "runner/experiment.h"
#include "sim/random.h"

namespace {

using cm::ArbitrationContext;
using cm::ConflictArbitration;
using cm::ContentionManager;
using cm::PolkaManager;
using cm::TimestampManager;

/**
 * Reference model: LogTM's verdict on one conflicting access, decided
 * over all its holders at once. Stall while fewer than 1 NACK was
 * taken; then abort the holders only when the requester's section has
 * aborted at least 8 times and it is strictly older than every
 * holder; otherwise abort the requester.
 */
ConflictArbitration
logTmReference(std::uint64_t requester_age,
               const std::vector<std::uint64_t> &holder_ages,
               int stall_retries, int prior_aborts)
{
    if (stall_retries < 1)
        return ConflictArbitration::StallRequester;
    if (prior_aborts >= 8
        && std::all_of(holder_ages.begin(), holder_ages.end(),
                       [&](std::uint64_t age) {
                           return requester_age < age;
                       })) {
        return ConflictArbitration::AbortHolders;
    }
    return ConflictArbitration::AbortRequester;
}

class ReactiveTest : public ::testing::Test
{
  protected:
    ReactiveTest()
        : timestamp_(machine_.services()),
          polka_(machine_.services())
    {
    }

    static ArbitrationContext
    context(std::int64_t age_delta, int req_karma, int holder_karma,
            int retries, int prior_aborts = 0)
    {
        ArbitrationContext ctx;
        ctx.holderAgeDelta = age_delta;
        ctx.requesterAccesses = req_karma;
        ctx.holderAccesses = holder_karma;
        ctx.stallRetries = retries;
        ctx.priorAborts = prior_aborts;
        return ctx;
    }

    cmtest::Machine machine_;
    TimestampManager timestamp_;
    PolkaManager polka_;
};

constexpr int kStalls = ContentionManager::kMaxStallRetries;
constexpr int kEscape = ContentionManager::kSelfAbortEscape;

TEST_F(ReactiveTest, DefaultArbitrationDefersToSubstrate)
{
    // Managers that do not override arbitrate() get LogTM's policy,
    // with the substrate's two numbers.
    static_assert(kStalls == 1 && kEscape == 8);
    cm::BackoffManager backoff(machine_.services());
    EXPECT_EQ(backoff.arbitrate(context(+1, 0, 0, 0, kEscape)),
              ConflictArbitration::StallRequester);
    EXPECT_EQ(backoff.arbitrate(context(+1, 0, 0, kStalls, 0)),
              ConflictArbitration::AbortRequester);
    EXPECT_EQ(backoff.arbitrate(context(+1, 0, 0, kStalls, kEscape)),
              ConflictArbitration::AbortHolders);
    // Equal ages are not younger: the requester still aborts.
    EXPECT_EQ(backoff.arbitrate(context(0, 0, 0, kStalls, kEscape)),
              ConflictArbitration::AbortRequester);
    // Karma plays no part.
    EXPECT_EQ(backoff.arbitrate(context(-1, 99, 0, kStalls, kEscape)),
              ConflictArbitration::AbortRequester);
}

TEST_F(ReactiveTest, StallsEscalateToRequesterAbort)
{
    cm::BackoffManager backoff(machine_.services());
    for (int retry = 0; retry < kStalls; ++retry) {
        EXPECT_EQ(backoff.arbitrate(context(-5, 0, 0, retry)),
                  ConflictArbitration::StallRequester);
    }
    EXPECT_EQ(backoff.arbitrate(context(-5, 0, 0, kStalls)),
              ConflictArbitration::AbortRequester);
    EXPECT_EQ(backoff.arbitrate(context(-5, 0, 0, kStalls + 3)),
              ConflictArbitration::AbortRequester);
}

TEST_F(ReactiveTest, StarvedOldRequesterKillsHolders)
{
    cm::BackoffManager backoff(machine_.services());
    // The holder is 98 ticks younger than the requester.
    // Old requester, not yet starved: aborts itself.
    EXPECT_EQ(backoff.arbitrate(context(+98, 0, 0, kStalls, kEscape - 1)),
              ConflictArbitration::AbortRequester);
    // Starved up to the escape threshold: age wins.
    EXPECT_EQ(backoff.arbitrate(context(+98, 0, 0, kStalls, kEscape)),
              ConflictArbitration::AbortHolders);
}

TEST_F(ReactiveTest, StarvedYoungRequesterStillSelfAborts)
{
    cm::BackoffManager backoff(machine_.services());
    EXPECT_EQ(backoff.arbitrate(context(-98, 0, 0, kStalls, 50)),
              ConflictArbitration::AbortRequester);
}

TEST_F(ReactiveTest, DefaultFoldMatchesTheLogTmReference)
{
    // The runner keeps the severest verdict over the holders. For
    // every manager of the paper's matrix (none overrides
    // arbitrate()) that fold must equal the reference model's verdict
    // over random holder sets, equal ages included.
    sim::Rng rng(29);
    for (cm::CmKind kind : cm::allCmKinds()) {
        SCOPED_TRACE(cm::cmKindName(kind));
        const std::unique_ptr<ContentionManager> manager =
            cm::makeManager(kind, machine_.ids, machine_.services());
        int seen[3] = {};
        for (int trial = 0; trial < 4000; ++trial) {
            const std::uint64_t requester_age = 1 + rng.below(4);
            std::vector<std::uint64_t> holder_ages(1 + rng.below(8));
            for (std::uint64_t &age : holder_ages)
                age = 1 + rng.below(4);
            const int retries = static_cast<int>(rng.below(4));
            const int prior_aborts = static_cast<int>(rng.below(13));
            auto verdict = ConflictArbitration::AbortHolders;
            for (std::uint64_t age : holder_ages) {
                const auto delta = static_cast<std::int64_t>(age)
                                 - static_cast<std::int64_t>(requester_age);
                verdict = std::max(
                    verdict,
                    manager->arbitrate(context(
                        delta, static_cast<int>(rng.below(20)),
                        static_cast<int>(rng.below(20)), retries,
                        prior_aborts)));
            }
            ASSERT_EQ(verdict, logTmReference(requester_age, holder_ages,
                                              retries, prior_aborts))
                << "trial " << trial;
            ++seen[static_cast<int>(verdict)];
        }
        // The draw reaches all three verdicts.
        for (int count : seen)
            EXPECT_GT(count, 0);
    }
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
