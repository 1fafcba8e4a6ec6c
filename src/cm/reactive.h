/**
 * @file
 * Classic reactive contention managers (Scherer & Scott, PODC'04/05).
 *
 * The paper's Section 2 traces contention management back to these
 * heuristic managers, which pick a victim when a conflict happens
 * instead of preventing the conflict. Every conflict is decided by
 * ContentionManager::arbitrate(), whose default is the LogTM
 * substrate's policy (stall, then self-abort); two representatives
 * override it:
 *
 *  - Timestamp: the older transaction always wins; a younger
 *    requester stalls briefly and then aborts itself. Livelock-free
 *    by construction, but age says nothing about how much work is
 *    at stake.
 *  - Polka: the published best-of-breed heuristic. Each transaction's
 *    "karma" is the number of objects (here: lines) it has opened;
 *    a requester backs off up to (holder karma - requester karma)
 *    times with randomized exponentially growing intervals, then
 *    kills the holder. Big transactions tend to win, but a patient
 *    requester eventually prevails.
 *
 * Both keep Backoff's empty begin-time behaviour: they are purely
 * reactive, so they slot into the evaluation as additional baselines
 * (bench/reactive_managers) showing why the paper moved to proactive
 * scheduling.
 */

#ifndef BFGTS_CM_REACTIVE_H
#define BFGTS_CM_REACTIVE_H

#include "cm/contention_manager.h"

namespace cm {

/** Tunables of the Timestamp manager. */
struct TimestampConfig {
    /** Stalls a doomed (younger) requester endures before aborting
     *  itself; gives the holder a chance to finish. */
    int graceStalls = 2;
    /** Mean random backoff after an abort, cycles. */
    sim::Cycles abortBackoff = 300;
};

/** Timestamp manager: oldest transaction wins every conflict. */
class TimestampManager : public ContentionManager
{
  public:
    using Config = TimestampConfig;

    explicit TimestampManager(const Services &services,
                              const Config &config = {})
        : ContentionManager(services), config_(config)
    {
    }

    std::string name() const override { return "Timestamp"; }

    BeginDecision
    onTxBegin(const TxInfo &) override
    {
        return BeginDecision{};
    }

    ConflictArbitration
    arbitrate(const ArbitrationContext &context) override
    {
        if (context.holderAgeDelta > 0) {
            // Holder is younger: the requester (older) wins.
            return ConflictArbitration::AbortHolders;
        }
        return context.stallRetries < config_.graceStalls
                   ? ConflictArbitration::StallRequester
                   : ConflictArbitration::AbortRequester;
    }

    AbortResponse onTxAbort(const TxInfo &tx,
                            const TxInfo &other) override;

    CmCost
    onTxCommit(const TxInfo &, const std::vector<mem::Addr> &) override
    {
        return CmCost{};
    }

  private:
    Config config_;
};

/** Tunables of the Polka manager. */
struct PolkaConfig {
    /** Base backoff window, doubled per retry, cycles. */
    sim::Cycles baseWindow = 120;
    /** Cap on the exponential growth. */
    int maxExponent = 8;
    /** Mean random backoff after losing (being aborted). */
    sim::Cycles abortBackoff = 300;
};

/** Polka: karma-weighted randomized-backoff victim selection. */
class PolkaManager : public ContentionManager
{
  public:
    using Config = PolkaConfig;

    explicit PolkaManager(const Services &services,
                          const Config &config = {})
        : ContentionManager(services), config_(config)
    {
    }

    std::string name() const override { return "Polka"; }

    BeginDecision
    onTxBegin(const TxInfo &) override
    {
        return BeginDecision{};
    }

    ConflictArbitration
    arbitrate(const ArbitrationContext &context) override
    {
        // Karma = lines opened. The requester spends one randomized
        // backoff interval per point of karma deficit; once it has
        // been patient enough (or was never behind), it wins.
        const int deficit = context.holderAccesses
                          - context.requesterAccesses;
        if (context.stallRetries >= deficit)
            return ConflictArbitration::AbortHolders;
        // Bounded patience: a holder that keeps opening lines could
        // otherwise outrun the requester's retries forever.
        if (context.stallRetries >= 4 * config_.maxExponent)
            return ConflictArbitration::AbortRequester;
        return ConflictArbitration::StallRequester;
    }

    AbortResponse onTxAbort(const TxInfo &tx,
                            const TxInfo &other) override;

    CmCost
    onTxCommit(const TxInfo &, const std::vector<mem::Addr> &) override
    {
        return CmCost{};
    }

  private:
    Config config_;
};

} // namespace cm

#endif // BFGTS_CM_REACTIVE_H
