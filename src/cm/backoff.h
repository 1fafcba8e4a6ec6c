/**
 * @file
 * Reactive randomized-exponential-backoff contention manager.
 *
 * The classic baseline the paper (and Bobba et al.'s pathologies
 * work) measures everyone against: do nothing at begin, and on abort
 * spin for a random interval that doubles with each consecutive
 * abort. Near-zero overhead at low contention; collapses at high
 * contention because it never prevents a conflict from recurring.
 */

#ifndef BFGTS_CM_BACKOFF_H
#define BFGTS_CM_BACKOFF_H

#include <vector>

#include "cm/contention_manager.h"

namespace cm {

/** Tunables of the backoff baseline. */
struct BackoffConfig {
    /** Mean of the first backoff window, cycles. */
    sim::Cycles baseWindow = 400;
    /** Window doubles per consecutive abort up to this exponent. */
    int maxExponent = 10;
};

/** Randomized exponential backoff. */
class BackoffManager : public ContentionManager
{
  public:
    explicit BackoffManager(const Services &services,
                            const BackoffConfig &config = {})
        : ContentionManager(services), config_(config)
    {
    }

    std::string name() const override { return "Backoff"; }

    BeginDecision
    onTxBegin(const TxInfo &) override
    {
        return BeginDecision{}; // always proceed, zero cost
    }

    AbortResponse onTxAbort(const TxInfo &tx,
                            const TxInfo &other) override;

    CmCost
    onTxCommit(const TxInfo &tx, const std::vector<mem::Addr> &) override
    {
        streakFor(tx.thread) = 0;
        return CmCost{};
    }

  private:
    /** Per-thread abort streak, grown on first touch. */
    int &
    streakFor(sim::ThreadId thread)
    {
        const auto index = static_cast<std::size_t>(thread);
        if (index >= consecutiveAborts_.size())
            consecutiveAborts_.resize(index + 1, 0);
        return consecutiveAborts_[index];
    }

    BackoffConfig config_;
    /** Flat per-thread state: threads are dense small integers. */
    std::vector<int> consecutiveAborts_;
};

} // namespace cm

#endif // BFGTS_CM_BACKOFF_H
