#include "ats.h"

#include "sim/event_queue.h"

#include <algorithm>

#include "os/scheduler.h"
#include "sim/logging.h"
#include "sim/sampler.h"

namespace cm {

AtsManager::AtsManager(int num_static_tx, const Services &services,
                       const AtsConfig &config)
    : ContentionManager(services), config_(config),
      threshold_(config.threshold),
      pressure_(static_cast<std::size_t>(num_static_tx), 0.0)
{
    sim_assert(num_static_tx >= 1);
}

void
AtsManager::tuneThreshold()
{
    if (++windowCommits_ < config_.tuningWindow)
        return;
    sim_assert(services_.events != nullptr);
    const sim::Tick now = services_.events->curTick();
    if (now > windowStart_) {
        const double rate =
            static_cast<double>(windowCommits_)
            / static_cast<double>(now - windowStart_);
        if (lastRate_ > 0.0 && rate < lastRate_)
            direction_ = -direction_; // that move hurt; reverse
        threshold_ = std::clamp(threshold_
                                    + direction_
                                          * config_.tuningStep,
                                config_.minThreshold,
                                config_.maxThreshold);
        lastRate_ = rate;
    }
    windowCommits_ = 0;
    windowStart_ = now;
}

double
AtsManager::pressure(htm::STxId stx) const
{
    sim_assert(stx >= 0
               && stx < static_cast<htm::STxId>(pressure_.size()));
    return pressure_[static_cast<std::size_t>(stx)];
}

void
AtsManager::sampleGauges(sim::SampleGauges &gauges) const
{
    double sum = 0.0;
    for (double p : pressure_)
        sum += p;
    gauges.conflictPressure =
        pressure_.empty() ? 0.0
                          : sum / static_cast<double>(pressure_.size());
}

void
AtsManager::updatePressure(htm::STxId stx, bool conflicted)
{
    double &p = pressure_[static_cast<std::size_t>(stx)];
    p = config_.alpha * p + (1.0 - config_.alpha)
                                * (conflicted ? 1.0 : 0.0);
}

BeginDecision
AtsManager::onTxBegin(const TxInfo &tx)
{
    BeginDecision decision;
    decision.cost.sched = config_.pressureCheckCost;

    // A thread that was handed the token while blocked starts now.
    if (tokenPromise_ == tx.thread) {
        tokenPromise_ = sim::kNoThread;
        tokenHolder_ = tx.thread;
        return decision;
    }
    // Retries of the current token holder keep the token.
    if (tokenHolder_ == tx.thread)
        return decision;

    if (pressure(tx.sTx) <= threshold_)
        return decision; // bypass the queue entirely

    // The central queue serializes against whoever holds the token,
    // not a known enemy transaction.
    trackSerialization(kUnknownSite, tx.sTx);
    if (tokenHolder_ == sim::kNoThread
        && tokenPromise_ == sim::kNoThread && waitQueue_.empty()) {
        tokenHolder_ = tx.thread;
        decision.cost.kernel += config_.queueOpCost;
        return decision;
    }
    waitQueue_.push_back(tx.thread);
    decision.action = BeginAction::Block;
    decision.cost.kernel += config_.queueOpCost;
    return decision;
}

CmCost
AtsManager::onConflictDetected(const TxInfo &tx, const TxInfo &other)
{
    // Yoo & Lee update conflict pressure per transaction *outcome*
    // (abort raises it, commit lowers it), not per conflicting
    // access -- per-access updates would saturate the EWMA in one
    // burst. Nothing to do at detection time.
    (void)tx;
    (void)other;
    return CmCost{};
}

AbortResponse
AtsManager::onTxAbort(const TxInfo &tx, const TxInfo &other)
{
    (void)other;
    updatePressure(tx.sTx, true);

    AbortResponse resp;
    resp.cost.sched = config_.pressureCheckCost;
    sim_assert(services_.rng != nullptr);
    resp.backoff = services_.rng->below(
        std::max<sim::Cycles>(1, config_.abortBackoff * 2));
    // The token (if held) is kept across retries: the transaction is
    // still serialized until it commits.
    return resp;
}

CmCost
AtsManager::onTxCommit(const TxInfo &tx,
                       const std::vector<mem::Addr> &rw_lines)
{
    (void)rw_lines;
    updatePressure(tx.sTx, false);
    if (config_.dynamicThreshold)
        tuneThreshold();

    CmCost cost;
    cost.sched = config_.pressureCheckCost;

    if (tokenHolder_ == tx.thread) {
        tokenHolder_ = sim::kNoThread;
        cost.kernel += config_.queueOpCost;
        if (!waitQueue_.empty()) {
            const sim::ThreadId next = waitQueue_.front();
            waitQueue_.pop_front();
            // Hand the token over and wake the head. The kernel cost
            // of the wake is charged here (to the committer); the
            // scheduler is told waker=kNoThread so it is not counted
            // twice.
            tokenPromise_ = next;
            cost.kernel += config_.wakeCost;
            sim_assert(services_.scheduler != nullptr);
            services_.scheduler->wake(next, sim::kNoThread);
        }
    }
    return cost;
}

} // namespace cm
