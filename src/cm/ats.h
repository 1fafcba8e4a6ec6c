/**
 * @file
 * Adaptive Transaction Scheduling (Yoo & Lee, SPAA'08).
 *
 * Each transaction site tracks a "conflict pressure" moving average
 * that rises when an execution aborts and falls when one commits.
 * When a transaction begins while its pressure exceeds a threshold,
 * it must acquire a single global serialization token; transactions
 * that cannot get the token enqueue on a central wait queue and
 * block. At commit the token holder hands the token to the queue
 * head and wakes it.
 *
 * This gives graceful degradation to a single global lock under very
 * high contention and near-zero overhead under low contention -- but
 * it serializes *all* high-pressure transactions against each other
 * whether or not they actually conflict, and pays kernel time for
 * every block/wake pair. Both effects are what BFGTS improves on.
 */

#ifndef BFGTS_CM_ATS_H
#define BFGTS_CM_ATS_H

#include <deque>
#include <vector>

#include "cm/contention_manager.h"

namespace cm {

/** ATS tunables (defaults per Yoo & Lee's recommended settings). */
struct AtsConfig {
    /** EWMA weight on history: p' = alpha*p + (1-alpha)*outcome. */
    double alpha = 0.7;
    /** Serialize when pressure exceeds this. */
    double threshold = 0.5;
    /**
     * Yoo & Lee's "dynamically tuning" software version: every
     * tuningWindow commits the manager measures commit throughput
     * and hill-climbs the threshold (keep moving it in the direction
     * that helped, reverse otherwise). Off by default so the
     * calibrated fixed threshold stays reproducible.
     */
    bool dynamicThreshold = false;
    /** Commits per tuning window. */
    int tuningWindow = 256;
    /** Threshold adjustment per window. */
    double tuningStep = 0.05;
    /** Threshold clamp range under tuning. */
    double minThreshold = 0.1;
    double maxThreshold = 0.9;
    /** Scheduling cycles to read/update the pressure word. */
    sim::Cycles pressureCheckCost = 5;
    /** Kernel cycles to manipulate the central wait queue (locked). */
    sim::Cycles queueOpCost = 400;
    /** Kernel cycles the committer pays to wake the queue head. */
    sim::Cycles wakeCost = 1'500;
    /** Mean random backoff after an abort, cycles. */
    sim::Cycles abortBackoff = 300;
};

/** Central-queue adaptive serializer. */
class AtsManager : public ContentionManager
{
  public:
    AtsManager(int num_static_tx, const Services &services,
               const AtsConfig &config = {});

    std::string name() const override { return "ATS"; }

    BeginDecision onTxBegin(const TxInfo &tx) override;
    CmCost onConflictDetected(const TxInfo &tx,
                              const TxInfo &other) override;
    AbortResponse onTxAbort(const TxInfo &tx,
                            const TxInfo &other) override;
    CmCost onTxCommit(const TxInfo &tx,
                      const std::vector<mem::Addr> &rw_lines) override;

    /** Current conflict pressure of a transaction site (tests). */
    double pressure(htm::STxId stx) const;

    /** The conflictPressure gauge: mean pressure over all sites. */
    void sampleGauges(sim::SampleGauges &gauges) const override;

    /** Current serialization threshold (fixed or self-tuned). */
    double threshold() const { return threshold_; }

    /** Thread currently holding the serialization token (tests). */
    sim::ThreadId tokenHolder() const { return tokenHolder_; }

    /** Length of the central wait queue (tests). */
    std::size_t queueLength() const { return waitQueue_.size(); }

  private:
    void updatePressure(htm::STxId stx, bool conflicted);

    /** Hill-climb the threshold on commit-throughput feedback. */
    void tuneThreshold();

    AtsConfig config_;
    double threshold_ = 0.5;
    // Tuning state: commits and start tick of the current window.
    int windowCommits_ = 0;
    sim::Tick windowStart_ = 0;
    double lastRate_ = 0.0;
    double direction_ = 1.0;
    std::vector<double> pressure_;
    std::deque<sim::ThreadId> waitQueue_;
    sim::ThreadId tokenHolder_ = sim::kNoThread;
    /** Thread the token was handed to while waking it. */
    sim::ThreadId tokenPromise_ = sim::kNoThread;
};

} // namespace cm

#endif // BFGTS_CM_ATS_H
