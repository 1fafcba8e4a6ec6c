/**
 * @file
 * The contention manager class every manager derives from.
 *
 * A contention manager (CM) observes four events in a transaction's
 * life -- begin, conflict-abort, commit, plus the moment it actually
 * starts executing -- and steers scheduling through its begin-time
 * decision. Every hook also reports the *cycle cost* of the CM's own
 * bookkeeping, split into scheduling-software cycles and kernel-mode
 * cycles, because the paper's evaluation (Fig. 5) is largely a story
 * about who pays how much overhead where.
 *
 * The class also keeps the serialization counter and edges every
 * manager reports. Services gives a CM controlled access to the
 * simulated machine: the CPU Table the runner keeps (which dTxID runs
 * on each CPU, scanned at begin time by PTS and BFGTS-SW), the OS
 * scheduler (to wake blocked threads), the RNG (for randomized
 * backoff) and the hardware predictor system (BFGTS-HW only).
 *
 * Implementations: BackoffManager (reactive baseline), AtsManager
 * (Yoo & Lee), PtsManager (Blake et al., MICRO'09), BfgtsManager
 * (this paper, four variants), TimestampManager and PolkaManager
 * (Scherer & Scott).
 */

#ifndef BFGTS_CM_CONTENTION_MANAGER_H
#define BFGTS_CM_CONTENTION_MANAGER_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "htm/tx_id.h"
#include "mem/addr.h"
#include "sim/random.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace htm {
class CpuTable;
}
namespace os {
class OsScheduler;
}
namespace cpu {
class PredictorSystem;
}
namespace sim {
class AuditEngine;
class EventQueue;
class Profiler;
class QualityRecorder;
struct SampleGauges;
}

namespace cm {

/** Simulated-machine services a CM may use. */
struct Services {
    /** Which dTxID runs on each CPU; the runner writes it just before
     *  onTxStart(), onTxAbort() and onTxCommit(). */
    const htm::CpuTable *cpuTable = nullptr;
    os::OsScheduler *scheduler = nullptr;
    sim::Rng *rng = nullptr;
    /** The BFGTS hardware accelerator; only the HW variants use it. */
    cpu::PredictorSystem *predictors = nullptr;
    /** Simulated clock, for throughput-based self-tuning. */
    const sim::EventQueue *events = nullptr;
    /** Invariant auditor; null or disabled outside --audit runs. */
    sim::AuditEngine *audit = nullptr;
    /** Host-performance profiler; null outside --profile runs. Only
     *  wall-time/memory accounting may flow through it -- never model
     *  state. */
    sim::Profiler *profiler = nullptr;
    /** Decision-quality recorder; null outside --quality runs.
     *  Observational only: hooks may report estimates and exact
     *  RW-sets to it but must never read it back. */
    sim::QualityRecorder *quality = nullptr;
};

/** Cycle cost of a CM hook, split by accounting bucket. */
struct CmCost {
    /** Scheduling software/hardware cycles (Fig. 5 "Scheduling"). */
    sim::Cycles sched = 0;
    /** Kernel-mode cycles, e.g. pthread queue ops (Fig. 5 "Kernel"). */
    sim::Cycles kernel = 0;

    CmCost &
    operator+=(const CmCost &o)
    {
        sched += o.sched;
        kernel += o.kernel;
        return *this;
    }
};

/** What a transaction must do at TX_BEGIN. */
enum class BeginAction {
    /** Start executing now. */
    Proceed,
    /** Busy-wait until waitOn is no longer running, then retry begin. */
    StallOn,
    /** pthread_yield(); retry begin when re-dispatched. */
    YieldOn,
    /** Block; the CM will wake the thread (e.g. ATS wait queue). */
    Block,
};

/** Begin-time decision plus its cost. */
struct BeginDecision {
    BeginAction action = BeginAction::Proceed;
    htm::DTxId waitOn = htm::kNoTx;
    CmCost cost;
    /** Predicted conflict probability in [0, 1] behind this
     *  decision: the (normalized) confidence that triggered a
     *  stall, or the highest confidence consulted on a go.
     *  Negative when the CM consulted no confidence table.
     *  Observability only -- never feeds back into scheduling. */
    double confidence = -1.0;
};

/** Identity of a transaction as the CM hooks see it. */
struct TxInfo {
    sim::ThreadId thread = sim::kNoThread;
    sim::CpuId cpu = sim::kNoCpu;
    htm::STxId sTx = 0;
    htm::DTxId dTx = htm::kNoTx;
};

/**
 * A contention manager's verdict on one conflicting holder, ordered
 * by severity for the requester: AbortHolders < StallRequester <
 * AbortRequester. Reactive managers in the Scherer & Scott tradition
 * (Timestamp, Polka) pick their own victims; the proactive managers
 * of the paper's evaluation keep the default, LogTM's policy, and act
 * at begin time instead.
 */
enum class ConflictArbitration {
    /** The holder(s) abort; the requester retries. */
    AbortHolders,
    /** NACK the requester; it retries the access. */
    StallRequester,
    /** The requester aborts itself. */
    AbortRequester,
};

/** What the arbitration hook gets to look at. */
struct ArbitrationContext {
    /** Accesses the requester has performed this attempt (karma). */
    int requesterAccesses = 0;
    /** Consecutive stalls already suffered on this access. */
    int stallRetries = 0;
    /** Times the requester's section has aborted (starvation). */
    int priorAborts = 0;
    /** Accesses the holder has performed this attempt (karma). */
    int holderAccesses = 0;
    /** The holder's age timestamp relative to the requester's:
     *  negative = holder is older. */
    std::int64_t holderAgeDelta = 0;
};

/** Response to an abort: bookkeeping cost plus backoff to wait. */
struct AbortResponse {
    CmCost cost;
    /** Cycles to spin before retrying the transaction. */
    sim::Cycles backoff = 0;
};

/**
 * A contention manager: the lifecycle hooks and the serialization
 * bookkeeping.
 *
 * A manager implements the pure hooks and calls the protected
 * trackSerialization() for each begin-time serialization. It keeps no
 * CPU Table and no commit or abort count: the runner owns both and
 * has updated the table (Services::cpuTable) by the time a hook runs.
 * The runner reports on every manager the same way: the "cm" stats
 * group, then the four report hooks, whose defaults report nothing.
 */
class ContentionManager
{
  public:
    explicit ContentionManager(const Services &services)
        : services_(services)
    {
    }

    virtual ~ContentionManager() = default;

    ContentionManager(const ContentionManager &) = delete;
    ContentionManager &operator=(const ContentionManager &) = delete;

    /** Human-readable name, e.g. "BFGTS-HW". */
    virtual std::string name() const = 0;

    /**
     * TX_BEGIN hook; called on the first begin and on every retry
     * after an abort, yield, stall or wake.
     */
    virtual BeginDecision onTxBegin(const TxInfo &tx) = 0;

    /** The transaction passed its begin decision and is now running.
     *  The default does nothing. */
    virtual void
    onTxStart(const TxInfo &tx)
    {
        (void)tx;
    }

    /** LogTM's policy: NACKs a requester takes on one access before
     *  it aborts itself (the possible-cycle heuristic fires quickly;
     *  sustained conflicts in an eager HTM end in aborts). */
    static constexpr int kMaxStallRetries = 1;
    /** LogTM's policy: self-aborts of a section after which an older
     *  requester aborts younger holders instead, which bounds the
     *  starvation of long transactions (Bobba et al.'s pathologies). */
    static constexpr int kSelfAbortEscape = 8;

    /**
     * Decide a detected conflict with one holder. For each holder in
     * turn the runner calls arbitrate(), then, on that holder's first
     * report in the attempt, onConflictDetected(); the severest
     * verdict for the requester stands, so the holders abort only
     * when every holder loses. The default is LogTM's policy: stall
     * and retry kMaxStallRetries times, then self-abort, except that
     * a requester whose section has aborted kSelfAbortEscape times
     * aborts the holders younger than it. Reactive managers override
     * this with their victim-selection heuristic.
     */
    virtual ConflictArbitration
    arbitrate(const ArbitrationContext &context)
    {
        if (context.stallRetries < kMaxStallRetries)
            return ConflictArbitration::StallRequester;
        if (context.priorAborts >= kSelfAbortEscape
            && context.holderAgeDelta > 0) {
            return ConflictArbitration::AbortHolders;
        }
        return ConflictArbitration::AbortRequester;
    }

    /**
     * A conflict was detected (the requester got NACKed) between the
     * running transaction @p tx and @p other. Called once per
     * attempt and enemy, whether or not the conflict later ends in
     * an abort -- profiling managers learn their conflict graphs
     * from these events.
     */
    virtual CmCost
    onConflictDetected(const TxInfo &tx, const TxInfo &other)
    {
        (void)tx;
        (void)other;
        return CmCost{};
    }

    /**
     * The transaction aborted after a conflict with @p other.
     * @p other is the transaction on the far side of the conflict
     * (the enemy), whether self- or remotely-aborted.
     */
    virtual AbortResponse onTxAbort(const TxInfo &tx,
                                    const TxInfo &other) = 0;

    /**
     * The transaction committed.
     *
     * @param rw_lines Exact read/write set as line numbers, ascending
     *                 and duplicate-free (what the hardware exposes via
     *                 readCPUBloomFilter(); the CM encodes it into its
     *                 own signature).
     */
    virtual CmCost onTxCommit(const TxInfo &tx,
                              const std::vector<mem::Addr> &rw_lines)
        = 0;

    // ---- report hooks. Observational only; the defaults report
    // nothing.

    /**
     * Report this manager's per-structure memory footprint (byte
     * high-water gauges) into the host profiler at the end of a
     * profiled run.
     */
    virtual void
    profileMemory(sim::Profiler &profiler) const
    {
        (void)profiler;
    }

    /**
     * Hand this manager's own stats groups to @p visit. The runner
     * emits the shared "cm" group just before calling this.
     */
    virtual void
    visitStatGroups(
        const std::function<void(const sim::StatGroup &)> &visit) const
    {
        (void)visit;
    }

    /** Set the sampler gauges this manager can measure. */
    virtual void
    sampleGauges(sim::SampleGauges &gauges) const
    {
        (void)gauges;
    }

    /**
     * Invariant audit (sim/audit.h) over this manager's own
     * structures, run in each audit sweep after the runner's
     * CPU-table liveness check.
     */
    virtual void
    auditCheck(sim::AuditEngine &audit, sim::Tick tick) const
    {
        (void)audit;
        (void)tick;
    }

    // ---- serialization bookkeeping

    const sim::Counter &serializations() const { return serializations_; }

    /**
     * Begin-time serializations per (winner sTx, victim sTx) edge:
     * how often each site was made to wait behind each other site.
     * Winner kUnknownSite means the CM serialized without naming an
     * enemy transaction (ATS's central token queue). Ordered map, so
     * iteration is deterministic.
     */
    static constexpr int kUnknownSite = -1;
    const std::map<std::pair<int, int>, std::uint64_t> &
    serializationEdges() const
    {
        return serializationEdges_;
    }

  protected:
    /** Count a begin-time serialization decision and attribute the
     *  (winner, victim) site edge; kUnknownSite when the CM has no
     *  specific enemy (token-based schemes). */
    void
    trackSerialization(int winner_stx, int victim_stx)
    {
        serializations_.inc();
        ++serializationEdges_[{winner_stx, victim_stx}];
    }

    Services services_;

  private:
    sim::Counter serializations_;
    std::map<std::pair<int, int>, std::uint64_t> serializationEdges_;
};

} // namespace cm

#endif // BFGTS_CM_CONTENTION_MANAGER_H
