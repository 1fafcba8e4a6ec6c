/**
 * @file
 * The simulation engine: executes a workload on the modeled machine
 * under a contention manager and reports SimResults.
 *
 * Execution model
 * ---------------
 * Each software thread is a state machine driven by the event queue.
 * While a thread runs on its CPU it advances through phases:
 *
 *   StartDescriptor -> NonTxWork -> TxBegin -> (BeginStall | yield |
 *   block)* -> TxAccess... -> Commit -> CommitDone -> StartDescriptor
 *
 * with aborts rewinding to TxBegin after rollback + backoff. Every
 * cycle a thread consumes is charged to one accounting bucket
 * (Fig. 5 categories); in-transaction cycles accumulate per attempt
 * and land in "tx" on commit or "aborted" on abort.
 *
 * Threads never leave their CPU mid-transaction (stalls spin); they
 * yield/block/preempt only at begin-time and non-transactional safe
 * points, which keeps conflict resolution's progress guarantees
 * intact (the oldest transaction always wins and is always on-CPU).
 */

#ifndef BFGTS_RUNNER_SIMULATION_H
#define BFGTS_RUNNER_SIMULATION_H

#include <algorithm>
#include <functional>
#include <memory>
#include <ostream>
#include <set>
#include <vector>

#include "htm/version_log.h"
#include "runner/audit_checks.h"
#include "runner/config.h"
#include "runner/results.h"
#include "sim/det_hash.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace sim {
class JsonWriter;
struct SampleCounts;
struct SampleGauges;
}

namespace runner {

/** One full simulation run. Build, run() once, read the results. */
class Simulation
{
  public:
    explicit Simulation(const SimConfig &config);
    ~Simulation();

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Execute to completion. Call at most once. */
    SimResults run();

    /**
     * Dump every component's raw statistics (caches, bus, conflict
     * detector, predictors, contention manager, undo logs, predictor
     * decision quality) in the gem5-style "group.stat value" format.
     * Valid after run().
     */
    void dumpStats(std::ostream &os) const;

    /**
     * JSON twin of dumpStats(): writes a "stats" object (one member
     * per component group), a "predictor_quality" object with
     * precision/recall and the per-site confusion counters, and a
     * "similarity_per_site" array into the writer's current object.
     * Key order is fixed, so equal runs dump byte-identical JSON.
     */
    void dumpStatsJson(sim::JsonWriter &jw) const;

    /** The contention manager under test (for tests). */
    cm::ContentionManager &manager() { return *cm_; }

    /** The workload driving the run (for tests). */
    workloads::Workload &workload() { return *workload_; }

  private:
    enum class Phase {
        StartDescriptor,
        NonTxWork,
        TxBegin,
        BeginStall,
        YieldNow,
        BlockNow,
        TxAccess,
        Commit,
        CommitDone,
    };

    enum class Bucket { NonTx, Kernel, Sched, Abort, Attempt };

    /** A (cycles, bucket) charge for multi-bucket advances. */
    struct Charge {
        sim::Cycles cycles;
        Bucket bucket;
    };

    /**
     * Small sorted set of dTxIDs in a flat vector. A worker sees a
     * handful of enemies per attempt, so ordered insertion into a
     * contiguous array beats a node-based std::set: no allocation in
     * steady state (clear() keeps capacity) and iteration is ordered
     * by construction, preserving determinism.
     */
    class DtxFlatSet
    {
      public:
        /** @return true if @p value was newly inserted. */
        bool
        insert(htm::DTxId value)
        {
            auto it = std::lower_bound(items_.begin(), items_.end(),
                                       value);
            if (it != items_.end() && *it == value)
                return false;
            items_.insert(it, value);
            return true;
        }

        void clear() { items_.clear(); }
        bool empty() const { return items_.empty(); }
        auto begin() const { return items_.begin(); }
        auto end() const { return items_.end(); }

      private:
        std::vector<htm::DTxId> items_;
    };

    struct Worker {
        sim::ThreadId tid = sim::kNoThread;
        sim::Rng rng{0};
        Phase phase = Phase::StartDescriptor;
        int done = 0;
        workloads::TxDescriptor desc;
        /** Aborts suffered by the current descriptor (starvation). */
        int descriptorAborts = 0;
        sim::Cycles nonTxRemaining = 0;
        htm::TxState tx;
        htm::VersionLog undoLog;
        int accessIndex = 0;
        int stallRetries = 0;
        sim::Tick stallStart = 0;
        htm::DTxId stallOn = htm::kNoTx;
        bool committing = false;
        sim::EventId pendingEvent = sim::kNoEvent;
        sim::Cycles attemptCycles = 0;
        /** Enemy the most recent begin decision serialized behind
         *  (kNoTx when the last begin proceeded unserialized). */
        htm::DTxId lastSerializedOn = htm::kNoTx;
        /** Enemy the *running* attempt was serialized behind; drives
         *  the prediction-quality classification at commit/abort. */
        htm::DTxId attemptSerializedOn = htm::kNoTx;
        /** Confidence behind the most recent begin decision, in
         *  [0, 1]; negative when the CM consulted none. */
        double lastConfidence = -1.0;
        /** Confidence behind the running attempt's begin decision
         *  (frozen copy of lastConfidence at Proceed). */
        double attemptConfidence = -1.0;
        /** Begin-stall cycles accumulated by the running attempt;
         *  the wasted-stall cost if the prediction was wrong. */
        sim::Cycles attemptStallCycles = 0;
        /** Enemies already reported to the CM in this attempt.
         *  Ordered by dTxID so any future iteration (e.g. picking a
         *  victim among enemies) is deterministic by construction. */
        DtxFlatSet reportedEnemies;
        /** Holders this worker currently NACK-waits on; maintained
         *  only in checked mode, feeds the wait-graph audit. */
        DtxFlatSet waitHolders;
        /** Reusable commit-set buffer (doCommitDone); cleared per
         *  commit, capacity kept so steady state never allocates. */
        std::vector<mem::Addr> commitLines;
        /** Reusable charge list for the access path, same idea. */
        std::vector<Charge> chargeScratch;
        Breakdown buckets;
    };

    void step(Worker &worker);

    // Phase bodies; return true to continue the zero-time loop.
    bool doStartDescriptor(Worker &worker);
    bool doNonTxWork(Worker &worker);
    bool doTxBegin(Worker &worker);
    bool doBeginStall(Worker &worker);
    bool doTxAccess(Worker &worker);
    bool doCommit(Worker &worker);
    bool doCommitDone(Worker &worker);

    /** If the begin-stall goes on unchanged -- its enemy still runs,
     *  the timeout has not passed and no preemption is due -- charge
     *  one poll interval of Sched cycles, queue the next poll on the
     *  event-queue lane and return true. */
    bool spinBeginStall(Worker &worker);
    /** Lane handler: one begin-stall poll of @p worker. Only the poll
     *  that ends the stall steps the worker. */
    void pollBeginStall(Worker &worker);

    /** Charge cycles and schedule the next step after them. */
    void advance(Worker &worker, sim::Cycles cycles, Bucket bucket);
    /** Literal charge lists: no heap allocation at the call site. */
    void advanceMulti(Worker &worker,
                      std::initializer_list<Charge> charges);
    /** Dynamically built charge lists (worker.chargeScratch). */
    void advanceMulti(Worker &worker,
                      const std::vector<Charge> &charges);
    void advanceSpan(Worker &worker, const Charge *charges,
                     std::size_t count);
    void charge(Worker &worker, sim::Cycles cycles, Bucket bucket);

    /** Abort @p worker's transaction; @p enemy is the other party. */
    void abortTx(Worker &worker, const cm::TxInfo &enemy);

    /** Emit one trace record if tracing is enabled (no sim cost). */
    void trace(const Worker &worker, sim::TraceCategory category,
               const char *event,
               std::vector<std::pair<std::string, std::string>>
                   details = {});

    /** Would a record of @p category be rendered? Emission sites use
     *  this to skip building detail strings nobody consumes. */
    bool
    wantsTrace(sim::TraceCategory category) const
    {
        return config_.traceSink != nullptr
            && config_.traceSink->wants(category);
    }

    /** Fill the sampler's cumulative counts and current gauges. */
    void sampleSnapshot(sim::SampleCounts &counts,
                        sim::SampleGauges &gauges) const;

    /** Classify a serialized attempt's outcome at commit time. */
    void classifyPrediction(const Worker &worker,
                            const std::vector<mem::Addr> &rw_lines);

    /** Build every component StatGroup and hand it to @p visit.
     *  Shared by the text and JSON stat dumps. */
    void visitStatGroups(
        const std::function<void(const sim::StatGroup &)> &visit)
        const;

    cm::TxInfo infoFor(const Worker &worker) const;
    cm::TxInfo infoFor(const htm::TxState &tx) const;

    bool isTxRunning(htm::DTxId dtx) const;

    /** Record exact-set similarity at commit (Table 1 measurement). */
    void recordSimilarity(Worker &worker,
                          const std::vector<mem::Addr> &rw_lines);

    /** True when invariant checking is active this run. */
    bool
    auditing() const
    {
        return audit_ != nullptr && audit_->shouldCheck();
    }

    /** Feed the lifecycle FSM auditor (checked mode only). */
    void auditLifecycle(const Worker &worker,
                        LifecycleAuditor::TxEvent event);

    /** Structural sweep over every subsystem's invariants, run at
     *  transaction boundaries and end of run (checked mode only). */
    void auditSweep();

    SimConfig config_;
    sim::EventQueue events_;
    std::unique_ptr<workloads::Workload> workload_;
    std::unique_ptr<htm::TxIdSpace> ids_;
    std::unique_ptr<mem::MemSystem> mem_;
    std::unique_ptr<htm::ConflictDetector> detector_;
    std::unique_ptr<os::OsScheduler> sched_;
    std::unique_ptr<cpu::PredictorSystem> predictors_;
    std::unique_ptr<cm::ContentionManager> cm_;
    sim::Rng rng_;

    /** Checked simulation mode (null members when audit is off). */
    std::unique_ptr<sim::AuditEngine> ownedAudit_;
    sim::AuditEngine *audit_ = nullptr;
    std::unique_ptr<LifecycleAuditor> lifecycle_;

    std::vector<Worker> workers_;
    std::uint64_t nextTimestamp_ = 1;
    bool ran_ = false;

    // Measurements.
    sim::Counter commits_;
    sim::Counter aborts_;
    sim::Counter conflicts_;
    sim::Counter stallTimeouts_;
    sim::Tick lastFinish_ = 0;
    int finishedThreads_ = 0;

    /** Per-sTxID prediction confusion counters (see
     *  runner::PredictionQuality for the classification rules). */
    struct SitePrediction {
        sim::Counter predictedStalls;
        sim::Counter truePositives;
        sim::Counter falsePositives;
        sim::Counter falseNegatives;
        sim::Counter predictedAborts;
        sim::Counter trueNegatives;
    };
    std::vector<SitePrediction> sitePrediction_; // per sTxId
    /** Cycles wasted per aborted attempt (Fig. 5 "aborted" source). */
    sim::Histogram abortCyclesHist_ = sim::Histogram::makeLog2(34);
    /** Cycles spent in each begin-stall (prediction wait time). */
    sim::Histogram stallCyclesHist_ = sim::Histogram::makeLog2(34);

    struct SimTrack {
        sim::HashSet<mem::Addr> lastSet;
        double avgSize = 0.0;
    };
    std::vector<SimTrack> simTrack_;          // per dTxId dense index
    std::vector<sim::Accumulator> siteSim_;   // per sTxId
    std::set<std::pair<int, int>> conflictGraph_;
    std::map<std::pair<int, int>, std::uint64_t> abortPairs_;
    /** Directed (winner sTx, victim sTx) abort attribution. */
    std::map<std::pair<int, int>, ConflictEdgeStats> abortEdges_;
};

} // namespace runner

#endif // BFGTS_RUNNER_SIMULATION_H
