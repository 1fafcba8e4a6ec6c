/**
 * @file
 * Runner-level invariant auditors (sim/audit.h).
 *
 * Three families of cross-layer checks the per-component
 * auditCheck() sweeps cannot see on their own:
 *
 *  - LifecycleAuditor: a per-thread transaction state machine fed by
 *    the runner at every lifecycle event. Only the legal tx_state.h
 *    transitions are accepted ("fsm.transition"), and at end of run
 *    every begin must have reached exactly one commit or abort and
 *    every thread must have finished outside a transaction
 *    ("fsm.balance").
 *
 *  - auditBreakdown: cycle-accounting conservation. The per-CPU
 *    buckets of the Fig. 5 breakdown must sum to the machine's cycle
 *    capacity ("cycles.conservation").
 *
 *  - auditWaitGraph: the NACK wait-for relation. Timestamps of
 *    active transactions are unique and positive ("htm.timestamp"),
 *    no transaction waits on itself, and the subgraph of
 *    younger-waits-on-older edges is acyclic -- the direction
 *    age-based arbitration resolves, so a cycle there would be a
 *    guaranteed deadlock ("htm.waitgraph"). Full-graph cycles are
 *    deliberately not flagged: transient mutual NACK stalls are
 *    legal and resolve within a retry interval.
 *
 * Everything here is purely observational: no simulated state is
 * read-modified, no cost is charged, and nothing reaches the stats
 * output, so audited runs stay byte-identical to unaudited ones.
 */

#ifndef BFGTS_RUNNER_AUDIT_CHECKS_H
#define BFGTS_RUNNER_AUDIT_CHECKS_H

#include <cstdint>
#include <vector>

#include "runner/results.h"
#include "sim/types.h"

namespace sim {
class AuditEngine;
}

namespace runner {

/** Per-thread transaction-lifecycle state machine. */
class LifecycleAuditor
{
  public:
    /** Lifecycle events the runner reports. */
    enum class TxEvent {
        Begin,
        Access,
        Commit,
        Abort,
        ThreadFinish,
    };

    LifecycleAuditor(sim::AuditEngine &audit, int num_threads);

    /** Feed one lifecycle event ("fsm.transition" on violations). */
    void onEvent(sim::ThreadId thread, TxEvent event, sim::Tick tick,
                 sim::CpuId cpu, std::int64_t dtx);

    /** End-of-run balance: begins == commits + aborts, every thread
     *  finished and idle ("fsm.balance"). */
    void finalize(sim::Tick tick);

    std::uint64_t begins() const { return begins_; }
    std::uint64_t commits() const { return commits_; }
    std::uint64_t aborts() const { return aborts_; }

  private:
    struct ThreadTx {
        bool active = false;
        bool finished = false;
        std::int64_t dtx = -1;
    };

    sim::AuditEngine &audit_;
    std::vector<ThreadTx> threads_;
    std::uint64_t begins_ = 0;
    std::uint64_t commits_ = 0;
    std::uint64_t aborts_ = 0;
};

/**
 * Cycle conservation over the final breakdown: the six buckets must
 * sum exactly to numCpus * runtime ("cycles.conservation"). run()
 * computes idle as the capacity remainder, so this fails only when
 * the busy buckets oversubscribe the machine -- some cycle was
 * charged to two buckets (or to a thread that was not on a CPU).
 */
void auditBreakdown(sim::AuditEngine &audit,
                    const Breakdown &breakdown, sim::Cycles runtime,
                    int num_cpus, sim::Tick tick);

/**
 * CPU-table liveness: every transaction the CPU Table the contention
 * manager scans names must actually be running ("cm.cputable").
 * @p cm_view is indexed by CPU with -1 for empty slots;
 * @p running_dtxs lists the active transaction ids.
 */
void auditCmCpuTable(sim::AuditEngine &audit,
                     const std::vector<std::int64_t> &cm_view,
                     const std::vector<std::int64_t> &running_dtxs,
                     sim::Tick tick);

/** One NACK wait: @p waiter stalls until @p holder finishes. */
struct WaitEdge {
    std::int64_t waiter = -1;
    std::uint64_t waiterTs = 0;
    std::int64_t holder = -1;
    std::uint64_t holderTs = 0;
};

/** One active transaction, for timestamp uniqueness. */
struct ActiveTx {
    std::int64_t dtx = -1;
    std::uint64_t timestamp = 0;
};

/** Wait-graph and timestamp checks (see the file comment). */
void auditWaitGraph(sim::AuditEngine &audit,
                    const std::vector<ActiveTx> &active,
                    const std::vector<WaitEdge> &edges, sim::Tick tick);

} // namespace runner

#endif // BFGTS_RUNNER_AUDIT_CHECKS_H
