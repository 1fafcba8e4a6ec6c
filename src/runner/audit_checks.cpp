#include "audit_checks.h"

#include <algorithm>
#include <string>
#include <utility>

#include "sim/audit.h"

namespace runner {

LifecycleAuditor::LifecycleAuditor(sim::AuditEngine &audit,
                                   int num_threads)
    : audit_(audit),
      threads_(static_cast<std::size_t>(num_threads))
{
}

void
LifecycleAuditor::onEvent(sim::ThreadId thread, TxEvent event,
                          sim::Tick tick, sim::CpuId cpu,
                          std::int64_t dtx)
{
    ThreadTx &state = threads_[static_cast<std::size_t>(thread)];
    audit_.check(!state.finished, "fsm.transition",
                 "lifecycle event on a finished thread", tick, cpu,
                 thread, -1, dtx);

    switch (event) {
      case TxEvent::Begin:
        audit_.check(!state.active, "fsm.transition",
                     "tx begin while a transaction is already active",
                     tick, cpu, thread, -1, dtx);
        state.active = true;
        state.dtx = dtx;
        ++begins_;
        return;
      case TxEvent::Access:
        audit_.check(state.active && state.dtx == dtx,
                     "fsm.transition",
                     "tx access outside an active transaction", tick,
                     cpu, thread, -1, dtx);
        return;
      case TxEvent::Commit:
      case TxEvent::Abort:
        audit_.check(state.active && state.dtx == dtx,
                     "fsm.transition",
                     event == TxEvent::Commit
                         ? "commit without a matching begin"
                         : "abort without a matching begin",
                     tick, cpu, thread, -1, dtx);
        state.active = false;
        state.dtx = -1;
        if (event == TxEvent::Commit)
            ++commits_;
        else
            ++aborts_;
        return;
      case TxEvent::ThreadFinish:
        audit_.check(!state.active, "fsm.transition",
                     "thread finished mid-transaction", tick, cpu,
                     thread, -1, dtx);
        state.finished = true;
        return;
    }
}

void
LifecycleAuditor::finalize(sim::Tick tick)
{
    audit_.check(begins_ == commits_ + aborts_, "fsm.balance",
                 "begins (" + std::to_string(begins_)
                     + ") != commits (" + std::to_string(commits_)
                     + ") + aborts (" + std::to_string(aborts_) + ")",
                 tick);
    for (std::size_t t = 0; t < threads_.size(); ++t) {
        const ThreadTx &state = threads_[t];
        audit_.check(state.finished && !state.active, "fsm.balance",
                     "thread ended the run unfinished or mid-"
                     "transaction",
                     tick, sim::kNoCpu,
                     static_cast<sim::ThreadId>(t));
    }
}

void
auditBreakdown(sim::AuditEngine &audit, const Breakdown &breakdown,
               sim::Cycles runtime, int num_cpus, sim::Tick tick)
{
    const sim::Cycles busy = breakdown.nonTx + breakdown.kernel
                           + breakdown.tx + breakdown.aborted
                           + breakdown.sched;
    const sim::Cycles capacity =
        static_cast<sim::Cycles>(num_cpus) * runtime;
    audit.check(busy <= capacity, "cycles.conservation",
                "busy cycles (" + std::to_string(busy)
                    + ") oversubscribe the machine capacity ("
                    + std::to_string(capacity) + ")",
                tick);
    audit.check(busy + breakdown.idle == capacity,
                "cycles.conservation",
                "breakdown buckets + idle ("
                    + std::to_string(busy + breakdown.idle)
                    + ") != numCpus * runtime ("
                    + std::to_string(capacity) + ")",
                tick);
}

void
auditCmCpuTable(sim::AuditEngine &audit,
                const std::vector<std::int64_t> &cm_view,
                const std::vector<std::int64_t> &running_dtxs,
                sim::Tick tick)
{
    for (std::size_t cpu = 0; cpu < cm_view.size(); ++cpu) {
        const std::int64_t dtx = cm_view[cpu];
        audit.check(dtx < 0
                        || std::find(running_dtxs.begin(),
                                     running_dtxs.end(), dtx)
                               != running_dtxs.end(),
                    "cm.cputable",
                    "CM CPU table names a transaction that is not "
                    "running",
                    tick, static_cast<sim::CpuId>(cpu),
                    sim::kNoThread, -1, dtx);
    }
}

void
auditWaitGraph(sim::AuditEngine &audit,
               const std::vector<ActiveTx> &active,
               const std::vector<WaitEdge> &edges, sim::Tick tick)
{
    // Timestamps: positive, and unique across active transactions
    // (the age arbiter breaks ties by timestamp; a duplicate would
    // make "oldest wins" ambiguous).
    for (std::size_t i = 0; i < active.size(); ++i) {
        audit.check(active[i].timestamp > 0, "htm.timestamp",
                    "active transaction has no timestamp", tick,
                    sim::kNoCpu, sim::kNoThread, -1, active[i].dtx);
        for (std::size_t j = i + 1; j < active.size(); ++j) {
            audit.check(
                active[i].timestamp != active[j].timestamp,
                "htm.timestamp",
                [&] {
                    return "two active transactions share timestamp "
                         + std::to_string(active[i].timestamp);
                },
                tick, sim::kNoCpu, sim::kNoThread, -1, active[i].dtx);
        }
    }

    // No transaction NACK-waits on itself.
    for (const WaitEdge &edge : edges) {
        audit.check(edge.waiter != edge.holder, "htm.waitgraph",
                    "transaction waits on itself", tick, sim::kNoCpu,
                    sim::kNoThread, -1, edge.waiter);
    }

    // The subgraph of younger-waits-on-older edges must be acyclic:
    // timestamps strictly decrease along such edges, so a cycle
    // requires a timestamp tie or corruption -- and it is the
    // direction age arbitration cannot break, a guaranteed deadlock.
    // (Edges where an older tx waits on a younger one are excluded:
    // mixed-direction cycles are transient and legal.)
    std::vector<std::size_t> restricted;
    for (std::size_t e = 0; e < edges.size(); ++e) {
        if (edges[e].waiterTs >= edges[e].holderTs)
            restricted.push_back(e);
    }
    // Iterative DFS with colors over the restricted edges; the graph
    // is tiny (<= one edge set per stalled worker).
    enum class Color { White, Grey, Black };
    std::vector<std::int64_t> nodes;
    for (std::size_t e : restricted) {
        nodes.push_back(edges[e].waiter);
        nodes.push_back(edges[e].holder);
    }
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    const auto indexOf = [&nodes](std::int64_t dtx) {
        return static_cast<std::size_t>(
            std::lower_bound(nodes.begin(), nodes.end(), dtx)
            - nodes.begin());
    };
    std::vector<std::vector<std::size_t>> adj(nodes.size());
    for (std::size_t e : restricted) {
        adj[indexOf(edges[e].waiter)].push_back(
            indexOf(edges[e].holder));
    }
    std::vector<Color> color(nodes.size(), Color::White);
    bool cycle = false;
    for (std::size_t root = 0; root < nodes.size() && !cycle; ++root) {
        if (color[root] != Color::White)
            continue;
        // Stack of (node, next child index) frames.
        std::vector<std::pair<std::size_t, std::size_t>> stack;
        stack.emplace_back(root, 0);
        color[root] = Color::Grey;
        while (!stack.empty() && !cycle) {
            auto &[node, child] = stack.back();
            if (child >= adj[node].size()) {
                color[node] = Color::Black;
                stack.pop_back();
                continue;
            }
            const std::size_t next = adj[node][child++];
            if (color[next] == Color::Grey) {
                cycle = true;
            } else if (color[next] == Color::White) {
                color[next] = Color::Grey;
                stack.emplace_back(next, 0);
            }
        }
    }
    audit.check(!cycle, "htm.waitgraph",
                "cycle in the younger-waits-on-older NACK subgraph "
                "(unresolvable deadlock)",
                tick);
}

} // namespace runner
