/**
 * @file
 * Writing your own contention manager.
 *
 * cm::ContentionManager is the other main extension point (next to
 * Workload). Derive from it, implement the begin / abort / commit
 * hooks (and onTxStart, if the manager tracks what runs), report your
 * bookkeeping's cycle cost, and call the protected trackSerialization
 * helper for each begin-time serialization. The runner keeps the CPU
 * Table (Services::cpuTable, already updated when a hook runs) and
 * the commit and abort counts, schedules around your decisions and
 * reports the manager's "cm" stats, serializations and CPU-table
 * audit like any built-in one. Override profileMemory,
 * visitStatGroups, sampleGauges or auditCheck to report more. This
 * example builds a deliberately simple manager -- "GreedyLimit" --
 * that caps the number of concurrently running transactions per
 * static site at a fixed limit, with no learning at all, and compares
 * it against Backoff and BFGTS-HW.
 *
 * GreedyLimit is a reasonable straw-man: on benchmarks whose
 * contention is concentrated in one hot site it behaves like a
 * semaphore and does surprisingly fine; where conflicts are spread
 * across sites it over- or under-throttles because it never learns
 * which pairs actually collide.
 */

#include <cstdio>
#include <vector>

#include "cm/contention_manager.h"
#include "runner/experiment.h"
#include "runner/simulation.h"

namespace {

/** At most `limit` transactions of the same site run concurrently. */
class GreedyLimitManager : public cm::ContentionManager
{
  public:
    GreedyLimitManager(int num_sites, const cm::Services &services,
                       int limit)
        : ContentionManager(services),
          running_(static_cast<std::size_t>(num_sites), 0),
          limit_(limit)
    {
    }

    std::string name() const override { return "GreedyLimit"; }

    cm::BeginDecision
    onTxBegin(const cm::TxInfo &tx) override
    {
        cm::BeginDecision decision;
        decision.cost.sched = 4; // one counter read
        if (running_[static_cast<std::size_t>(tx.sTx)] >= limit_) {
            trackSerialization(kUnknownSite, tx.sTx);
            // No specific enemy: just get off the CPU and retry.
            decision.action = cm::BeginAction::YieldOn;
        }
        return decision;
    }

    void
    onTxStart(const cm::TxInfo &tx) override
    {
        ++running_[static_cast<std::size_t>(tx.sTx)];
    }

    cm::AbortResponse
    onTxAbort(const cm::TxInfo &tx, const cm::TxInfo &) override
    {
        --running_[static_cast<std::size_t>(tx.sTx)];
        cm::AbortResponse resp;
        resp.backoff = services_.rng->below(600);
        return resp;
    }

    cm::CmCost
    onTxCommit(const cm::TxInfo &tx,
               const std::vector<mem::Addr> &) override
    {
        --running_[static_cast<std::size_t>(tx.sTx)];
        return cm::CmCost{.sched = 4, .kernel = 0};
    }

  private:
    std::vector<int> running_;
    int limit_;
};

} // namespace

int
main(int argc, char **argv)
{
    const std::string benchmark = argc > 1 ? argv[1] : "Intruder";
    runner::RunOptions options;
    options.txPerThread = 60;

    const runner::SimResults baseline =
        runner::runSingleCoreBaseline(benchmark, options);
    const double base = static_cast<double>(baseline.runtime);

    std::printf("%s: plugging a custom manager into the runner\n\n",
                benchmark.c_str());

    for (cm::CmKind kind :
         {cm::CmKind::Backoff, cm::CmKind::BfgtsHw}) {
        const runner::SimResults r =
            runner::runStamp(benchmark, kind, options);
        std::printf("  %-12s speedup %5.2fx  contention %5.1f%%\n",
                    r.cm.c_str(),
                    base / static_cast<double>(r.runtime),
                    100.0 * r.contentionRate);
    }

    // The custom manager slots in through SimConfig::managerFactory.
    for (int limit : {1, 2, 4}) {
        runner::SimConfig config =
            runner::makeConfig(benchmark, cm::CmKind::Backoff,
                               options);
        config.managerFactory =
            [limit](const htm::TxIdSpace &ids,
                    const cm::Services &services) {
                return std::make_unique<GreedyLimitManager>(
                    ids.numStaticTx(), services, limit);
            };
        runner::Simulation simulation(config);
        const runner::SimResults r = simulation.run();
        std::printf("  %-12s speedup %5.2fx  contention %5.1f%%  "
                    "(limit %d/site)\n",
                    r.cm.c_str(),
                    base / static_cast<double>(r.runtime),
                    100.0 * r.contentionRate, limit);
    }
    return 0;
}
