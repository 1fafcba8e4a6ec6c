/**
 * @file
 * Shared fixture pieces for contention-manager unit tests: a minimal
 * simulated machine (event queue, scheduler, CPU Table, RNG,
 * predictor system), helpers to fabricate TxInfo values, and
 * start/abort/commit helpers that write the CPU Table the way the
 * runner does before they call the manager's hook.
 */

#ifndef BFGTS_TESTS_CM_TEST_UTIL_H
#define BFGTS_TESTS_CM_TEST_UTIL_H

#include <gtest/gtest.h>

#include <vector>

#include "cm/contention_manager.h"
#include "cpu/predictor.h"
#include "htm/cpu_table.h"
#include "htm/tx_id.h"
#include "os/scheduler.h"
#include "sim/event_queue.h"
#include "sim/random.h"

namespace cmtest {

/** A machine stub with 4 CPUs, 8 threads, 4 static transactions. */
class Machine
{
  public:
    Machine()
        : ids(4, 8), scheduler(events, schedConfig()), table(4),
          predictors(table, ids), rng(1234)
    {
        // 2 threads per CPU; dispatch parks the thread (tests drive
        // the CM hooks directly, not a full simulation).
        scheduler.setDispatchFn([](sim::ThreadId) {});
        for (int t = 0; t < 8; ++t)
            scheduler.addThread(t % 4);
        scheduler.start();
        events.run();
    }

    static os::SchedulerConfig
    schedConfig()
    {
        os::SchedulerConfig config;
        config.numCpus = 4;
        return config;
    }

    cm::Services
    services()
    {
        cm::Services s;
        s.cpuTable = &table;
        s.scheduler = &scheduler;
        s.rng = &rng;
        s.predictors = &predictors;
        return s;
    }

    /** @p tx starts running: CPU Table first, then the hook. */
    void
    start(cm::ContentionManager &manager, const cm::TxInfo &tx)
    {
        table.start(tx.cpu, tx.dTx);
        manager.onTxStart(tx);
    }

    /** The running @p tx aborts after a conflict with @p enemy. */
    cm::AbortResponse
    abort(cm::ContentionManager &manager, const cm::TxInfo &tx,
          const cm::TxInfo &enemy)
    {
        table.end(tx.cpu, tx.dTx);
        return manager.onTxAbort(tx, enemy);
    }

    /** The running @p tx commits @p rw_lines. */
    cm::CmCost
    commit(cm::ContentionManager &manager, const cm::TxInfo &tx,
           const std::vector<mem::Addr> &rw_lines = {})
    {
        table.end(tx.cpu, tx.dTx);
        return manager.onTxCommit(tx, rw_lines);
    }

    /** TxInfo for (thread, site); cpu = thread % 4. */
    cm::TxInfo
    tx(sim::ThreadId thread, htm::STxId stx) const
    {
        cm::TxInfo info;
        info.thread = thread;
        info.cpu = thread % 4;
        info.sTx = stx;
        info.dTx = ids.make(thread, stx);
        return info;
    }

    sim::EventQueue events;
    htm::TxIdSpace ids;
    os::OsScheduler scheduler;
    htm::CpuTable table;
    cpu::PredictorSystem predictors;
    sim::Rng rng;
};

} // namespace cmtest

#endif // BFGTS_TESTS_CM_TEST_UTIL_H
