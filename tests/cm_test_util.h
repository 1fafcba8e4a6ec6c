/**
 * @file
 * Shared fixture pieces for contention-manager unit tests: a minimal
 * simulated machine (event queue, scheduler, RNG, predictor system)
 * and helpers to fabricate TxInfo values.
 */

#ifndef BFGTS_TESTS_CM_TEST_UTIL_H
#define BFGTS_TESTS_CM_TEST_UTIL_H

#include <gtest/gtest.h>

#include "cm/contention_manager.h"
#include "cpu/predictor.h"
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
        : ids(4, 8), scheduler(events, schedConfig()),
          predictors(4, ids), rng(1234)
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
    services(bool with_predictors = false)
    {
        cm::Services s;
        s.scheduler = &scheduler;
        s.rng = &rng;
        if (with_predictors)
            s.predictors = &predictors;
        return s;
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
    cpu::PredictorSystem predictors;
    sim::Rng rng;
};

} // namespace cmtest

#endif // BFGTS_TESTS_CM_TEST_UTIL_H
