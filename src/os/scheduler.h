/**
 * @file
 * Event-driven OS thread scheduler model.
 *
 * Models the slice of a Linux-like kernel the paper's evaluation
 * depends on: per-CPU round-robin run queues over statically assigned
 * threads, pthread_yield(), blocking/waking (condition-variable style,
 * used by ATS's central wait queue), quantum preemption, and the
 * kernel-mode cycle cost of each of these operations. ATS's poor
 * showing on high-contention benchmarks is precisely this kernel time
 * (paper Fig. 5), so the costs are first-class here.
 *
 * Contract with the runner:
 *  - The runner registers a dispatch callback; the scheduler invokes
 *    it (via the event queue) whenever a thread starts running.
 *  - The running thread's state machine eventually calls exactly one
 *    of yieldCurrent / blockCurrent / finishCurrent, or simply asks
 *    shouldPreempt() at safe points and yields if told to.
 *  - All scheduler operations account their kernel cost to the
 *    affected thread and delay the next dispatch accordingly.
 */

#ifndef BFGTS_OS_SCHEDULER_H
#define BFGTS_OS_SCHEDULER_H

#include <deque>
#include <functional>
#include <vector>

#include "os/thread.h"
#include "sim/event_queue.h"
#include "sim/types.h"

namespace os {

/** Kernel cost model and scheduling parameters. */
struct SchedulerConfig {
    int numCpus = 16;

    /** Round-robin time slice in cycles (~25 us at 2GHz; short,
     *  CFS-granularity-like, so pthread_yield round-trips on an
     *  overcommitted CPU stay in the tens of microseconds). */
    sim::Cycles quantum = 50'000;

    /** Cycles to switch thread contexts on a CPU. */
    sim::Cycles contextSwitchCost = 700;

    /** Kernel cycles for a pthread_yield() call. */
    sim::Cycles yieldCost = 350;

    /** Kernel cycles to block on a futex/condvar. */
    sim::Cycles blockCost = 1'500;

    /** Kernel cycles to wake a blocked thread (on the waker side). */
    sim::Cycles wakeCost = 1'000;
};

/**
 * Per-CPU round-robin scheduler with explicit kernel costs.
 */
class OsScheduler
{
  public:
    /** Callback invoked when a thread is dispatched onto its CPU. */
    using DispatchFn = std::function<void(sim::ThreadId)>;

    OsScheduler(sim::EventQueue &events, const SchedulerConfig &config);

    /** The queue's handlers of its kinds hold its address. */
    OsScheduler(const OsScheduler &) = delete;
    OsScheduler &operator=(const OsScheduler &) = delete;

    /** Register a thread on its home CPU. Threads get ids 0..N-1. */
    sim::ThreadId addThread(sim::CpuId cpu);

    /** Set the callback that runs a dispatched thread. */
    void setDispatchFn(DispatchFn fn) { dispatchFn_ = std::move(fn); }

    /** Dispatch the first thread on every CPU (simulation start). */
    void start();

    /**
     * Voluntary yield by the running thread (pthread_yield).
     * The thread goes to the tail of its CPU's ready queue; the next
     * thread is dispatched after the kernel cost.
     */
    void yieldCurrent(sim::ThreadId tid);

    /**
     * Block the running thread until wake(). Used by ATS's central
     * wait queue and any CM that sleeps a thread.
     */
    void blockCurrent(sim::ThreadId tid);

    /**
     * Wake a blocked thread; it becomes ready on its home CPU and is
     * dispatched when the CPU next idles or switches.
     *
     * @param tid   Thread to wake.
     * @param waker Thread paying the wake kernel cost (kNoThread if
     *              woken by the simulation harness itself).
     */
    void wake(sim::ThreadId tid, sim::ThreadId waker = sim::kNoThread);

    /** The running thread has finished all its work. */
    void finishCurrent(sim::ThreadId tid);

    /**
     * True if @p tid has exceeded its quantum and another thread is
     * waiting on its CPU. The runner checks this at safe points and
     * must then call preemptCurrent().
     */
    bool shouldPreempt(sim::ThreadId tid) const;

    /** Involuntary round-robin preemption (charged like a yield). */
    void preemptCurrent(sim::ThreadId tid);

    /** Thread bookkeeping (stats, tests). */
    const ThreadContext &thread(sim::ThreadId tid) const;

    /** Number of registered threads. */
    int numThreads() const { return static_cast<int>(threads_.size()); }

    int numCpus() const { return config_.numCpus; }

    /** Currently running thread on @p cpu (kNoThread if idle). */
    sim::ThreadId runningOn(sim::CpuId cpu) const;

    /** Threads waiting in @p cpu's ready queue (excludes running). */
    int
    readyCount(sim::CpuId cpu) const
    {
        return static_cast<int>(
            cpus_[static_cast<std::size_t>(cpu)].readyQueue.size());
    }

    /** True when every registered thread has finished. */
    bool allFinished() const;

    /** Total cycles each CPU spent with no thread to run. */
    sim::Cycles idleCycles(sim::CpuId cpu) const;

    /**
     * Invariant audit (sim/audit.h):
     *  - os.affinity:   the running thread of a CPU is in state
     *    Running with a matching home CPU, threads never appear on a
     *    foreign CPU's queue, and every thread occupies at most one
     *    place in the system (one run slot or one queue position);
     *  - os.readyqueue: queued threads are Ready; Blocked and
     *    Finished threads are neither queued nor running.
     */
    void auditCheck(sim::AuditEngine &audit, sim::Tick tick) const;

    /**
     * Test hook for the audit mutation selftest: push @p tid onto
     * @p cpu's ready queue unconditionally, duplicating or
     * misplacing it so os.affinity / os.readyqueue must fire. Never
     * call outside tests.
     */
    void
    testPushReady(sim::ThreadId tid, sim::CpuId cpu)
    {
        cpus_[static_cast<std::size_t>(cpu)].readyQueue.push_back(tid);
    }

  private:
    struct CpuState {
        std::deque<sim::ThreadId> readyQueue;
        sim::ThreadId running = sim::kNoThread;
        sim::Tick idleSince = 0;
        sim::Cycles idleCycles = 0;
        sim::ThreadId lastRun = sim::kNoThread;
    };

    /** Schedule the next dispatch on @p cpu after @p delay cycles. */
    void scheduleDispatch(sim::CpuId cpu, sim::Cycles delay);

    /** Pop and run the next ready thread on @p cpu (event body). */
    void dispatch(sim::CpuId cpu);

    ThreadContext &mutableThread(sim::ThreadId tid);

    sim::EventQueue &events_;
    /** Event kinds: dispatch() of a CPU id, and the dispatchFn_ call
     *  of a thread id that ends a context switch. */
    sim::EventKind dispatchKind_ = 0;
    sim::EventKind runKind_ = 0;
    SchedulerConfig config_;
    DispatchFn dispatchFn_;
    std::vector<ThreadContext> threads_;
    std::vector<CpuState> cpus_;
    int finished_ = 0;
};

} // namespace os

#endif // BFGTS_OS_SCHEDULER_H
