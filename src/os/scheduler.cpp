#include "scheduler.h"

#include <string>

#include "sim/audit.h"
#include "sim/logging.h"

namespace os {

OsScheduler::OsScheduler(sim::EventQueue &events,
                         const SchedulerConfig &config)
    : events_(events), config_(config),
      cpus_(static_cast<std::size_t>(config.numCpus))
{
    sim_assert(config.numCpus >= 1);
    dispatchKind_ = events_.addKind([this](std::uint32_t cpu) {
        dispatch(static_cast<sim::CpuId>(cpu));
    });
    // Its own kind, so nothing that cancels a worker's continuation
    // can ever cancel a context switch.
    runKind_ = events_.addKind([this](std::uint32_t tid) {
        dispatchFn_(static_cast<sim::ThreadId>(tid));
    });
}

sim::ThreadId
OsScheduler::addThread(sim::CpuId cpu)
{
    sim_assert(cpu >= 0 && cpu < config_.numCpus);
    ThreadContext tc;
    tc.id = static_cast<sim::ThreadId>(threads_.size());
    tc.cpu = cpu;
    tc.state = ThreadState::Ready;
    threads_.push_back(tc);
    cpus_[cpu].readyQueue.push_back(tc.id);
    return tc.id;
}

void
OsScheduler::start()
{
    sim_assert(dispatchFn_);
    for (int cpu = 0; cpu < config_.numCpus; ++cpu)
        scheduleDispatch(cpu, 0);
}

ThreadContext &
OsScheduler::mutableThread(sim::ThreadId tid)
{
    sim_assert(tid >= 0
               && tid < static_cast<sim::ThreadId>(threads_.size()));
    return threads_[static_cast<std::size_t>(tid)];
}

const ThreadContext &
OsScheduler::thread(sim::ThreadId tid) const
{
    sim_assert(tid >= 0
               && tid < static_cast<sim::ThreadId>(threads_.size()));
    return threads_[static_cast<std::size_t>(tid)];
}

sim::ThreadId
OsScheduler::runningOn(sim::CpuId cpu) const
{
    sim_assert(cpu >= 0 && cpu < config_.numCpus);
    return cpus_[cpu].running;
}

bool
OsScheduler::allFinished() const
{
    return finished_ == static_cast<int>(threads_.size());
}

sim::Cycles
OsScheduler::idleCycles(sim::CpuId cpu) const
{
    sim_assert(cpu >= 0 && cpu < config_.numCpus);
    return cpus_[cpu].idleCycles;
}

void
OsScheduler::yieldCurrent(sim::ThreadId tid)
{
    ThreadContext &tc = mutableThread(tid);
    sim_assert(tc.state == ThreadState::Running);
    CpuState &cpu = cpus_[tc.cpu];
    sim_assert(cpu.running == tid);

    tc.state = ThreadState::Ready;
    tc.kernelCycles += config_.yieldCost;
    ++tc.yields;
    cpu.readyQueue.push_back(tid);
    cpu.running = sim::kNoThread;
    scheduleDispatch(tc.cpu, config_.yieldCost);
}

void
OsScheduler::preemptCurrent(sim::ThreadId tid)
{
    ThreadContext &tc = mutableThread(tid);
    sim_assert(tc.state == ThreadState::Running);
    CpuState &cpu = cpus_[tc.cpu];
    sim_assert(cpu.running == tid);

    tc.state = ThreadState::Ready;
    tc.kernelCycles += config_.yieldCost;
    ++tc.preemptions;
    cpu.readyQueue.push_back(tid);
    cpu.running = sim::kNoThread;
    scheduleDispatch(tc.cpu, config_.yieldCost);
}

void
OsScheduler::blockCurrent(sim::ThreadId tid)
{
    ThreadContext &tc = mutableThread(tid);
    sim_assert(tc.state == ThreadState::Running);
    CpuState &cpu = cpus_[tc.cpu];
    sim_assert(cpu.running == tid);

    tc.kernelCycles += config_.blockCost;
    ++tc.blocks;
    cpu.running = sim::kNoThread;
    if (tc.wakePending) {
        // The wake raced ahead of the sleep; stay runnable.
        tc.wakePending = false;
        tc.state = ThreadState::Ready;
        cpu.readyQueue.push_back(tid);
    } else {
        tc.state = ThreadState::Blocked;
    }
    scheduleDispatch(tc.cpu, config_.blockCost);
}

void
OsScheduler::wake(sim::ThreadId tid, sim::ThreadId waker)
{
    ThreadContext &tc = mutableThread(tid);
    if (waker != sim::kNoThread)
        mutableThread(waker).kernelCycles += config_.wakeCost;

    if (tc.state != ThreadState::Blocked) {
        // Signal-before-sleep: remember the wake; blockCurrent()
        // will consume it instead of sleeping.
        sim_assert(tc.state != ThreadState::Finished);
        tc.wakePending = true;
        return;
    }

    tc.state = ThreadState::Ready;
    CpuState &cpu = cpus_[tc.cpu];
    cpu.readyQueue.push_back(tid);
    if (cpu.running == sim::kNoThread)
        scheduleDispatch(tc.cpu, 0);
}

void
OsScheduler::finishCurrent(sim::ThreadId tid)
{
    ThreadContext &tc = mutableThread(tid);
    sim_assert(tc.state == ThreadState::Running);
    CpuState &cpu = cpus_[tc.cpu];
    sim_assert(cpu.running == tid);

    tc.state = ThreadState::Finished;
    ++finished_;
    cpu.running = sim::kNoThread;
    scheduleDispatch(tc.cpu, 0);
}

bool
OsScheduler::shouldPreempt(sim::ThreadId tid) const
{
    const ThreadContext &tc = thread(tid);
    if (tc.state != ThreadState::Running)
        return false;
    const CpuState &cpu = cpus_[tc.cpu];
    if (cpu.readyQueue.empty())
        return false;
    return events_.curTick() - tc.dispatchedAt >= config_.quantum;
}

void
OsScheduler::scheduleDispatch(sim::CpuId cpu_id, sim::Cycles delay)
{
    const auto target = static_cast<std::uint32_t>(cpu_id);
    if (!events_.pending(dispatchKind_, target))
        events_.scheduleIn(delay, dispatchKind_, target);
}

void
OsScheduler::dispatch(sim::CpuId cpu_id)
{
    CpuState &cpu = cpus_[cpu_id];
    sim_assert(cpu.running == sim::kNoThread);

    if (cpu.idleSince != 0) {
        cpu.idleCycles += events_.curTick() - cpu.idleSince;
        cpu.idleSince = 0;
    }

    if (cpu.readyQueue.empty()) {
        // Nothing to run; go idle until a wake() re-arms us. Use
        // max(curTick, 1) so idleSince==0 keeps meaning "not idle".
        cpu.idleSince = events_.curTick() ? events_.curTick() : 1;
        return;
    }

    sim::ThreadId tid = cpu.readyQueue.front();
    cpu.readyQueue.pop_front();
    ThreadContext &tc = mutableThread(tid);
    sim_assert(tc.state == ThreadState::Ready);

    sim::Cycles ctx_cost = 0;
    if (cpu.lastRun != tid && cpu.lastRun != sim::kNoThread) {
        ctx_cost = config_.contextSwitchCost;
        tc.kernelCycles += ctx_cost;
    }
    cpu.lastRun = tid;
    cpu.running = tid;
    tc.state = ThreadState::Running;
    tc.dispatchedAt = events_.curTick() + ctx_cost;

    if (ctx_cost == 0) {
        dispatchFn_(tid);
    } else {
        events_.scheduleIn(ctx_cost, runKind_,
                           static_cast<std::uint32_t>(tid));
    }
}

void
OsScheduler::auditCheck(sim::AuditEngine &audit, sim::Tick tick) const
{
    // How many places each thread occupies across run slots and
    // ready queues; a schedulable entity exists at most once.
    std::vector<int> placements(threads_.size(), 0);

    for (std::size_t c = 0; c < cpus_.size(); ++c) {
        const auto cpu_id = static_cast<sim::CpuId>(c);
        const CpuState &cpu = cpus_[c];
        if (cpu.running != sim::kNoThread) {
            const ThreadContext &tc = thread(cpu.running);
            ++placements[static_cast<std::size_t>(cpu.running)];
            audit.check(tc.state == ThreadState::Running,
                        "os.readyqueue",
                        "running thread is not in state Running", tick,
                        cpu_id, cpu.running);
            audit.check(tc.cpu == cpu_id, "os.affinity",
                        "thread runs on a CPU that is not its home",
                        tick, cpu_id, cpu.running);
        }
        for (sim::ThreadId tid : cpu.readyQueue) {
            const ThreadContext &tc = thread(tid);
            ++placements[static_cast<std::size_t>(tid)];
            audit.check(tc.state == ThreadState::Ready,
                        "os.readyqueue",
                        "queued thread is not in state Ready", tick,
                        cpu_id, tid);
            audit.check(tc.cpu == cpu_id, "os.affinity",
                        "thread queued on a foreign CPU's ready queue",
                        tick, cpu_id, tid);
            audit.check(tid != cpu.running, "os.affinity",
                        "running thread also sits in a ready queue",
                        tick, cpu_id, tid);
        }
    }

    for (const ThreadContext &tc : threads_) {
        audit.check(placements[static_cast<std::size_t>(tc.id)] <= 1,
                    "os.affinity",
                    "thread occupies more than one scheduler slot",
                    tick, tc.cpu, tc.id);
        if (tc.state == ThreadState::Blocked
            || tc.state == ThreadState::Finished) {
            audit.check(
                placements[static_cast<std::size_t>(tc.id)] == 0,
                "os.readyqueue",
                "blocked/finished thread is queued or running", tick,
                tc.cpu, tc.id);
        }
    }
}

} // namespace os
