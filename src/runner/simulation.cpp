#include "simulation.h"

#include <algorithm>

#include "sim/host_clock.h"
#include "sim/json.h"
#include "sim/logging.h"
#include "sim/profiler.h"
#include "sim/quality.h"
#include "sim/sampler.h"
#include "workloads/stamp.h"

namespace runner {

Simulation::Simulation(const SimConfig &config)
    : config_(config), cpuTable_(config.numCpus), rng_(config.seed)
{
    sim_assert(config_.numCpus >= 1);
    sim_assert(config_.threadsPerCpu >= 1);
    const int num_threads = config_.numThreads();

    if (config_.workloadFactory) {
        workload_ = config_.workloadFactory(num_threads);
    } else {
        workload_ = workloads::makeStampWorkload(config_.workload,
                                                 num_threads);
    }
    sim_assert(workload_ != nullptr);

    ids_ = std::make_unique<htm::TxIdSpace>(workload_->numStaticTx(),
                                            num_threads);

    mem::MemSystemConfig mem_config = config_.mem;
    mem_config.numCpus = config_.numCpus;
    mem_ = std::make_unique<mem::MemSystem>(mem_config);

    detector_ =
        std::make_unique<htm::ConflictDetector>(config_.conflict);

    os::SchedulerConfig sched_config = config_.sched;
    sched_config.numCpus = config_.numCpus;
    sched_ = std::make_unique<os::OsScheduler>(events_, sched_config);

    predictors_ = std::make_unique<cpu::PredictorSystem>(
        cpuTable_, *ids_, config_.predictor);

    if (config_.audit) {
        if (config_.auditEngine != nullptr) {
            audit_ = config_.auditEngine;
        } else {
            ownedAudit_ = std::make_unique<sim::AuditEngine>();
            ownedAudit_->setTraceSink(config_.traceSink);
            audit_ = ownedAudit_.get();
        }
        audit_->setEnabled(true);
        events_.setAudit(audit_);
        lifecycle_ =
            std::make_unique<LifecycleAuditor>(*audit_, num_threads);
    }

    events_.setProfiler(config_.profiler);

    cm::Services services;
    services.cpuTable = &cpuTable_;
    services.scheduler = sched_.get();
    services.rng = &rng_;
    services.predictors = predictors_.get();
    services.events = &events_;
    services.audit = audit_;
    services.profiler = config_.profiler;
    services.quality = config_.quality;
    if (config_.managerFactory) {
        cm_ = config_.managerFactory(*ids_, services);
    } else {
        cm_ = cm::makeManager(config_.cm, *ids_, services,
                              config_.tuning);
    }
    sim_assert(cm_ != nullptr);

    workers_.resize(static_cast<std::size_t>(num_threads));
    for (int t = 0; t < num_threads; ++t) {
        const sim::CpuId cpu = t % config_.numCpus;
        const sim::ThreadId tid = sched_->addThread(cpu);
        sim_assert(tid == t);
        Worker &worker = workers_[static_cast<std::size_t>(t)];
        worker.tid = tid;
        worker.undoLog = htm::VersionLog(config_.versionLog);
        worker.rng = sim::Rng(
            sim::mix64(config_.seed
                       ^ (0x6a09e667f3bcc909ULL
                          * static_cast<std::uint64_t>(t + 1))));
    }

    simTrack_.resize(static_cast<std::size_t>(ids_->numDynamicTx()));
    siteSim_.resize(
        static_cast<std::size_t>(workload_->numStaticTx()));
    sitePrediction_.resize(
        static_cast<std::size_t>(workload_->numStaticTx()));

    sched_->setDispatchFn([this](sim::ThreadId tid) {
        step(workers_[static_cast<std::size_t>(tid)]);
    });
    continueKind_ = events_.addKind(
        [this](std::uint32_t tid) { step(workers_[tid]); });
    // Begin-stall polls all share one delay, so they ride the event
    // queue's FIFO lane (pollBeginStall).
    pollKind_ = events_.addKind(
        [this](std::uint32_t tid) { pollBeginStall(workers_[tid]); });
    events_.setLane(config_.beginStallPollInterval);
}

Simulation::~Simulation() = default;

void
Simulation::trace(const Worker &worker, sim::TraceCategory category,
                  const char *event,
                  std::vector<std::pair<std::string, std::string>>
                      details)
{
    if (config_.traceSink == nullptr
        || !config_.traceSink->wants(category)) {
        return;
    }
    sim::TraceRecord record;
    record.tick = events_.curTick();
    record.cpu = worker.tx.cpu;
    record.thread = worker.tid;
    record.sTx = ids_->staticOf(worker.tx.dTxId);
    record.dTx = static_cast<std::int64_t>(worker.tx.dTxId);
    record.category = category;
    record.event = event;
    record.details = std::move(details);
    config_.traceSink->emit(record);
}

cm::TxInfo
Simulation::infoFor(const Worker &worker) const
{
    return infoFor(worker.tx);
}

cm::TxInfo
Simulation::infoFor(const htm::TxState &tx) const
{
    cm::TxInfo info;
    info.thread = tx.thread;
    info.cpu = tx.cpu;
    info.dTx = tx.dTxId;
    info.sTx = ids_->staticOf(tx.dTxId);
    return info;
}

bool
Simulation::isTxRunning(htm::DTxId dtx) const
{
    // A dTxID names one thread's site, and a thread runs at most one
    // attempt at a time, so its owner's TxState is the only place
    // the transaction can be running.
    const htm::TxState &tx =
        workers_[static_cast<std::size_t>(ids_->threadOf(dtx))].tx;
    return tx.active && tx.dTxId == dtx;
}

void
Simulation::advance(Worker &worker, const Charges &charges)
{
    worker.buckets.nonTx += charges.nonTx;
    worker.buckets.kernel += charges.kernel;
    worker.buckets.sched += charges.sched;
    worker.buckets.aborted += charges.abort;
    worker.attemptCycles += charges.attempt;
    events_.scheduleIn(charges.nonTx + charges.kernel + charges.sched
                           + charges.abort + charges.attempt,
                       continueKind_,
                       static_cast<std::uint32_t>(worker.tid));
}

void
Simulation::step(Worker &worker)
{
    sim_assert(!events_.pending(continueKind_,
                                static_cast<std::uint32_t>(worker.tid)));
    sim_assert(sched_->runningOn(sched_->thread(worker.tid).cpu)
               == worker.tid);
    bool cont = true;
    while (cont) {
        switch (worker.phase) {
          case Phase::StartDescriptor:
            cont = doStartDescriptor(worker);
            break;
          case Phase::NonTxWork:
            cont = doNonTxWork(worker);
            break;
          case Phase::TxBegin:
            cont = doTxBegin(worker);
            break;
          case Phase::BeginStall:
            cont = doBeginStall(worker);
            break;
          case Phase::YieldNow: {
            worker.phase = Phase::TxBegin;
            sim::ScopedPhase prof_phase(config_.profiler,
                                        sim::Profiler::kOsSched);
            sched_->yieldCurrent(worker.tid);
            cont = false;
            break;
          }
          case Phase::BlockNow: {
            worker.phase = Phase::TxBegin;
            sim::ScopedPhase prof_phase(config_.profiler,
                                        sim::Profiler::kOsSched);
            sched_->blockCurrent(worker.tid);
            cont = false;
            break;
          }
          case Phase::TxAccess:
            cont = doTxAccess(worker);
            break;
          case Phase::Commit:
            cont = doCommit(worker);
            break;
          case Phase::CommitDone:
            cont = doCommitDone(worker);
            break;
        }
    }
}

bool
Simulation::doStartDescriptor(Worker &worker)
{
    const int tx_total = config_.txPerThreadOverride > 0
                             ? config_.txPerThreadOverride
                             : workload_->txPerThread();
    if (worker.done >= tx_total) {
        lastFinish_ = std::max(lastFinish_, events_.curTick());
        ++finishedThreads_;
        if (auditing()) {
            auditLifecycle(worker,
                           LifecycleAuditor::TxEvent::ThreadFinish);
        }
        sim::ScopedPhase prof_phase(config_.profiler,
                                    sim::Profiler::kOsSched);
        sched_->finishCurrent(worker.tid);
        return false;
    }
    if (sched_->shouldPreempt(worker.tid)) {
        sim::ScopedPhase prof_phase(config_.profiler,
                                    sim::Profiler::kOsSched);
        sched_->preemptCurrent(worker.tid);
        return false;
    }
    {
        sim::ScopedPhase prof_phase(config_.profiler,
                                    sim::Profiler::kWorkload);
        worker.desc = workload_->next(worker.tid, worker.rng);
    }
    worker.tx.dTxId = ids_->make(worker.tid, worker.desc.sTx);
    worker.tx.thread = worker.tid;
    worker.tx.cpu = sched_->thread(worker.tid).cpu;
    // Age is assigned once per transactional section and survives
    // aborts, so a long-suffering transaction eventually wins.
    worker.tx.timestamp = nextTimestamp_++;
    worker.nonTxRemaining = worker.desc.nonTxWork;
    worker.descriptorAborts = 0;
    worker.phase = Phase::NonTxWork;
    return true;
}

bool
Simulation::doNonTxWork(Worker &worker)
{
    if (worker.nonTxRemaining == 0) {
        worker.phase = Phase::TxBegin;
        return true;
    }
    if (sched_->shouldPreempt(worker.tid)) {
        sim::ScopedPhase prof_phase(config_.profiler,
                                    sim::Profiler::kOsSched);
        sched_->preemptCurrent(worker.tid);
        return false;
    }
    const sim::Cycles chunk =
        std::min(worker.nonTxRemaining, config_.nonTxChunk);
    worker.nonTxRemaining -= chunk;
    advance(worker, {.nonTx = chunk});
    return false;
}

bool
Simulation::doTxBegin(Worker &worker)
{
    const cm::TxInfo info = infoFor(worker);
    cm::BeginDecision decision;
    {
        sim::ScopedPhase prof_phase(config_.profiler,
                                    sim::Profiler::kCmDecide);
        decision = cm_->onTxBegin(info);
    }
    const Charges cost_charges{.kernel = decision.cost.kernel,
                               .sched = decision.cost.sched};

    switch (decision.action) {
      case cm::BeginAction::Proceed: {
        // The attempt that is about to run inherits whatever enemy
        // the most recent begin decision serialized behind (kNoTx if
        // the CM let it straight through); the commit/abort paths
        // classify the prediction against it.
        worker.attemptSerializedOn = worker.lastSerializedOn;
        worker.lastSerializedOn = htm::kNoTx;
        // A serialized attempt is classified against the stall
        // decision's confidence; a straight-through attempt against
        // the confidence this go decision was based on.
        worker.attemptConfidence =
            worker.attemptSerializedOn != htm::kNoTx
                ? worker.lastConfidence
                : decision.confidence;
        worker.lastConfidence = -1.0;
        trace(worker, sim::TraceCategory::Tx, "start");
        worker.tx.active = true;
        worker.stallRetries = 0;
        worker.reportedEnemies.clear();
        cpuTable_.start(info.cpu, info.dTx);
        {
            sim::ScopedPhase prof_phase(config_.profiler,
                                        sim::Profiler::kCmDecide);
            cm_->onTxStart(info);
        }
        if (auditing()) {
            auditLifecycle(worker, LifecycleAuditor::TxEvent::Begin);
            auditSweep();
        }
        worker.phase = Phase::TxAccess;
        if (decision.cost.sched + decision.cost.kernel == 0)
            return true;
        advance(worker, cost_charges);
        return false;
      }
      case cm::BeginAction::StallOn: {
        sitePrediction_[static_cast<std::size_t>(info.sTx)]
            .predictedStalls.inc();
        worker.lastSerializedOn = decision.waitOn;
        worker.lastConfidence = decision.confidence;
        if (wantsTrace(sim::TraceCategory::Predictor)) {
            trace(worker, sim::TraceCategory::Predictor, "predict",
                  {{"on", std::to_string(decision.waitOn)}});
        }
        if (wantsTrace(sim::TraceCategory::Sched)) {
            trace(worker, sim::TraceCategory::Sched, "suspend-stall",
                  {{"on", std::to_string(decision.waitOn)}});
        }
        worker.stallOn = decision.waitOn;
        worker.stallStart = events_.curTick();
        worker.phase = Phase::BeginStall;
        advance(worker, cost_charges);
        return false;
      }
      case cm::BeginAction::YieldOn: {
        sitePrediction_[static_cast<std::size_t>(info.sTx)]
            .predictedStalls.inc();
        worker.lastSerializedOn = decision.waitOn;
        worker.lastConfidence = decision.confidence;
        if (wantsTrace(sim::TraceCategory::Predictor)) {
            trace(worker, sim::TraceCategory::Predictor, "predict",
                  {{"on", std::to_string(decision.waitOn)}});
        }
        if (wantsTrace(sim::TraceCategory::Sched)) {
            trace(worker, sim::TraceCategory::Sched, "suspend-yield",
                  {{"on", std::to_string(decision.waitOn)}});
        }
        worker.phase = Phase::YieldNow;
        if (decision.cost.sched + decision.cost.kernel == 0)
            return true;
        advance(worker, cost_charges);
        return false;
      }
      case cm::BeginAction::Block: {
        trace(worker, sim::TraceCategory::Sched, "block");
        worker.phase = Phase::BlockNow;
        if (decision.cost.sched + decision.cost.kernel == 0)
            return true;
        advance(worker, cost_charges);
        return false;
      }
    }
    sim_panic("unhandled BeginAction");
}

bool
Simulation::spinBeginStall(Worker &worker)
{
    if (!isTxRunning(worker.stallOn)
        || events_.curTick() - worker.stallStart
               >= config_.beginStallTimeout
        || sched_->shouldPreempt(worker.tid)) {
        return false;
    }
    worker.buckets.sched += config_.beginStallPollInterval;
    events_.scheduleLane(pollKind_,
                         static_cast<std::uint32_t>(worker.tid));
    return true;
}

void
Simulation::pollBeginStall(Worker &worker)
{
    // The lane carries only begin-stall polls, which come before the
    // attempt starts, so no abort can ever need to cancel one.
    sim_assert(!worker.tx.active);
    if (!spinBeginStall(worker))
        step(worker);
}

bool
Simulation::doBeginStall(Worker &worker)
{
    if (spinBeginStall(worker))
        return false;
    if (!isTxRunning(worker.stallOn)) {
        stallCyclesHist_.sample(static_cast<double>(
            events_.curTick() - worker.stallStart));
        worker.attemptStallCycles +=
            events_.curTick() - worker.stallStart;
        if (wantsTrace(sim::TraceCategory::Sched)) {
            trace(worker, sim::TraceCategory::Sched, "stall-end",
                  {{"on", std::to_string(worker.stallOn)},
                   {"cycles",
                    std::to_string(events_.curTick()
                                   - worker.stallStart)}});
        }
        worker.phase = Phase::TxBegin;
        return true;
    }
    if (events_.curTick() - worker.stallStart
        >= config_.beginStallTimeout) {
        stallTimeouts_.inc();
        stallCyclesHist_.sample(static_cast<double>(
            events_.curTick() - worker.stallStart));
        worker.attemptStallCycles +=
            events_.curTick() - worker.stallStart;
        if (wantsTrace(sim::TraceCategory::Sched)) {
            trace(worker, sim::TraceCategory::Sched, "stall-timeout",
                  {{"on", std::to_string(worker.stallOn)}});
        }
        worker.phase = Phase::TxBegin;
        return true;
    }
    // Neither ended the stall, so a preemption is due. The stall
    // window closes with the CPU: timeline spans must not show this
    // thread spinning while another one runs here.
    trace(worker, sim::TraceCategory::Sched, "preempt");
    sim::ScopedPhase prof_phase(config_.profiler,
                                sim::Profiler::kOsSched);
    sched_->preemptCurrent(worker.tid);
    return false;
}

bool
Simulation::doTxAccess(Worker &worker)
{
    const auto index = static_cast<std::size_t>(worker.tx.accessesDone);
    if (index >= worker.desc.accesses.size()) {
        worker.phase = Phase::Commit;
        return true;
    }
    const workloads::TxAccess &access = worker.desc.accesses[index];
    const mem::Addr line = mem::lineNumber(access.addr);

    htm::AccessResult result =
        detector_->access(worker.tx, line, access.write);

    if (result.conflicts.empty()) {
        worker.stallRetries = 0;
        if (auditing()) {
            worker.waitHolders.clear();
            auditLifecycle(worker, LifecycleAuditor::TxEvent::Access);
        }
        sim::Cycles latency;
        {
            sim::ScopedPhase prof_phase(config_.profiler,
                                        sim::Profiler::kMem);
            latency = mem_->access(worker.tx.cpu, access.addr,
                                   access.write, events_.curTick());
        }
        latency += worker.desc.workPerAccess;
        // Eager versioning: first store to a line saves the old
        // value to the undo log.
        if (result.firstWrite)
            latency += worker.undoLog.append();
        ++worker.tx.accessesDone;
        advance(worker, {.attempt = latency});
        return false;
    }

    nackRetryHist_.sample(static_cast<double>(worker.stallRetries));
    // The manager decides each holder in turn and the severest
    // verdict for the requester stands. It also hears of each enemy
    // once per (attempt, enemy) pair -- the granularity of the
    // paper's txConflict() -- not on every NACKed access or stall
    // retry; its cycles fold into the next advance so bucket totals
    // match consumed CPU time.
    const cm::TxInfo self = infoFor(worker);
    cm::ConflictArbitration verdict = cm::ConflictArbitration::AbortHolders;
    Charges notify_charges;
    {
        sim::ScopedPhase prof_phase(config_.profiler,
                                    sim::Profiler::kCmDecide);
        cm::ArbitrationContext context;
        context.requesterAccesses = worker.tx.accessesDone;
        context.stallRetries = worker.stallRetries;
        context.priorAborts = worker.descriptorAborts;
        for (const htm::TxState *holder : result.conflicts) {
            context.holderAccesses = holder->accessesDone;
            context.holderAgeDelta =
                static_cast<std::int64_t>(holder->timestamp)
                - static_cast<std::int64_t>(worker.tx.timestamp);
            verdict = std::max(verdict, cm_->arbitrate(context));
            if (!worker.reportedEnemies.insert(holder->dTxId))
                continue;
            // Both sites are fixed for the attempt, so the conflict
            // graph needs the same one insert per enemy.
            const int a = self.sTx;
            const int b = ids_->staticOf(holder->dTxId);
            conflictGraph_.insert({std::min(a, b), std::max(a, b)});
            if (wantsTrace(sim::TraceCategory::Cm)) {
                std::vector<std::pair<std::string, std::string>>
                    details;
                details.reserve(3);
                details.emplace_back("enemy",
                                     std::to_string(holder->dTxId));
                details.emplace_back("line", std::to_string(line));
                details.emplace_back("write",
                                     access.write ? "1" : "0");
                trace(worker, sim::TraceCategory::Cm, "conflict",
                      std::move(details));
            }
            const cm::CmCost cost =
                cm_->onConflictDetected(self, infoFor(*holder));
            notify_charges.kernel += cost.kernel;
            notify_charges.sched += cost.sched;
        }
    }

    switch (verdict) {
      case cm::ConflictArbitration::StallRequester: {
        ++worker.stallRetries;
        if (auditing()) {
            worker.waitHolders.clear();
            for (const htm::TxState *holder : result.conflicts)
                worker.waitHolders.insert(holder->dTxId);
            auditSweep();
        }
        notify_charges.attempt = config_.nackRetryInterval;
        advance(worker, notify_charges);
        return false;
      }
      case cm::ConflictArbitration::AbortRequester: {
        // Drops notify_charges; charging them moves simulated numbers.
        abortTx(worker, infoFor(*result.conflicts.front()));
        return false;
      }
      case cm::ConflictArbitration::AbortHolders: {
        // A holder that already reached its commit point cannot be
        // aborted; back off and retry instead.
        const bool any_committing = std::any_of(
            result.conflicts.begin(), result.conflicts.end(),
            [this](const htm::TxState *holder) {
                return workers_[static_cast<std::size_t>(
                                    holder->thread)]
                    .committing;
            });
        notify_charges.attempt = config_.nackRetryInterval;
        if (any_committing) {
            ++worker.stallRetries;
            if (auditing()) {
                worker.waitHolders.clear();
                for (const htm::TxState *holder : result.conflicts)
                    worker.waitHolders.insert(holder->dTxId);
            }
            advance(worker, notify_charges);
            return false;
        }
        for (htm::TxState *holder : result.conflicts) {
            abortTx(workers_[static_cast<std::size_t>(holder->thread)],
                    self);
        }
        worker.stallRetries = 0;
        advance(worker, notify_charges);
        return false;
      }
    }
    sim_panic("unhandled ConflictArbitration");
}

void
Simulation::abortTx(Worker &worker, const cm::TxInfo &enemy)
{
    sim_assert(worker.tx.active);
    sim_assert(!worker.committing);

    // A remotely aborted victim has an in-flight continuation;
    // replace it with the abort sequence.
    events_.deschedule(continueKind_,
                       static_cast<std::uint32_t>(worker.tid));

    if (auditing())
        auditLifecycle(worker, LifecycleAuditor::TxEvent::Abort);

    detector_->removeTx(worker.tx);
    worker.tx.active = false;
    worker.waitHolders.clear();

    aborts_.inc();
    abortCyclesHist_.sample(static_cast<double>(worker.attemptCycles));
    {
        // Prediction quality: an abort of an attempt no begin
        // decision serialized is a missed prediction; a serialized
        // attempt that aborted anyway predicted a real conflict but
        // the stall failed to prevent it.
        SitePrediction &site = sitePrediction_[static_cast<std::size_t>(
            ids_->staticOf(worker.tx.dTxId))];
        if (worker.attemptSerializedOn == htm::kNoTx)
            site.falseNegatives.inc();
        else
            site.predictedAborts.inc();
    }
    const bool was_serialized =
        worker.attemptSerializedOn != htm::kNoTx;
    worker.attemptSerializedOn = htm::kNoTx;
    const int victim_stx = ids_->staticOf(worker.tx.dTxId);
    const int winner_stx =
        enemy.dTx != htm::kNoTx ? enemy.sTx : victim_stx;
    if (config_.quality != nullptr) {
        // The aborted attempt's cycles are the wasted work; the
        // enemy is the abort's actual winner, which keeps the ledger
        // totals reconcilable against the conflict-edge wasted
        // cycles in the obs report.
        config_.quality->recordOutcome(
            events_.curTick(), winner_stx, victim_stx,
            worker.attemptConfidence,
            was_serialized
                ? sim::QualityRecorder::Outcome::PredictedAbort
                : sim::QualityRecorder::Outcome::FalseNegative,
            worker.attemptCycles);
    }
    worker.attemptConfidence = -1.0;
    worker.attemptStallCycles = 0;
    if (wantsTrace(sim::TraceCategory::Tx)) {
        std::vector<std::pair<std::string, std::string>> details;
        details.reserve(3);
        details.emplace_back("enemy", std::to_string(enemy.dTx));
        details.emplace_back("enemySTx", std::to_string(winner_stx));
        details.emplace_back("wasted",
                             std::to_string(worker.attemptCycles));
        trace(worker, sim::TraceCategory::Tx, "abort",
              std::move(details));
    }
    {
        ConflictEdgeStats &edge =
            abortEdges_[{winner_stx, victim_stx}];
        ++edge.aborts;
        edge.wastedCycles += worker.attemptCycles;
    }
    ++worker.descriptorAborts;
    worker.buckets.aborted += worker.attemptCycles;
    worker.attemptCycles = 0;

    // Walk the undo log backwards in software (LogTM abort).
    const sim::Cycles rollback = worker.undoLog.abort();
    if (wantsTrace(sim::TraceCategory::Mem)) {
        trace(worker, sim::TraceCategory::Mem, "rollback",
              {{"cycles", std::to_string(rollback)}});
    }

    cpuTable_.end(worker.tx.cpu, worker.tx.dTxId);
    cm::AbortResponse resp;
    {
        sim::ScopedPhase prof_phase(config_.profiler,
                                    sim::Profiler::kCmCommit);
        resp = cm_->onTxAbort(infoFor(worker), enemy);
    }
    if (auditing())
        auditSweep();

    worker.tx.resetAttempt();
    worker.stallRetries = 0;
    worker.phase = Phase::TxBegin;
    advance(worker, {.kernel = resp.cost.kernel,
                     .sched = resp.cost.sched,
                     .abort = rollback + resp.backoff});
}

bool
Simulation::doCommit(Worker &worker)
{
    // Past this point the transaction is irrevocable.
    worker.committing = true;
    worker.phase = Phase::CommitDone;
    advance(worker,
            {.attempt = config_.commitLatency + worker.undoLog.commit()});
    return false;
}

bool
Simulation::doCommitDone(Worker &worker)
{
    // Union of read and write sets: the commit set the CMs receive,
    // as line numbers in ascending order with each line once (the
    // similarity merges below rely on that order). The worker's commit
    // buffer is reused across commits (capacity sticks), so a
    // steady-state commit performs no allocation here.
    std::vector<mem::Addr> &rw_lines = worker.commitLines;
    rw_lines.assign(worker.tx.readSet.begin(), worker.tx.readSet.end());
    rw_lines.insert(rw_lines.end(), worker.tx.writeSet.begin(),
                    worker.tx.writeSet.end());
    std::sort(rw_lines.begin(), rw_lines.end());
    rw_lines.erase(std::unique(rw_lines.begin(), rw_lines.end()),
                   rw_lines.end());

    if (auditing())
        auditLifecycle(worker, LifecycleAuditor::TxEvent::Commit);

    detector_->removeTx(worker.tx);
    worker.tx.active = false;
    worker.committing = false;
    worker.waitHolders.clear();

    cpuTable_.end(worker.tx.cpu, worker.tx.dTxId);
    cm::CmCost cost;
    {
        sim::ScopedPhase prof_phase(config_.profiler,
                                    sim::Profiler::kCmCommit);
        cost = cm_->onTxCommit(infoFor(worker), rw_lines);
    }
    if (auditing())
        auditSweep();

    commits_.inc();
    if (wantsTrace(sim::TraceCategory::Tx)) {
        trace(worker, sim::TraceCategory::Tx, "commit",
              {{"lines", std::to_string(rw_lines.size())}});
    }
    // Classify before recordSimilarity: the enemy's lastSet must
    // still hold the set it most recently committed.
    classifyPrediction(worker, rw_lines);
    worker.attemptSerializedOn = htm::kNoTx;
    worker.attemptConfidence = -1.0;
    worker.attemptStallCycles = 0;
    worker.buckets.tx += worker.attemptCycles;
    worker.attemptCycles = 0;
    recordSimilarity(worker, rw_lines);

    ++worker.done;
    worker.tx.resetAttempt();
    worker.phase = Phase::StartDescriptor;
    if (cost.sched + cost.kernel == 0)
        return true;
    advance(worker, {.kernel = cost.kernel, .sched = cost.sched});
    return false;
}

void
Simulation::auditLifecycle(const Worker &worker,
                           LifecycleAuditor::TxEvent event)
{
    lifecycle_->onEvent(worker.tid, event, events_.curTick(),
                        worker.tx.cpu,
                        static_cast<std::int64_t>(worker.tx.dTxId));
}

void
Simulation::auditSweep()
{
    const sim::Tick tick = events_.curTick();

    // Active transactions, sorted by dTxID so every checker sees
    // them in a fixed order.
    std::vector<htm::DTxId> running;
    for (const Worker &w : workers_) {
        if (w.tx.active)
            running.push_back(w.tx.dTxId);
    }
    std::sort(running.begin(), running.end());
    std::vector<const htm::TxState *> active;
    std::vector<ActiveTx> active_ts;
    active.reserve(running.size());
    active_ts.reserve(running.size());
    for (htm::DTxId dtx : running) {
        const Worker &w =
            workers_[static_cast<std::size_t>(ids_->threadOf(dtx))];
        active.push_back(&w.tx);
        active_ts.push_back(
            {static_cast<std::int64_t>(dtx), w.tx.timestamp});
    }

    detector_->auditCheck(*audit_, active, tick);
    sched_->auditCheck(*audit_, tick);

    // NACK wait-for edges from stalled workers to their recorded
    // holders, restricted to still-active endpoints (a holder that
    // finished just means the stall ends at the next retry).
    std::vector<WaitEdge> edges;
    for (const Worker &w : workers_) {
        if (!w.tx.active || w.waitHolders.empty())
            continue;
        for (htm::DTxId holder : w.waitHolders) {
            if (!isTxRunning(holder))
                continue;
            const Worker &h = workers_[static_cast<std::size_t>(
                ids_->threadOf(holder))];
            edges.push_back({static_cast<std::int64_t>(w.tx.dTxId),
                             w.tx.timestamp,
                             static_cast<std::int64_t>(holder),
                             h.tx.timestamp});
        }
    }
    auditWaitGraph(*audit_, active_ts, edges, tick);

    // The CPU Table the CM scans only names running txs.
    std::vector<std::int64_t> cm_view(
        static_cast<std::size_t>(config_.numCpus), -1);
    for (int cpu = 0; cpu < config_.numCpus; ++cpu) {
        const htm::DTxId dtx = cpuTable_.runningOn(cpu);
        if (dtx != htm::kNoTx)
            cm_view[static_cast<std::size_t>(cpu)] =
                static_cast<std::int64_t>(dtx);
    }
    auditCmCpuTable(*audit_, cm_view,
                    std::vector<std::int64_t>(running.begin(),
                                              running.end()),
                    tick);
    cm_->auditCheck(*audit_, tick);
}

void
Simulation::recordSimilarity(Worker &worker,
                             const std::vector<mem::Addr> &rw_lines)
{
    SimTrack &track = simTrack_[static_cast<std::size_t>(
        ids_->denseIndex(worker.tx.dTxId))];
    const auto size = static_cast<double>(rw_lines.size());
    track.avgSize = track.avgSize == 0.0
                        ? size
                        : 0.5 * (track.avgSize + size);
    if (!track.lastSet.empty() && track.avgSize > 0.0) {
        const std::size_t inter =
            mem::commonLines(rw_lines, track.lastSet);
        const double sim = std::clamp(
            static_cast<double>(inter) / track.avgSize, 0.0, 1.0);
        siteSim_[static_cast<std::size_t>(
                     ids_->staticOf(worker.tx.dTxId))]
            .sample(sim);
    }
    track.lastSet.assign(rw_lines.begin(), rw_lines.end());
}

void
Simulation::classifyPrediction(const Worker &worker,
                               const std::vector<mem::Addr> &rw_lines)
{
    const htm::DTxId enemy = worker.attemptSerializedOn;
    const int victim_stx = ids_->staticOf(worker.tx.dTxId);
    SitePrediction &site =
        sitePrediction_[static_cast<std::size_t>(victim_stx)];
    if (enemy == htm::kNoTx) {
        // Unserialized clean commit: nothing was predicted and
        // nothing needed to be.
        site.trueNegatives.inc();
        if (config_.quality != nullptr) {
            config_.quality->recordOutcome(
                events_.curTick(), /*enemy_stx=*/-1, victim_stx,
                worker.attemptConfidence,
                sim::QualityRecorder::Outcome::TrueNegative,
                /*cycles=*/0);
        }
        return;
    }
    // Exact-set ground truth: if this commit's lines intersect the
    // enemy's last committed set, the serialization dodged a certain
    // conflict (true positive); a disjoint set means the enemy would
    // have committed clean and the stall was wasted (false positive).
    const SimTrack &track = simTrack_[static_cast<std::size_t>(
        ids_->denseIndex(enemy))];
    const bool overlap =
        mem::commonLines(rw_lines, track.lastSet, 1) > 0;
    if (overlap)
        site.truePositives.inc();
    else
        site.falsePositives.inc();
    if (config_.quality != nullptr) {
        // Cost-benefit attribution: a correct stall saved the cycles
        // this attempt would have lost to an abort; a wrong one
        // wasted the cycles spent begin-stalling.
        config_.quality->recordOutcome(
            events_.curTick(), ids_->staticOf(enemy), victim_stx,
            worker.attemptConfidence,
            overlap ? sim::QualityRecorder::Outcome::TruePositive
                    : sim::QualityRecorder::Outcome::FalsePositive,
            overlap ? worker.attemptCycles
                    : worker.attemptStallCycles);
    }
}

PredictionQuality
Simulation::predictionTotals() const
{
    PredictionQuality total;
    for (const SitePrediction &site : sitePrediction_) {
        total.predictedStalls += site.predictedStalls.value();
        total.truePositives += site.truePositives.value();
        total.falsePositives += site.falsePositives.value();
        total.falseNegatives += site.falseNegatives.value();
        total.predictedAborts += site.predictedAborts.value();
        total.trueNegatives += site.trueNegatives.value();
    }
    return total;
}

void
Simulation::visitStatGroups(
    const std::function<void(const sim::StatGroup &)> &visit) const
{
    // Scratch aggregation counters live in each block so they stay
    // alive while the group (which holds pointers) is visited.

    // Memory hierarchy.
    {
        sim::Counter l1_hits, l1_misses;
        for (int cpu = 0; cpu < config_.numCpus; ++cpu) {
            l1_hits.inc(mem_->l1(cpu).hits().value());
            l1_misses.inc(mem_->l1(cpu).misses().value());
        }
        sim::StatGroup group("mem");
        group.addCounter("l1.hits", &l1_hits);
        group.addCounter("l1.misses", &l1_misses);
        group.addCounter("l2.hits", &mem_->l2().hits());
        group.addCounter("l2.misses", &mem_->l2().misses());
        group.addCounter("bus.requests", &mem_->bus().requests());
        group.addCounter("bus.queuedCycles",
                         &mem_->bus().queuedCycles());
        visit(group);
    }
    // HTM substrate.
    {
        sim::Counter log_appends, log_restored;
        sim::Counter log_high_water;
        for (const Worker &worker : workers_) {
            log_appends.inc(worker.undoLog.appends().value());
            log_restored.inc(
                worker.undoLog.restoredEntries().value());
            log_high_water.inc(worker.undoLog.highWaterMark());
        }
        sim::StatGroup group("htm");
        group.addCounter("conflictsDetected",
                         &detector_->conflictsDetected());
        group.addCounter("undoLog.appends", &log_appends);
        group.addCounter("undoLog.restoredEntries", &log_restored);
        group.addCounter("undoLog.highWaterSum", &log_high_water);
        group.addCounter("commits", &commits_);
        group.addCounter("aborts", &aborts_);
        group.addHistogram("nackRetries", &nackRetryHist_);
        visit(group);
    }
    // Predictor hardware (meaningful for the HW variants).
    {
        sim::Counter cache_hits, cache_misses, refetches;
        for (int cpu = 0; cpu < config_.numCpus; ++cpu) {
            cache_hits.inc(
                predictors_->confCache(cpu).hits().value());
            cache_misses.inc(
                predictors_->confCache(cpu).misses().value());
            refetches.inc(predictors_->refetches(cpu));
        }
        sim::StatGroup group("predictor");
        group.addCounter("predictions", &predictors_->predictions());
        group.addCounter("conflictsPredicted",
                         &predictors_->conflictsPredicted());
        group.addCounter("confCache.hits", &cache_hits);
        group.addCounter("confCache.misses", &cache_misses);
        group.addCounter("confCache.refetches", &refetches);
        group.addCounter("snoopInvalidations",
                         &predictors_->snoopInvalidations());
        group.addCounter("cpuTableUpdates",
                         &predictors_->cpuTableUpdates());
        visit(group);
    }
    // Predictor decision quality (runner ground truth).
    {
        const PredictionQuality quality = predictionTotals();
        sim::Counter stalls, tp, fp, fn, predicted_aborts, tn;
        stalls.inc(quality.predictedStalls);
        tp.inc(quality.truePositives);
        fp.inc(quality.falsePositives);
        fn.inc(quality.falseNegatives);
        predicted_aborts.inc(quality.predictedAborts);
        tn.inc(quality.trueNegatives);
        sim::StatGroup group("predictor.quality");
        group.addCounter("predictedStalls", &stalls);
        group.addCounter("truePositives", &tp);
        group.addCounter("falsePositives", &fp);
        group.addCounter("falseNegatives", &fn);
        group.addCounter("predictedAborts", &predicted_aborts);
        group.addCounter("trueNegatives", &tn);
        group.addScalar("precision", quality.precision());
        group.addScalar("recall", quality.recall());
        group.addScalar("f1", quality.f1());
        group.addScalar("accuracy", quality.accuracy());
        visit(group);
    }
    // Contention manager: the outcomes it saw and its serializations,
    // then the manager's own groups (BFGTS: "bfgts").
    {
        sim::StatGroup group("cm");
        group.addCounter("commits", &commits_);
        group.addCounter("aborts", &aborts_);
        group.addCounter("serializations", &cm_->serializations());
        visit(group);
    }
    cm_->visitStatGroups(visit);
    // OS scheduler.
    {
        sim::Counter yields, preemptions, blocks, kernel;
        for (int t = 0; t < config_.numThreads(); ++t) {
            yields.inc(sched_->thread(t).yields);
            preemptions.inc(sched_->thread(t).preemptions);
            blocks.inc(sched_->thread(t).blocks);
            kernel.inc(sched_->thread(t).kernelCycles);
        }
        sim::StatGroup group("os");
        group.addCounter("yields", &yields);
        group.addCounter("preemptions", &preemptions);
        group.addCounter("blocks", &blocks);
        group.addCounter("kernelCycles", &kernel);
        visit(group);
    }
    // Runner-level cycle distributions.
    {
        sim::StatGroup group("runner");
        group.addCounter("conflicts", &detector_->conflictsDetected());
        group.addCounter("stallTimeouts", &stallTimeouts_);
        group.addHistogram("abortCycles", &abortCyclesHist_);
        group.addHistogram("stallCycles", &stallCyclesHist_);
        visit(group);
    }
}

void
Simulation::dumpStats(std::ostream &os) const
{
    visitStatGroups(
        [&os](const sim::StatGroup &group) { group.dump(os); });
}

void
Simulation::dumpStatsJson(sim::JsonWriter &jw) const
{
    jw.beginObject("stats");
    visitStatGroups(
        [&jw](const sim::StatGroup &group) { group.dumpJson(jw); });
    jw.endObject();

    const PredictionQuality total = predictionTotals();
    jw.beginObject("predictor_quality");
    jw.kv("predictedStalls", total.predictedStalls);
    jw.kv("truePositives", total.truePositives);
    jw.kv("falsePositives", total.falsePositives);
    jw.kv("falseNegatives", total.falseNegatives);
    jw.kv("predictedAborts", total.predictedAborts);
    jw.kv("trueNegatives", total.trueNegatives);
    jw.kv("precision", total.precision());
    jw.kv("recall", total.recall());
    jw.kv("f1", total.f1());
    jw.kv("accuracy", total.accuracy());
    jw.beginArray("perSite");
    for (std::size_t s = 0; s < sitePrediction_.size(); ++s) {
        const SitePrediction &site = sitePrediction_[s];
        PredictionQuality per_site;
        per_site.truePositives = site.truePositives.value();
        per_site.falsePositives = site.falsePositives.value();
        per_site.falseNegatives = site.falseNegatives.value();
        per_site.trueNegatives = site.trueNegatives.value();
        jw.beginObject();
        jw.kv("sTx", static_cast<std::uint64_t>(s));
        jw.kv("predictedStalls", site.predictedStalls.value());
        jw.kv("truePositives", site.truePositives.value());
        jw.kv("falsePositives", site.falsePositives.value());
        jw.kv("falseNegatives", site.falseNegatives.value());
        jw.kv("predictedAborts", site.predictedAborts.value());
        jw.kv("trueNegatives", site.trueNegatives.value());
        jw.kv("f1", per_site.f1());
        jw.kv("accuracy", per_site.accuracy());
        jw.endObject();
    }
    jw.endArray();
    jw.endObject();

    jw.beginArray("similarity_per_site");
    for (const sim::Accumulator &acc : siteSim_)
        jw.value(acc.mean());
    jw.endArray();
}

void
Simulation::sampleSnapshot(sim::SampleCounts &counts,
                           sim::SampleGauges &gauges) const
{
    counts.commits = commits_.value();
    counts.aborts = aborts_.value();
    counts.conflicts = detector_->conflictsDetected().value();
    counts.stallTimeouts = stallTimeouts_.value();
    counts.predictedStalls += predictionTotals().predictedStalls;

    for (int cpu = 0; cpu < config_.numCpus; ++cpu) {
        gauges.readyQueueDepth += sched_->readyCount(cpu);
        const sim::ThreadId tid = sched_->runningOn(cpu);
        if (tid == sim::kNoThread)
            continue;
        ++gauges.cpusRunning;
        if (workers_[static_cast<std::size_t>(tid)].phase
            == Phase::BeginStall) {
            ++gauges.cpusStalled;
        }
    }

    cm_->sampleGauges(gauges);

    if (config_.quality != nullptr) {
        gauges.calibrationBrier =
            config_.quality->data().brierScore();
    }
}

SimResults
Simulation::run()
{
    sim_assert(!ran_);
    ran_ = true;

    if (config_.sampler != nullptr) {
        config_.sampler->start(
            events_,
            [this](sim::SampleCounts &counts,
                   sim::SampleGauges &gauges) {
                sampleSnapshot(counts, gauges);
            },
            // Once every thread finished, the sampler must stop
            // rescheduling itself or the queue would never drain;
            // the tail lands in the final partial window below.
            [this] { return !sched_->allFinished(); });
    }

    // Host accounting brackets the whole run loop. The two clock
    // reads per *run* are always on (they feed the process-global
    // wall_ns_per_cycle / events_per_sec totals the bench reports
    // stamp); per-phase attribution only happens under a profiler.
    if (config_.profiler != nullptr)
        config_.profiler->beginRun();
    const std::uint64_t host_start = sim::hostNowNs();

    {
        sim::ScopedPhase prof_phase(config_.profiler,
                                    sim::Profiler::kOsSched);
        sched_->start();
    }
    const std::uint64_t executed = events_.run();

    const std::uint64_t host_end = sim::hostNowNs();

    if (config_.sampler != nullptr)
        config_.sampler->finish(lastFinish_);

    if (!sched_->allFinished()) {
        sim_panic("simulation drained with %d/%d threads unfinished",
                  finishedThreads_, config_.numThreads());
    }

    sim::addHostRunSample(host_end > host_start
                              ? host_end - host_start
                              : 0,
                          executed, lastFinish_);
    if (config_.profiler != nullptr) {
        config_.profiler->endRun(executed, lastFinish_);
        cm_->profileMemory(*config_.profiler);
    }

    SimResults results;
    results.workload = workload_->name();
    results.cm = cm_->name();
    results.runtime = lastFinish_;
    results.commits = commits_.value();
    results.aborts = aborts_.value();
    results.conflicts = detector_->conflictsDetected().value();
    results.stallTimeouts = stallTimeouts_.value();
    const std::uint64_t attempts = results.commits + results.aborts;
    results.contentionRate =
        attempts == 0 ? 0.0
                      : static_cast<double>(results.aborts)
                            / static_cast<double>(attempts);

    for (const Worker &worker : workers_) {
        results.breakdown.nonTx += worker.buckets.nonTx;
        results.breakdown.kernel += worker.buckets.kernel;
        results.breakdown.tx += worker.buckets.tx;
        results.breakdown.aborted += worker.buckets.aborted;
        results.breakdown.sched += worker.buckets.sched;
    }
    for (int t = 0; t < config_.numThreads(); ++t)
        results.breakdown.kernel += sched_->thread(t).kernelCycles;

    const sim::Cycles busy =
        results.breakdown.nonTx + results.breakdown.kernel
        + results.breakdown.tx + results.breakdown.aborted
        + results.breakdown.sched;
    const sim::Cycles capacity =
        static_cast<sim::Cycles>(config_.numCpus) * results.runtime;
    results.breakdown.idle = capacity > busy ? capacity - busy : 0;

    results.serializations = cm_->serializations().value();

    results.prediction = predictionTotals();

    for (const sim::Accumulator &acc : siteSim_)
        results.similarityPerSite.push_back(acc.mean());
    results.conflictGraph = conflictGraph_;
    // Undirected pair counts are the directed edges folded over
    // direction (a site aborting itself is one edge and one pair).
    for (const auto &[edge, stats] : abortEdges_) {
        results.abortPairs[{std::min(edge.first, edge.second),
                            std::max(edge.first, edge.second)}] +=
            stats.aborts;
    }
    results.abortEdges = abortEdges_;
    results.serializationEdges = cm_->serializationEdges();

    if (auditing()) {
        // End-of-run conservation: every begin resolved, the cycle
        // buckets account for the whole machine, and independently
        // maintained totals agree across layers.
        lifecycle_->finalize(lastFinish_);
        audit_->check(lifecycle_->commits() == results.commits
                          && lifecycle_->aborts() == results.aborts,
                      "cycles.results",
                      "lifecycle-auditor totals disagree with the "
                      "runner counters",
                      lastFinish_);
        auditBreakdown(*audit_, results.breakdown, results.runtime,
                       config_.numCpus, lastFinish_);
        auditSweep();
    }
    return results;
}

} // namespace runner
