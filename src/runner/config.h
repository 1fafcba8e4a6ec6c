/**
 * @file
 * Full simulation configuration (paper Table 2 defaults).
 *
 * A SimConfig is a pure value: two simulations built from equal
 * configs (including the seed) produce identical results.
 */

#ifndef BFGTS_RUNNER_CONFIG_H
#define BFGTS_RUNNER_CONFIG_H

#include <cstdint>
#include <functional>
#include <ostream>
#include <memory>
#include <string>

#include "cm/factory.h"
#include "cpu/predictor.h"
#include "htm/tx_id.h"
#include "htm/conflict_detector.h"
#include "htm/version_log.h"
#include "mem/mem_system.h"
#include "os/scheduler.h"
#include "sim/audit.h"
#include "sim/trace.h"
#include "workloads/workload.h"

namespace sim {
class Profiler;
class QualityRecorder;
class Sampler;
}

namespace runner {

/** Builds the workload for a run (given the thread count). */
using WorkloadFactory =
    std::function<std::unique_ptr<workloads::Workload>(int num_threads)>;

/** Builds a custom contention manager (overrides `cm` when set). */
using ManagerFactory =
    std::function<std::unique_ptr<cm::ContentionManager>(
        const htm::TxIdSpace &ids, const cm::Services &services)>;

/** Everything needed to run one simulation. */
struct SimConfig {
    /** Largest numCpus validate() accepts. The sharer directory alone
     *  holds 2048·N slots of 1 + ceil(N/64) words for N CPUs, about
     *  256·N² bytes: 272 MiB at this cap, where a whole run peaks near
     *  310 MB. */
    static constexpr int kMaxCpus = 1024;

    /** Largest thread count validate() accepts. A run holds about
     *  1.7 KB per thread (2^18 Genome threads peak at 439 MB), and a
     *  dTxID, (sTxID << bitsFor(threads)) | tid in an int, keeps 13
     *  bits for the sTxID. */
    static constexpr int kMaxThreads = 1 << 18;

    /** STAMP benchmark name; ignored if workloadFactory is set. */
    std::string workload = "Intruder";

    /** Optional custom workload (examples/ uses this). */
    WorkloadFactory workloadFactory;

    /** Contention manager under test. */
    cm::CmKind cm = cm::CmKind::BfgtsHw;

    /** Optional user-defined manager (examples/custom_manager.cpp);
     *  when set, `cm` is ignored. */
    ManagerFactory managerFactory;

    /** Table 2: 16 one-IPC cores. */
    int numCpus = 16;

    /** Section 5.1: overcommitted, 4 threads per processor. */
    int threadsPerCpu = 4;

    /** Master seed; everything derives from it. */
    std::uint64_t seed = 1;

    /** Override the workload's transactions-per-thread (0 = keep). */
    int txPerThreadOverride = 0;

    /** Memory hierarchy (numCpus is synchronized at build time). */
    mem::MemSystemConfig mem;

    /** OS model. */
    os::SchedulerConfig sched;

    /** LogTM-style conflict resolution. */
    htm::ConflictPolicy conflict;

    /** Hardware scheduling accelerator (BFGTS-HW variants). */
    cpu::PredictorConfig predictor;

    /** Per-manager tunables. */
    cm::CmTuning tuning;

    // ---- runner cost model -------------------------------------------
    /** Cycles to commit a transaction (log seal + broadcast). */
    sim::Cycles commitLatency = 20;
    /** LogTM undo-log cost model (append / commit / abort walk). */
    htm::VersionLogConfig versionLog;
    /** Cycles between NACKed-access retries (in-tx stall). */
    sim::Cycles nackRetryInterval = 30;
    /** Cycles between begin-stall polls (TX_QUERY_PREDICTOR spin). */
    sim::Cycles beginStallPollInterval = 50;
    /** Give up a begin-stall after this many cycles (safety valve). */
    sim::Cycles beginStallTimeout = 2'000'000;
    /** Preemption-check granularity for non-transactional work. */
    sim::Cycles nonTxChunk = 20'000;

    /**
     * When set, every transaction-lifecycle event (begin decision,
     * start, conflict, abort, commit, rollback) is emitted here as a
     * structured sim::TraceRecord; the sink filters by category and
     * renders text or JSONL (docs/observability.md). For debugging
     * and tests; adds no simulated cost.
     */
    sim::TraceSink *traceSink = nullptr;

    /**
     * When set, run() drives this interval sampler on the simulation
     * event queue: it snapshots windowed counters and gauges every
     * sampler interval and emits the bfgts-ts-v1 time-series
     * (docs/observability.md). Observational only; adds no simulated
     * cost. The caller owns the sampler and reads its windows and
     * summary after run().
     */
    sim::Sampler *sampler = nullptr;

    /**
     * Host-performance profiler (docs/observability.md). When set,
     * run() brackets the event loop with host-clock stamps, the
     * instrumented subsystems charge their wall time to self-time
     * phases, and memory high-water gauges are sampled at the end of
     * the run. Observational only: wall-clock data never feeds model
     * state, so a profiled run produces byte-identical deterministic
     * reports; the measurements leave through the separate
     * nondeterministic `bfgts-prof-v1` document. The caller owns the
     * profiler and reads/serializes it after run().
     */
    sim::Profiler *profiler = nullptr;

    /**
     * Decision-quality recorder (docs/observability.md). When set,
     * the CM and runner report every Eq. 2-4 estimate alongside the
     * exact RW-set ground truth, and every classified stall/go
     * outcome with its predicted confidence and cycle attribution;
     * the recorder aggregates them into the `bfgts-qual-v1` report.
     * Observational only: quality data never feeds model state, so
     * a recorded run produces byte-identical deterministic results,
     * and the report itself is deterministic (byte-identical across
     * BFGTS_HASH_SEED values and sweep --jobs counts). The caller
     * owns the recorder and serializes it after run().
     */
    sim::QualityRecorder *quality = nullptr;

    /**
     * Checked simulation mode (docs/static-analysis.md): run every
     * invariant auditor at transaction boundaries and end of run.
     * Checks are purely observational -- an audited run produces
     * byte-identical results and output to an unaudited one (or
     * panics with a structured violation report). Defaults to the
     * BFGTS_AUDIT environment switch so whole test and bench suites
     * can be audited without code changes; `--audit` and this field
     * layer on top.
     */
    bool audit = sim::auditEnvEnabled();

    /**
     * Optional externally owned audit engine. When set (and `audit`
     * is true) the simulation reports through it instead of an
     * internal Panic-mode engine, letting tests collect violations
     * and inspect which checks fired.
     */
    sim::AuditEngine *auditEngine = nullptr;

    /** Total software threads. */
    int
    numThreads() const
    {
        return numCpus * threadsPerCpu;
    }

    /**
     * Check the fields a user sets from the command line or a sweep.
     * Front ends call this before building a Simulation, whose
     * constructor would otherwise abort on them.
     *
     * @return An empty string when the config can run, else a message
     *         naming the first bad field.
     */
    std::string validate() const;
};

} // namespace runner

#endif // BFGTS_RUNNER_CONFIG_H
