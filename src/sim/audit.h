/**
 * @file
 * Model-invariant audit engine ("checked simulation mode").
 *
 * The audit engine is the simulator's machine-checked definition of
 * "still correct": a registry of invariant checks that subsystems run
 * at event boundaries and at end-of-run. It is compiled
 * unconditionally but opt-in at runtime (`--audit` on the CLI or
 * BFGTS_AUDIT=1 in the environment); when disabled every hook site
 * reduces to one branch, so the default simulation path stays within
 * the observer-overhead gate enforced by bench/micro_overhead.cpp.
 *
 * Checks are purely observational: they read simulator state, never
 * mutate it, never draw from an RNG and add no simulated cost, so a
 * run with auditing enabled is byte-identical to the same run with
 * auditing off (the CI audit job asserts exactly that on the sweep
 * benches' reports).
 *
 * A violated invariant produces a structured AuditViolation (check
 * id, tick, cpu/thread/sTx/dTx context, message). In the default
 * Panic mode the engine emits the violation through the trace
 * machinery (TraceCategory::Audit) and aborts the run; in Collect
 * mode (the mutation selftest, tests/test_audit.cpp) violations
 * accumulate in a log the test asserts on.
 *
 * Check-id namespaces, one per audited layer:
 *   event.*      event-queue monotonicity and tie-break order
 *   fsm.*        per-thread transaction lifecycle FSM
 *   cycles.*     cycle-accounting conservation laws
 *   htm.*        conflict-detector registry / isolation / wait graph
 *   bloom.*      signature membership and Eq. 2-4 estimate bounds
 *   cm.*         contention-manager table ranges, CPU-Table liveness
 *   os.*         thread-affinity and ready-queue exclusivity
 */

#ifndef BFGTS_SIM_AUDIT_H
#define BFGTS_SIM_AUDIT_H

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/types.h"

namespace sim {

class TraceSink;

/** One violated invariant, with full simulation context. */
struct AuditViolation {
    /** Stable check identifier, e.g. "htm.isolation". */
    std::string check;
    /** Simulated tick at which the check ran. */
    Tick tick = 0;
    CpuId cpu = kNoCpu;
    ThreadId thread = kNoThread;
    /** Static transaction ID (site), -1 when not applicable. */
    std::int64_t sTx = -1;
    /** Dynamic transaction ID, -1 when not applicable. */
    std::int64_t dTx = -1;
    /** Human-readable description of the violated invariant. */
    std::string message;
};

/**
 * The audit engine: enablement, violation reporting, counters.
 *
 * Subsystem checkers receive an AuditEngine& and call report() (or
 * the convenience check()) for every invariant they find violated;
 * they bump countCheck() once per invariant evaluated so the
 * selftest can prove every checker actually ran.
 */
class AuditEngine
{
  public:
    /** What report() does with a violation. */
    enum class Mode {
        /** Emit through the trace sink, then sim_panic (default). */
        Panic,
        /** Accumulate in violations() (mutation selftest). */
        Collect,
    };

    AuditEngine() = default;

    /** Master switch; hook sites test this (via shouldCheck()). */
    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    /**
     * Dry-run mode: hook sites dispatch into the engine but checker
     * bodies are skipped. Used only by bench/micro_overhead.cpp to
     * price the hook dispatch itself.
     */
    void setDryRun(bool dry_run) { dryRun_ = dry_run; }

    /** True when checker bodies should execute at a hook site. */
    bool shouldCheck() const { return enabled_ && !dryRun_; }

    void setMode(Mode mode) { mode_ = mode; }
    Mode mode() const { return mode_; }

    /**
     * Structured reports also flow through this sink as
     * TraceCategory::Audit records (borrowed, may be null).
     */
    void setTraceSink(TraceSink *sink) { sink_ = sink; }

    /** Count one evaluated invariant (cheap; for the selftest). */
    void countCheck() { ++checksRun_; }

    /** Invariants evaluated so far. */
    std::uint64_t checksRun() const { return checksRun_; }

    /** Violations reported so far (Collect mode only grows >1). */
    std::uint64_t violationCount() const { return violationCount_; }

    /** Collected violations (Collect mode). */
    const std::vector<AuditViolation> &violations() const
    {
        return log_;
    }

    /** Drop collected violations (between selftest cases). */
    void clearViolations()
    {
        log_.clear();
        violationCount_ = 0;
    }

    /** True if a collected violation carries @p check as its id. */
    bool fired(const std::string &check) const;

    /**
     * Report a violated invariant. Panic mode emits the structured
     * record and aborts; Collect mode appends to violations().
     */
    void report(AuditViolation violation);

    /**
     * Convenience: evaluate one invariant. Counts the check; when
     * @p ok is false, reports a violation built from the arguments.
     * Returns @p ok so callers can chain dependent checks.
     */
    bool
    check(bool ok, const char *check_id, std::string_view message,
          Tick tick = 0, CpuId cpu = kNoCpu,
          ThreadId thread = kNoThread, std::int64_t stx = -1,
          std::int64_t dtx = -1)
    {
        countCheck();
        if (ok)
            return true;
        AuditViolation violation;
        violation.check = check_id;
        violation.tick = tick;
        violation.cpu = cpu;
        violation.thread = thread;
        violation.sTx = stx;
        violation.dTx = dtx;
        violation.message = message;
        report(std::move(violation));
        return false;
    }

    /**
     * As above, with the message built by @p message() only when
     * @p ok is false: checks that run per entry on every sweep must
     * not format a string each time they pass.
     */
    template <typename MessageFn>
        requires std::is_invocable_r_v<std::string, MessageFn &>
    bool
    check(bool ok, const char *check_id, MessageFn &&message,
          Tick tick = 0, CpuId cpu = kNoCpu,
          ThreadId thread = kNoThread, std::int64_t stx = -1,
          std::int64_t dtx = -1)
    {
        if (ok) {
            countCheck();
            return true;
        }
        return check(false, check_id, std::string_view(message()), tick,
                     cpu, thread, stx, dtx);
    }

  private:
    bool enabled_ = false;
    bool dryRun_ = false;
    Mode mode_ = Mode::Panic;
    TraceSink *sink_ = nullptr;
    std::uint64_t checksRun_ = 0;
    std::uint64_t violationCount_ = 0;
    std::vector<AuditViolation> log_;
};

/**
 * True when BFGTS_AUDIT=1 in the environment (read once at startup).
 * This is the sanctioned env shim for audit enablement: reading the
 * environment anywhere else in model code is banned by the
 * wall-clock lint rule (tools/lint/determinism_lint.py).
 */
bool auditEnvEnabled();

} // namespace sim

#endif // BFGTS_SIM_AUDIT_H
