/**
 * @file
 * Audit-overhead microbench: disabled checking must be free.
 *
 * The audit engine is compiled unconditionally; every hook site in
 * the runner and the subsystems is guarded so that outside --audit
 * runs it reduces to one branch. This bench prices that guarantee: it
 * runs the same simulation with auditing off (no engine attached)
 * and with an engine attached in dry-run mode -- hook sites dispatch
 * into the engine but every checker body is skipped, which is
 * exactly the residual cost the hooks can ever impose on an
 * unaudited run -- and asserts the dry run stays within a small
 * tolerance of the plain run (default 2%, override with
 * BFGTS_AUDIT_OVERHEAD_TOL, e.g. =0.05 for noisy CI machines).
 *
 * Methodology: bench::pairedOverhead, the median over 21 alternating
 * (off, dry) pairs of the per-pair wall-time ratio.
 */

#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "runner/simulation.h"
#include "sim/audit.h"

int
main(int argc, char **argv)
{
    bench::banner("micro: disabled-audit hook overhead");
    bench::JsonReporter json("micro_audit_overhead", argc, argv);

    runner::RunOptions options;
    // A fixed size, not the quick-mode shrink: a 20-tx run is too
    // short to time reliably.
    options.txPerThread = 60;

    runner::SimConfig off =
        runner::makeConfig("Intruder", cm::CmKind::BfgtsHw, options);
    off.audit = false;

    // Engine attached but dry: hook dispatch only, no checker bodies.
    sim::AuditEngine dry_engine;
    dry_engine.setDryRun(true);
    runner::SimConfig dry = off;
    dry.audit = true;
    dry.auditEngine = &dry_engine;

    double tolerance = 0.02;
    if (const char *env = std::getenv("BFGTS_AUDIT_OVERHEAD_TOL"))
        tolerance = std::atof(env);

    const bench::PairedOverhead measured = bench::pairedOverhead(off, dry);
    const double overhead = measured.overhead;
    std::printf("  audit off        %8.1f ms (median)\n",
                measured.offSeconds * 1e3);
    std::printf("  dry-run hooks    %8.1f ms (median)\n",
                measured.onSeconds * 1e3);
    std::printf("  overhead         %+7.2f%%  (median of %d pairs, "
                "tolerance %.0f%%)\n",
                100.0 * overhead, bench::kOverheadPairs,
                100.0 * tolerance);

    json.addRow()
        .set("offSeconds", measured.offSeconds)
        .set("drySeconds", measured.onSeconds)
        .set("overhead", overhead)
        .set("tolerance", tolerance);
    if (!json.write())
        return 1;

    if (overhead > tolerance) {
        std::printf("FAIL: disabled-audit overhead above tolerance\n");
        return 1;
    }
    std::printf("OK\n");
    return 0;
}
