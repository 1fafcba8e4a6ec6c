/**
 * @file
 * Profiler-overhead microbench: an unprofiled run must be free, and
 * a profiled run must not change results.
 *
 * The host-performance profiler hangs off SimConfig as a borrowed
 * pointer; every hook site (event queue, CM paths, predictor, OS
 * scheduler, workload, memory) null-checks it, so outside --profile
 * runs the whole subsystem reduces to one branch per site. This
 * bench prices that guarantee the same way micro_audit_overhead
 * prices the audit hooks: it runs the same simulation with no
 * profiler attached and with a profiler attached under a constant
 * fake clock -- hook sites dispatch into enter()/exit() and the byte
 * gauges but never touch the host clock, which is exactly the
 * structural cost the hooks can impose -- and asserts the dry run
 * stays within a small tolerance of the plain run (default 2%,
 * override with BFGTS_PROF_OVERHEAD_TOL, e.g. =0.10 for noisy CI).
 *
 * It also asserts the stronger observational-purity property: a run
 * profiled with the *real* clock produces bit-identical SimResults
 * to the unprofiled run (writeSweepResults serialization compared).
 *
 * Methodology: bench::pairedOverhead, the median over 21 alternating
 * (off, dry) pairs of the per-pair wall-time ratio.
 */

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "runner/simulation.h"
#include "runner/sweep.h"
#include "sim/profiler.h"

namespace {

/** Constant fake clock: hook dispatch without host-clock reads. */
std::uint64_t
fakeClock()
{
    return 42;
}

std::string
resultsString(const runner::SimConfig &config)
{
    runner::Simulation simulation(config);
    std::ostringstream os;
    runner::writeSweepResults(os, simulation.run());
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("micro: disabled-profiler hook overhead");
    bench::JsonReporter json("micro_prof_overhead", argc, argv);

    runner::RunOptions options;
    // A fixed size, not the quick-mode shrink: a 20-tx run is too
    // short to time reliably.
    options.txPerThread = 60;

    runner::SimConfig off =
        runner::makeConfig("Intruder", cm::CmKind::BfgtsHw, options);

    // Profiler attached but dry: hooks dispatch, no clock syscalls.
    sim::Profiler dry_profiler(&fakeClock);
    runner::SimConfig dry = off;
    dry.profiler = &dry_profiler;

    double tolerance = 0.02;
    if (const char *env = std::getenv("BFGTS_PROF_OVERHEAD_TOL"))
        tolerance = std::atof(env);

    // Observational purity first: real-clock profiling must not
    // change a single results field.
    sim::Profiler real_profiler;
    runner::SimConfig profiled = off;
    profiled.profiler = &real_profiler;
    if (resultsString(off) != resultsString(profiled)) {
        std::printf(
            "FAIL: profiled run changed deterministic results\n");
        return 1;
    }

    const bench::PairedOverhead measured = bench::pairedOverhead(off, dry);
    const double overhead = measured.overhead;
    std::printf("  profiler off     %8.1f ms (median)\n",
                measured.offSeconds * 1e3);
    std::printf("  dry-clock hooks  %8.1f ms (median)\n",
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
        std::printf(
            "FAIL: disabled-profiler overhead above tolerance\n");
        return 1;
    }
    std::printf("OK\n");
    return 0;
}
