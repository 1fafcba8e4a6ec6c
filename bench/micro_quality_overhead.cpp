/**
 * @file
 * Quality-recorder overhead microbench: a run without --quality must
 * be free, and a recorded run must not change results.
 *
 * The decision-quality recorder hangs off SimConfig as a borrowed
 * pointer; every hook site (BFGTS commit-time estimation, begin
 * classification in the runner, abort attribution) null-checks it,
 * so outside --quality runs the whole subsystem reduces to one
 * branch per site. This bench prices that guarantee the same way
 * micro_prof_overhead prices the profiler hooks: it runs the same
 * simulation with no recorder and with a recorder attached -- the
 * attached run does the real work (exact-set copies, two-pointer
 * intersections, ledger updates), but those fire per transaction
 * event, not per cycle, so even the enabled cost must stay within a
 * small tolerance of the plain run (default 5%, override with
 * BFGTS_QUALITY_OVERHEAD_TOL, e.g. =0.15 for noisy CI).
 *
 * It also asserts the observational-purity property: a recorded run
 * produces bit-identical SimResults to the unrecorded run
 * (writeSweepResults serialization compared), and byte-identical
 * quality reports across two runs (the report itself is
 * deterministic, unlike the profiler's).
 *
 * Methodology: bench::pairedOverhead, the median over 21 alternating
 * (off, recorded) pairs of the per-pair wall-time ratio; each
 * recorded run gets a fresh recorder, so runs don't accumulate into
 * each other's ledgers.
 */

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "runner/simulation.h"
#include "runner/sweep.h"
#include "sim/quality.h"

namespace {

std::string
resultsString(const runner::SimConfig &config)
{
    runner::Simulation simulation(config);
    std::ostringstream os;
    runner::writeSweepResults(os, simulation.run());
    return os.str();
}

std::string
qualityReport(const runner::SimConfig &config)
{
    sim::QualityRecorder recorder;
    runner::SimConfig recorded = config;
    recorded.quality = &recorder;
    runner::Simulation simulation(recorded);
    simulation.run();
    std::ostringstream os;
    sim::writeQualReport(os, "micro_quality_overhead",
                         recorder.data());
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("micro: quality-recorder hook overhead");
    bench::JsonReporter json("micro_quality_overhead", argc, argv);

    runner::RunOptions options;
    // A fixed size, not the quick-mode shrink: a 20-tx run is too
    // short to time reliably.
    options.txPerThread = 60;

    runner::SimConfig off =
        runner::makeConfig("Intruder", cm::CmKind::BfgtsHw, options);

    // Marker config: the setup hook swaps in a fresh recorder per run.
    sim::QualityRecorder marker;
    runner::SimConfig recorded = off;
    recorded.quality = &marker;
    std::optional<sim::QualityRecorder> fresh;
    const auto fresh_recorder = [&fresh](runner::SimConfig &config) {
        if (config.quality != nullptr)
            config.quality = &fresh.emplace();
    };

    double tolerance = 0.05;
    if (const char *env = std::getenv("BFGTS_QUALITY_OVERHEAD_TOL"))
        tolerance = std::atof(env);

    // Observational purity first: recording must not change a single
    // results field, and the quality report must be deterministic.
    {
        sim::QualityRecorder purity_recorder;
        runner::SimConfig purity = off;
        purity.quality = &purity_recorder;
        if (resultsString(off) != resultsString(purity)) {
            std::printf(
                "FAIL: recorded run changed deterministic results\n");
            return 1;
        }
    }
    if (qualityReport(off) != qualityReport(off)) {
        std::printf(
            "FAIL: quality report differs across equal runs\n");
        return 1;
    }

    const bench::PairedOverhead measured =
        bench::pairedOverhead(off, recorded, fresh_recorder);
    const double overhead = measured.overhead;
    std::printf("  quality off      %8.1f ms (median)\n",
                measured.offSeconds * 1e3);
    std::printf("  recorder on      %8.1f ms (median)\n",
                measured.onSeconds * 1e3);
    std::printf("  overhead         %+7.2f%%  (median of %d pairs, "
                "tolerance %.0f%%)\n",
                100.0 * overhead, bench::kOverheadPairs,
                100.0 * tolerance);

    json.addRow()
        .set("offSeconds", measured.offSeconds)
        .set("onSeconds", measured.onSeconds)
        .set("overhead", overhead)
        .set("tolerance", tolerance);
    if (!json.write())
        return 1;

    if (overhead > tolerance) {
        std::printf(
            "FAIL: quality-recorder overhead above tolerance\n");
        return 1;
    }
    std::printf("OK\n");
    return 0;
}
