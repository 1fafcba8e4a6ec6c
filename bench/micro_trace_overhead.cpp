/**
 * @file
 * Tracing-overhead microbench: a fully-filtered sink must be free.
 *
 * Every emission site in the runner is guarded by wants(), so a sink
 * whose category mask is empty should cost one mask test per event
 * and nothing else -- no detail-string construction, no record
 * building. This bench runs the same simulation with tracing
 * disabled (no sink) and with a sink that filters every category,
 * and asserts the filtered run is within a small tolerance of the
 * disabled run (default 2%, override with BFGTS_TRACE_OVERHEAD_TOL,
 * e.g. =0.05 for noisy CI machines).
 *
 * Methodology: bench::pairedOverhead, the median over 21 alternating
 * (off, filtered) pairs of the per-pair wall-time ratio.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "runner/simulation.h"
#include "sim/trace.h"

namespace {

/** A sink that counts records it renders (should stay at zero). */
class CountingSink : public sim::TraceSink
{
  public:
    std::uint64_t rendered = 0;

  protected:
    void write(const sim::TraceRecord &) override { ++rendered; }
};

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("micro: fully-filtered trace sink overhead");
    bench::JsonReporter json("micro_trace_overhead", argc, argv);

    runner::RunOptions options;
    // A fixed size, not the quick-mode shrink: a 20-tx run is too
    // short to time reliably.
    options.txPerThread = 60;

    runner::SimConfig base =
        runner::makeConfig("Intruder", cm::CmKind::BfgtsHw, options);

    CountingSink filtered_sink;
    filtered_sink.enableOnly({});
    runner::SimConfig filtered = base;
    filtered.traceSink = &filtered_sink;

    double tolerance = 0.02;
    if (const char *env = std::getenv("BFGTS_TRACE_OVERHEAD_TOL"))
        tolerance = std::atof(env);

    const bench::PairedOverhead measured =
        bench::pairedOverhead(base, filtered);
    const double overhead = measured.overhead;
    std::printf("  tracing off      %8.1f ms (median)\n",
                measured.offSeconds * 1e3);
    std::printf("  filtered sink    %8.1f ms (median)\n",
                measured.onSeconds * 1e3);
    std::printf("  overhead         %+7.2f%%  (median of %d pairs, "
                "tolerance %.0f%%)\n",
                100.0 * overhead, bench::kOverheadPairs,
                100.0 * tolerance);
    std::printf("  records rendered %llu (expect 0)\n",
                static_cast<unsigned long long>(
                    filtered_sink.rendered));

    json.addRow()
        .set("offSeconds", measured.offSeconds)
        .set("filteredSeconds", measured.onSeconds)
        .set("overhead", overhead)
        .set("tolerance", tolerance);
    if (!json.write())
        return 1;

    if (filtered_sink.rendered != 0) {
        std::printf("FAIL: filtered sink rendered records\n");
        return 1;
    }
    if (overhead > tolerance) {
        std::printf("FAIL: filtered-sink overhead above tolerance\n");
        return 1;
    }
    std::printf("OK\n");
    return 0;
}
