/**
 * @file
 * Regenerates Figure 5: the execution-time breakdown (non-
 * transactional / kernel / transactional / abort / scheduling) for
 * PTS, ATS, BFGTS-SW, BFGTS-HW and BFGTS-HW/Backoff on every STAMP
 * benchmark. The paper plots runtime normalized to one processor;
 * here each bar is printed as the share of total machine cycles in
 * each category plus the runtime normalized to the single-core
 * baseline.
 */

#include "bench_util.h"

int
main(int argc, char **argv)
{
    bench::JsonReporter reporter("fig5_breakdown", argc, argv);
    const auto options = bench::defaultOptions();
    const std::vector<cm::CmKind> managers{
        cm::CmKind::Pts, cm::CmKind::Ats, cm::CmKind::BfgtsSw,
        cm::CmKind::BfgtsHw, cm::CmKind::BfgtsHwBackoff};

    bench::banner("Figure 5: execution time breakdown "
                  "(16 CPUs, 64 threads)");

    sim::TextTable table({"Benchmark", "Manager", "NonTx", "Kernel",
                          "Transactional", "Abort", "Scheduling",
                          "Idle", "NormRuntime"});

    for (const std::string &name : workloads::stampBenchmarkNames()) {
        const double base = static_cast<double>(
            runner::runSingleCoreBaseline(name, options).runtime);
        bool first = true;
        for (cm::CmKind kind : managers) {
            const runner::SimResults r =
                runner::runStamp(name, kind, options);
            const runner::Breakdown &b = r.breakdown;
            const double norm =
                static_cast<double>(r.runtime) / base * 16.0;
            reporter.addRow()
                .set("benchmark", name)
                .set("manager", cm::cmKindName(kind))
                .set("nonTxFrac", b.frac(b.nonTx))
                .set("kernelFrac", b.frac(b.kernel))
                .set("txFrac", b.frac(b.tx))
                .set("abortedFrac", b.frac(b.aborted))
                .set("schedFrac", b.frac(b.sched))
                .set("idleFrac", b.frac(b.idle))
                .set("normRuntime", norm);
            table.addRow(
                {first ? name : "", cm::cmKindName(kind),
                 sim::fmtPercent(b.frac(b.nonTx), 1),
                 sim::fmtPercent(b.frac(b.kernel), 1),
                 sim::fmtPercent(b.frac(b.tx), 1),
                 sim::fmtPercent(b.frac(b.aborted), 1),
                 sim::fmtPercent(b.frac(b.sched), 1),
                 sim::fmtPercent(b.frac(b.idle), 1),
                 sim::fmtDouble(norm, 2)});
            first = false;
        }
    }
    table.print(std::cout);
    std::cout << "\nNormRuntime = parallel runtime / single-core "
                 "runtime x 16 (lower is better; 1.0 = perfect "
                 "16-way scaling).\n";
    if (!reporter.write())
        return 1;
    return 0;
}
