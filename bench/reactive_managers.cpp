/**
 * @file
 * Extra baseline comparison (paper Section 2 context): the classic
 * reactive managers -- Backoff, Timestamp, Polka -- against BFGTS-HW
 * across the STAMP suite. Reactive managers pick victims after
 * conflicts happen; the table shows where heuristic victim selection
 * helps over plain backoff, and where only proactive scheduling does.
 *
 * Baselines and the (benchmark, manager) grid run through
 * runner::SweepRunner (--jobs/--progress/--json, BFGTS_SWEEP_CACHE;
 * see bench_util.h).
 */

#include "bench_util.h"

int
main(int argc, char **argv)
{
    runner::RunOptions options;
    const std::vector<cm::CmKind> managers{
        cm::CmKind::Backoff, cm::CmKind::Timestamp, cm::CmKind::Polka,
        cm::CmKind::BfgtsHw};
    const auto benchmarks = workloads::stampBenchmarkNames();
    bench::JsonReporter reporter("reactive_managers", argc, argv);

    std::vector<runner::SweepCell> cells;
    for (const std::string &name : benchmarks) {
        runner::SweepCell cell;
        cell.workload = name;
        cell.options = options;
        cell.baseline = true;
        cells.push_back(cell);
    }
    for (const std::string &name : benchmarks) {
        for (cm::CmKind kind : managers) {
            runner::SweepCell cell;
            cell.workload = name;
            cell.cm = kind;
            cell.options = options;
            cells.push_back(cell);
        }
    }

    runner::SweepRunner sweep(bench::sweepOptionsFromArgs(argc, argv));
    const auto results = sweep.run(cells);

    std::vector<std::string> headers{"Benchmark"};
    for (cm::CmKind kind : managers) {
        headers.emplace_back(std::string(cm::cmKindName(kind))
                             + " speedup");
        headers.emplace_back(std::string(cm::cmKindName(kind))
                             + " cont");
    }
    sim::TextTable table(headers);

    bench::banner("Reactive contention managers vs BFGTS-HW");
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        const double base = static_cast<double>(
            bench::sweepCellOrDie(results, b).runtime);
        std::vector<std::string> row{benchmarks[b]};
        auto &json_row =
            reporter.addRow().set("benchmark", benchmarks[b]);
        for (std::size_t m = 0; m < managers.size(); ++m) {
            const runner::SimResults &r = bench::sweepCellOrDie(
                results,
                benchmarks.size() + b * managers.size() + m);
            const double speedup =
                base / static_cast<double>(r.runtime);
            row.push_back(sim::fmtDouble(speedup, 2));
            row.push_back(sim::fmtPercent(r.contentionRate, 1));
            const std::string name = cm::cmKindName(managers[m]);
            json_row.set(name + " speedup", speedup);
            json_row.set(name + " cont", r.contentionRate);
        }
        table.addRow(row);
    }
    table.print(std::cout);
    return reporter.write() ? 0 : 1;
}
