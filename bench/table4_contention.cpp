/**
 * @file
 * Regenerates Table 4: contention rates (aborted / total transaction
 * attempts) for every benchmark under every contention manager on
 * the 16-processor system. The paper's Backoff column is printed for
 * reference (the calibration target of the synthetic workloads).
 *
 * The (benchmark, manager) matrix runs through runner::SweepRunner
 * (--jobs/--progress/--json, BFGTS_SWEEP_CACHE; see bench_util.h).
 */

#include "bench_util.h"

int
main(int argc, char **argv)
{
    runner::RunOptions options;
    const auto managers = cm::allCmKinds();
    const auto benchmarks = workloads::stampBenchmarkNames();
    bench::JsonReporter reporter("table4_contention", argc, argv);

    std::vector<runner::SweepCell> cells;
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
    for (cm::CmKind kind : managers)
        headers.emplace_back(cm::cmKindName(kind));
    headers.emplace_back("paper Backoff");
    sim::TextTable table(headers);

    bench::banner("Table 4: contention rates (16 CPUs, 64 threads)");

    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        std::vector<std::string> row{benchmarks[b]};
        auto &json_row =
            reporter.addRow().set("benchmark", benchmarks[b]);
        for (std::size_t m = 0; m < managers.size(); ++m) {
            const runner::SimResults &r = bench::sweepCellOrDie(
                results, b * managers.size() + m);
            row.push_back(sim::fmtPercent(r.contentionRate, 1));
            json_row.set(cm::cmKindName(managers[m]),
                         r.contentionRate);
        }
        row.push_back(sim::fmtPercent(
            workloads::stampTargets(benchmarks[b]).backoffContention,
            1));
        table.addRow(row);
    }
    table.print(std::cout);
    return reporter.write() ? 0 : 1;
}
