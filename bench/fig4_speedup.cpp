/**
 * @file
 * Regenerates Figure 4: (a) speedup over one core for each contention
 * manager on each STAMP benchmark (16 CPUs, 64 threads), and
 * (b) percent improvement over PTS.
 *
 * Runs the whole (benchmark x manager) matrix plus the single-core
 * baselines through runner::SweepRunner: `--jobs N` parallelizes the
 * cells, `--progress` streams per-cell lines, BFGTS_SWEEP_CACHE
 * reuses cells across runs, and `--json` emits the usual bench rows.
 */

#include "bench_util.h"

int
main(int argc, char **argv)
{
    runner::RunOptions options;
    const auto benchmarks = workloads::stampBenchmarkNames();
    const auto managers = cm::allCmKinds();
    bench::JsonReporter reporter("fig4_speedup", argc, argv);

    // Job matrix: one baseline cell per benchmark, then the full
    // (benchmark, manager) grid. Aggregation below is by job index,
    // so results are identical for any worker count.
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
    const auto cellAt = [&](std::size_t b, std::size_t m) -> const
        runner::SimResults & {
            return bench::sweepCellOrDie(
                results, benchmarks.size() + b * managers.size() + m);
        };

    // Column headers: benchmark + one column per manager.
    std::vector<std::string> headers{"Benchmark"};
    for (cm::CmKind kind : managers)
        headers.emplace_back(cm::cmKindName(kind));
    sim::TextTable speedup_table(headers);
    sim::TextTable improvement_table(headers);

    // speedups[manager][benchmark]
    std::vector<std::vector<double>> speedups(
        managers.size(), std::vector<double>(benchmarks.size(), 0.0));

    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        const double base = static_cast<double>(
            bench::sweepCellOrDie(results, b).runtime);
        std::vector<std::string> row{benchmarks[b]};
        auto &json_row =
            reporter.addRow().set("benchmark", benchmarks[b]);
        for (std::size_t m = 0; m < managers.size(); ++m) {
            speedups[m][b] =
                base / static_cast<double>(cellAt(b, m).runtime);
            row.push_back(sim::fmtDouble(speedups[m][b], 2));
            json_row.set(cm::cmKindName(managers[m]), speedups[m][b]);
        }
        speedup_table.addRow(row);
    }

    // Average row.
    {
        std::vector<std::string> row{"AVG"};
        auto &json_row = reporter.addRow().set("benchmark", "AVG");
        for (std::size_t m = 0; m < managers.size(); ++m) {
            const double avg = bench::mean(speedups[m]);
            row.push_back(sim::fmtDouble(avg, 2));
            json_row.set(cm::cmKindName(managers[m]), avg);
        }
        speedup_table.addRow(row);
    }

    bench::banner("Figure 4(a): speedup over one core "
                  "(16 CPUs, 64 threads)");
    speedup_table.print(std::cout);

    // Figure 4(b): percent improvement over PTS.
    const std::size_t pts_index = 1; // allCmKinds() order
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        std::vector<std::string> row{benchmarks[b]};
        for (std::size_t m = 0; m < managers.size(); ++m) {
            const double pct = (speedups[m][b] / speedups[pts_index][b]
                                - 1.0)
                             * 100.0;
            row.push_back(sim::fmtDouble(pct, 1));
        }
        improvement_table.addRow(row);
    }
    {
        std::vector<std::string> row{"AVG"};
        for (std::size_t m = 0; m < managers.size(); ++m) {
            std::vector<double> pcts;
            for (std::size_t b = 0; b < benchmarks.size(); ++b) {
                pcts.push_back((speedups[m][b]
                                / speedups[pts_index][b]
                                - 1.0)
                               * 100.0);
            }
            row.push_back(sim::fmtDouble(bench::mean(pcts), 1));
        }
        improvement_table.addRow(row);
    }

    bench::banner("Figure 4(b): percent improvement over PTS");
    improvement_table.print(std::cout);
    return reporter.write() ? 0 : 1;
}
