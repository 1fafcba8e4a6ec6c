/**
 * @file
 * Regenerates Section 5.3.2: the small-transaction similarity
 * accounting interval swept over {1, 10, 20} commits for BFGTS-HW.
 * The paper reports average improvement over PTS of 20% / 23% / 25%
 * respectively -- longer intervals save overhead on small
 * transactions with little accuracy loss.
 *
 * All cells (baselines, the interval grid, the PTS reference) run
 * through runner::SweepRunner (--jobs/--progress/--json,
 * BFGTS_SWEEP_CACHE; see bench_util.h).
 */

#include "bench_util.h"

int
main(int argc, char **argv)
{
    runner::RunOptions options;
    const std::vector<int> intervals{1, 10, 20};
    const auto benchmarks = workloads::stampBenchmarkNames();
    bench::JsonReporter reporter("interval_sweep", argc, argv);

    // Job matrix: baselines, then per benchmark the interval cells
    // followed by the PTS reference cell.
    std::vector<runner::SweepCell> cells;
    for (const std::string &name : benchmarks) {
        runner::SweepCell cell;
        cell.workload = name;
        cell.options = options;
        cell.baseline = true;
        cells.push_back(cell);
    }
    const std::size_t grid_offset = cells.size();
    const std::size_t per_benchmark = intervals.size() + 1;
    for (const std::string &name : benchmarks) {
        for (int interval : intervals) {
            runner::SweepCell cell;
            cell.workload = name;
            cell.cm = cm::CmKind::BfgtsHw;
            cell.options = options;
            cell.options.smallTxInterval = interval;
            cells.push_back(cell);
        }
        runner::SweepCell pts;
        pts.workload = name;
        pts.cm = cm::CmKind::Pts;
        pts.options = options;
        cells.push_back(pts);
    }

    runner::SweepRunner sweep(bench::sweepOptionsFromArgs(argc, argv));
    const auto results = sweep.run(cells);

    bench::banner("Section 5.3.2: small-transaction similarity "
                  "update interval (BFGTS-HW)");

    std::vector<std::string> headers{"Benchmark"};
    for (int interval : intervals)
        headers.push_back("every " + std::to_string(interval));
    headers.emplace_back("PTS");
    sim::TextTable table(headers);

    // speedups[interval index][benchmark index]
    std::vector<std::vector<double>> speedups(intervals.size());
    std::vector<double> pts_speedups;

    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        const double base = static_cast<double>(
            bench::sweepCellOrDie(results, b).runtime);
        const std::size_t row_offset =
            grid_offset + b * per_benchmark;
        std::vector<std::string> row{benchmarks[b]};
        auto &json_row =
            reporter.addRow().set("benchmark", benchmarks[b]);
        for (std::size_t i = 0; i < intervals.size(); ++i) {
            const runner::SimResults &r =
                bench::sweepCellOrDie(results, row_offset + i);
            const double speedup =
                base / static_cast<double>(r.runtime);
            speedups[i].push_back(speedup);
            row.push_back(sim::fmtDouble(speedup, 2));
            json_row.set("every" + std::to_string(intervals[i]),
                         speedup);
        }
        const runner::SimResults &pts = bench::sweepCellOrDie(
            results, row_offset + intervals.size());
        pts_speedups.push_back(base
                               / static_cast<double>(pts.runtime));
        row.push_back(sim::fmtDouble(pts_speedups.back(), 2));
        json_row.set("PTS", pts_speedups.back());
        table.addRow(row);
    }

    std::vector<std::string> avg_row{"AVG vs PTS"};
    for (std::size_t i = 0; i < intervals.size(); ++i) {
        std::vector<double> pcts;
        for (std::size_t b = 0; b < benchmarks.size(); ++b) {
            pcts.push_back(
                (speedups[i][b] / pts_speedups[b] - 1.0) * 100.0);
        }
        avg_row.push_back(sim::fmtDouble(bench::mean(pcts), 1) + "%");
    }
    avg_row.emplace_back("0.0%");
    table.addRow(avg_row);
    table.print(std::cout);
    return reporter.write() ? 0 : 1;
}
