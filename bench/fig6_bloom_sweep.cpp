/**
 * @file
 * Regenerates Figure 6: speedup of BFGTS-HW (a) and
 * BFGTS-HW/Backoff (b) with Bloom filter sizes swept from 512 to
 * 8192 bits, on every STAMP benchmark.
 *
 * The whole (variant, benchmark, bits) matrix plus the baselines
 * runs through runner::SweepRunner (--jobs/--progress/--json,
 * BFGTS_SWEEP_CACHE; see bench_util.h).
 */

#include "bench_util.h"

namespace {

const std::vector<std::uint64_t> kSizes{512, 1024, 2048, 4096, 8192};

runner::SweepCell
sweptCell(const std::string &name, cm::CmKind kind,
          const runner::RunOptions &options, std::uint64_t bits)
{
    runner::SweepCell cell;
    cell.workload = name;
    cell.cm = kind;
    cell.options = options;
    cell.options.bloomBits = bits;
    return cell;
}

void
printSweep(const char *title, const char *variant,
           const std::vector<std::string> &benchmarks,
           const std::vector<runner::SweepCellResult> &results,
           std::size_t base_offset, std::size_t cell_offset,
           bench::JsonReporter &reporter)
{
    std::vector<std::string> headers{"Benchmark"};
    for (std::uint64_t bits : kSizes)
        headers.push_back(std::to_string(bits) + "bit");
    sim::TextTable table(headers);

    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        const double base = static_cast<double>(
            bench::sweepCellOrDie(results, base_offset + b).runtime);
        std::vector<std::string> row{benchmarks[b]};
        auto &json_row = reporter.addRow()
                             .set("variant", variant)
                             .set("benchmark", benchmarks[b]);
        for (std::size_t s = 0; s < kSizes.size(); ++s) {
            const runner::SimResults &r = bench::sweepCellOrDie(
                results, cell_offset + b * kSizes.size() + s);
            const double speedup =
                base / static_cast<double>(r.runtime);
            row.push_back(sim::fmtDouble(speedup, 2));
            json_row.set(std::to_string(kSizes[s]) + "bit", speedup);
        }
        table.addRow(row);
    }
    bench::banner(title);
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    runner::RunOptions options;
    const auto benchmarks = workloads::stampBenchmarkNames();
    bench::JsonReporter reporter("fig6_bloom_sweep", argc, argv);

    // Job matrix: baselines, then the HW grid, then HW/Backoff.
    std::vector<runner::SweepCell> cells;
    for (const std::string &name : benchmarks) {
        runner::SweepCell cell;
        cell.workload = name;
        cell.options = options;
        cell.baseline = true;
        cells.push_back(cell);
    }
    const std::size_t hw_offset = cells.size();
    for (const std::string &name : benchmarks) {
        for (std::uint64_t bits : kSizes)
            cells.push_back(
                sweptCell(name, cm::CmKind::BfgtsHw, options, bits));
    }
    const std::size_t hwb_offset = cells.size();
    for (const std::string &name : benchmarks) {
        for (std::uint64_t bits : kSizes) {
            cells.push_back(sweptCell(
                name, cm::CmKind::BfgtsHwBackoff, options, bits));
        }
    }

    runner::SweepRunner sweep(bench::sweepOptionsFromArgs(argc, argv));
    const auto results = sweep.run(cells);

    printSweep("Figure 6(a): BFGTS-HW speedup vs Bloom filter size",
               "BFGTS-HW", benchmarks, results, 0, hw_offset,
               reporter);
    printSweep("Figure 6(b): BFGTS-HW/Backoff speedup vs Bloom "
               "filter size",
               "BFGTS-HW/Backoff", benchmarks, results, 0, hwb_offset,
               reporter);
    return reporter.write() ? 0 : 1;
}
