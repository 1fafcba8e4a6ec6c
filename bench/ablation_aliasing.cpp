/**
 * @file
 * The paper's future-work feature: aliasing the prediction
 * structures. BFGTS-HW runs with the confidence table capped at
 * 1..N slots (sTxIDs alias via modulo); the sweep shows how much
 * prediction quality the compression costs per benchmark. With one
 * slot, every site shares one confidence value -- BFGTS degenerates
 * toward ATS-style global throttling.
 */

#include "bench_util.h"

int
main(int argc, char **argv)
{
    runner::RunOptions options;
    const std::vector<int> slot_counts{1, 2, 3, 0}; // 0 = exact

    bench::banner("Ablation: confidence-table aliasing (BFGTS-HW "
                  "speedup by slot count)");
    bench::JsonReporter reporter("ablation_aliasing", argc, argv);

    std::vector<std::string> headers{"Benchmark"};
    for (int slots : slot_counts) {
        headers.push_back(slots == 0 ? std::string("exact")
                                     : std::to_string(slots)
                                           + " slot(s)");
    }
    headers.emplace_back("sites");
    sim::TextTable table(headers);

    for (const std::string &name : workloads::stampBenchmarkNames()) {
        const double base = static_cast<double>(
            runner::runSingleCoreBaseline(name, options).runtime);
        std::vector<std::string> row{name};
        for (int slots : slot_counts) {
            runner::RunOptions swept = options;
            swept.tuning.bfgts.confTableSlots = slots;
            const runner::SimResults r =
                runner::runStamp(name, cm::CmKind::BfgtsHw, swept);
            const double speedup =
                base / static_cast<double>(r.runtime);
            reporter.addRow()
                .set("benchmark", name)
                .set("slots", static_cast<std::uint64_t>(slots))
                .set("speedup", speedup)
                .set("runtime", r.runtime)
                .set("aborts", r.aborts);
            row.push_back(sim::fmtDouble(speedup, 2));
        }
        row.push_back(std::to_string(
            workloads::makeStampWorkload(name, 1)->numStaticTx()));
        table.addRow(row);
    }
    table.print(std::cout);
    if (!reporter.write())
        return 1;
    return 0;
}
