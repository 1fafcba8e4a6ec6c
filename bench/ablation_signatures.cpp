/**
 * @file
 * Ablation of the conflict-detection signatures. Table 2 notes the
 * paper uses a "perfect signature for conflict detection"; real
 * LogTM-SE-style hardware uses Bloom signatures whose false
 * positives manufacture conflicts out of thin air. This bench sweeps
 * the detection signature from 256 bits to exact on three
 * benchmarks, reporting speedup and the false-conflict count, under
 * both Backoff and BFGTS-HW.
 */

#include "bench_util.h"

#include "runner/simulation.h"

namespace {

runner::SimResults
runCell(const std::string &workload, cm::CmKind kind,
        std::uint64_t sig_bits, const runner::RunOptions &options)
{
    runner::SimConfig config =
        runner::makeConfig(workload, kind, options);
    if (sig_bits != 0) {
        config.conflict.detectionMode = htm::DetectionMode::Signature;
        config.conflict.signature.numBits = sig_bits;
    }
    runner::Simulation simulation(config);
    return simulation.run();
}

} // namespace

int
main(int argc, char **argv)
{
    const auto options = bench::defaultOptions();
    const std::vector<std::uint64_t> sizes{256, 512, 1024, 2048, 0};

    bench::banner("Ablation: conflict-detection signature size "
                  "(0 = perfect/exact, as in the paper)");
    bench::JsonReporter reporter("ablation_signatures", argc, argv);

    std::vector<std::string> headers{"Benchmark", "Manager"};
    for (std::uint64_t bits : sizes) {
        headers.push_back(bits == 0 ? std::string("exact")
                                    : std::to_string(bits) + "b");
    }
    sim::TextTable table(headers);

    for (const std::string &name :
         {std::string("Genome"), std::string("Vacation"),
          std::string("Labyrinth")}) {
        const double base = static_cast<double>(
            runner::runSingleCoreBaseline(name, options).runtime);
        for (cm::CmKind kind :
             {cm::CmKind::Backoff, cm::CmKind::BfgtsHw}) {
            std::vector<std::string> row{name, cm::cmKindName(kind)};
            for (std::uint64_t bits : sizes) {
                const runner::SimResults r =
                    runCell(name, kind, bits, options);
                const double speedup =
                    base / static_cast<double>(r.runtime);
                reporter.addRow()
                    .set("benchmark", name)
                    .set("manager", cm::cmKindName(kind))
                    .set("signatureBits", bits)
                    .set("speedup", speedup)
                    .set("runtime", r.runtime)
                    .set("aborts", r.aborts);
                row.push_back(sim::fmtDouble(speedup, 2));
            }
            table.addRow(row);
        }
    }
    table.print(std::cout);
    std::cout << "\nSmaller detection signatures alias more lines "
                 "and manufacture false conflicts;\nthe paper "
                 "sidesteps this by assuming perfect detection "
                 "signatures (Table 2).\n";
    if (!reporter.write())
        return 1;
    return 0;
}
