/**
 * @file
 * Ablation of the paper's core idea: similarity-weighted confidence
 * updates. BFGTS-HW is run (a) as published, with increments scaled
 * by incVal*sim and decay by decayVal*(1-sim), and (b) with the
 * similarity weighting disabled (fixed increments and decay at the
 * neutral similarity of 0.5), which reduces the learning rule to a
 * PTS-style fixed-step scheme over the compressed table.
 *
 * If the similarity metric carries real signal, variant (a) should
 * win on the benchmarks with mixed similarity profiles (Delaunay,
 * Intruder) where it serializes persistent conflicts harder and
 * forgives transient ones faster.
 */

#include "bench_util.h"

namespace {

/** Disable the similarity feedback (fixed steps at sim = 0.5). */
runner::RunOptions
withoutSimilarity(runner::RunOptions options)
{
    options.tuning.bfgts.similarityWeighting = false;
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto options = bench::defaultOptions();

    bench::banner("Ablation: similarity-weighted confidence updates "
                  "(BFGTS-HW)");
    bench::JsonReporter reporter("ablation_similarity", argc, argv);

    sim::TextTable table({"Benchmark", "with similarity",
                          "without similarity", "delta"});

    std::vector<double> with_sim, without_sim;
    for (const std::string &name : workloads::stampBenchmarkNames()) {
        const double base = static_cast<double>(
            runner::runSingleCoreBaseline(name, options).runtime);
        const runner::SimResults on =
            runner::runStamp(name, cm::CmKind::BfgtsHw, options);
        const runner::SimResults off = runner::runStamp(
            name, cm::CmKind::BfgtsHw, withoutSimilarity(options));
        const double speedup_on =
            base / static_cast<double>(on.runtime);
        const double speedup_off =
            base / static_cast<double>(off.runtime);
        with_sim.push_back(speedup_on);
        without_sim.push_back(speedup_off);
        reporter.addRow()
            .set("benchmark", name)
            .set("speedupWith", speedup_on)
            .set("speedupWithout", speedup_off)
            .set("runtimeWith", on.runtime)
            .set("runtimeWithout", off.runtime)
            .set("abortsWith", on.aborts)
            .set("abortsWithout", off.aborts);
        table.addRow({name, sim::fmtDouble(speedup_on, 2),
                      sim::fmtDouble(speedup_off, 2),
                      sim::fmtDouble(
                          (speedup_on / speedup_off - 1.0) * 100.0,
                          1)
                          + "%"});
    }
    table.addRow({"AVG", sim::fmtDouble(bench::mean(with_sim), 2),
                  sim::fmtDouble(bench::mean(without_sim), 2),
                  sim::fmtDouble((bench::mean(with_sim)
                                      / bench::mean(without_sim)
                                  - 1.0)
                                     * 100.0,
                                 1)
                      + "%"});
    table.print(std::cout);
    if (!reporter.write())
        return 1;
    return 0;
}
