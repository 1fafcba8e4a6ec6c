/**
 * @file
 * Regenerates Table 1: the observed conflict graph and measured
 * per-site similarity of each STAMP benchmark, collected under the
 * Backoff manager exactly as the paper's motivation section does.
 * Paper target values are printed alongside for comparison.
 */

#include <sstream>

#include "bench_util.h"

int
main(int argc, char **argv)
{
    bench::JsonReporter reporter("table1_similarity", argc, argv);
    runner::RunOptions options;
    bench::banner("Table 1: conflict graph and per-site similarity "
                  "(measured | paper)");

    sim::TextTable table({"Benchmark", "Tx", "Conflicts (measured)",
                          "Conflicts (paper)", "Sim (measured)",
                          "Sim (paper)"});

    for (const std::string &name : workloads::stampBenchmarkNames()) {
        const runner::SimResults results =
            runner::runStamp(name, cm::CmKind::Backoff, options);
        const workloads::StampTargets targets =
            workloads::stampTargets(name);

        const int sites =
            static_cast<int>(results.similarityPerSite.size());
        for (int site = 0; site < sites; ++site) {
            std::ostringstream measured;
            std::ostringstream paper;
            for (int other = 0; other < sites; ++other) {
                const auto edge = std::make_pair(
                    std::min(site, other), std::max(site, other));
                if (results.conflictGraph.count(edge))
                    measured << other << ' ';
                if (targets.conflictEdges.count(edge))
                    paper << other << ' ';
            }
            reporter.addRow()
                .set("benchmark", name)
                .set("sTx", static_cast<double>(site))
                .set("conflictsMeasured", measured.str())
                .set("conflictsPaper", paper.str())
                .set("similarityMeasured",
                     results.similarityPerSite
                         [static_cast<std::size_t>(site)])
                .set("similarityPaper",
                     targets.similarity
                         [static_cast<std::size_t>(site)]);
            table.addRow(
                {site == 0 ? name : "", std::to_string(site),
                 measured.str(), paper.str(),
                 sim::fmtDouble(results.similarityPerSite
                                    [static_cast<std::size_t>(site)],
                                2),
                 sim::fmtDouble(targets.similarity
                                    [static_cast<std::size_t>(site)],
                                2)});
        }
    }
    table.print(std::cout);
    if (!reporter.write())
        return 1;
    return 0;
}
