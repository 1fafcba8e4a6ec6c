/**
 * @file
 * The paper's premise (Section 1): transactional SPLASH2-like codes
 * have small, infrequent transactions and almost no contention, so
 * reactive managers suffice and scheduler overhead is pure loss.
 * This bench runs the three SPLASH2-like workloads under every
 * paper manager: expect near-identical speedups with Backoff on top.
 */

#include "bench_util.h"

#include "runner/simulation.h"
#include "workloads/splash2.h"

namespace {

/** One run; @p tx_per_thread 0 keeps the workload's own count. */
runner::SimResults
run(const std::string &name, cm::CmKind kind, int cpus, int tpc,
    int tx_per_thread = 0)
{
    runner::SimConfig config;
    config.cm = kind;
    config.numCpus = cpus;
    config.threadsPerCpu = tpc;
    config.txPerThreadOverride = tx_per_thread;
    config.workloadFactory = [name](int threads) {
        return workloads::makeSplash2Workload(name, threads);
    };
    runner::Simulation simulation(config);
    return simulation.run();
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> headers{"Benchmark"};
    for (cm::CmKind kind : cm::allCmKinds())
        headers.emplace_back(cm::cmKindName(kind));
    headers.emplace_back("Backoff cont");
    sim::TextTable table(headers);

    bench::banner("SPLASH2-like low-contention suite "
                  "(speedup over one core)");
    bench::JsonReporter reporter("splash2_lowcontention", argc, argv);

    for (const std::string &name :
         workloads::splash2BenchmarkNames()) {
        // Single-core baseline with the same total work.
        const auto base_tx =
            workloads::makeSplash2Workload(name, 1)->txPerThread() * 64;
        const runner::SimResults baseline =
            run(name, cm::CmKind::Backoff, 1, 1, base_tx);
        const double base = static_cast<double>(baseline.runtime);
        std::vector<std::string> row{name};
        double backoff_cont = 0.0;
        for (cm::CmKind kind : cm::allCmKinds()) {
            const runner::SimResults r = run(name, kind, 16, 4);
            if (kind == cm::CmKind::Backoff)
                backoff_cont = r.contentionRate;
            const double speedup =
                base / static_cast<double>(r.runtime);
            reporter.addRow()
                .set("benchmark", name)
                .set("manager", cm::cmKindName(kind))
                .set("speedup", speedup)
                .set("runtime", r.runtime)
                .set("contentionRate", r.contentionRate);
            row.push_back(sim::fmtDouble(speedup, 2));
        }
        row.push_back(sim::fmtPercent(backoff_cont, 1));
        table.addRow(row);
    }
    table.print(std::cout);
    if (!reporter.write())
        return 1;
    return 0;
}
