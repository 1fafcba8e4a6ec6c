/**
 * @file
 * Fixed vs dynamically-tuned ATS (the paper evaluates Yoo & Lee's
 * self-tuning software version). The hill-climbing threshold should
 * help where the fixed 0.5 is badly placed and be harmless elsewhere.
 */

#include "bench_util.h"

#include "runner/simulation.h"

int
main()
{
    runner::RunOptions options;
    bench::banner("ATS: fixed vs dynamically tuned threshold");

    sim::TextTable table({"Benchmark", "fixed 0.5", "dynamic",
                          "final threshold"});
    for (const std::string &name : workloads::stampBenchmarkNames()) {
        const double base = static_cast<double>(
            runner::runSingleCoreBaseline(name, options).runtime);
        const runner::SimResults fixed =
            runner::runStamp(name, cm::CmKind::Ats, options);

        runner::RunOptions tuned = options;
        tuned.tuning.ats.dynamicThreshold = true;
        tuned.tuning.ats.tuningWindow = 128;
        runner::SimConfig config =
            runner::makeConfig(name, cm::CmKind::Ats, tuned);
        runner::Simulation simulation(config);
        const runner::SimResults dynamic = simulation.run();
        const auto &manager =
            dynamic_cast<const cm::AtsManager &>(simulation.manager());

        table.addRow(
            {name,
             sim::fmtDouble(base / static_cast<double>(fixed.runtime),
                            2),
             sim::fmtDouble(
                 base / static_cast<double>(dynamic.runtime), 2),
             sim::fmtDouble(manager.threshold(), 2)});
    }
    table.print(std::cout);
    return 0;
}
