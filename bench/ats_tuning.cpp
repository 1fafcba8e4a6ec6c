/**
 * @file
 * Fixed vs dynamically-tuned ATS (the paper evaluates Yoo & Lee's
 * self-tuning software version). The hill-climbing threshold should
 * help where the fixed 0.5 is badly placed and be harmless elsewhere.
 */

#include "bench_util.h"

#include "runner/simulation.h"

int
main(int argc, char **argv)
{
    runner::RunOptions options;
    bench::banner("ATS: fixed vs dynamically tuned threshold");
    bench::JsonReporter reporter("ats_tuning", argc, argv);

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

        const double fixed_speedup =
            base / static_cast<double>(fixed.runtime);
        const double dynamic_speedup =
            base / static_cast<double>(dynamic.runtime);
        reporter.addRow()
            .set("benchmark", name)
            .set("fixed", fixed_speedup)
            .set("dynamic", dynamic_speedup)
            .set("finalThreshold", manager.threshold());
        table.addRow({name, sim::fmtDouble(fixed_speedup, 2),
                      sim::fmtDouble(dynamic_speedup, 2),
                      sim::fmtDouble(manager.threshold(), 2)});
    }
    table.print(std::cout);
    if (!reporter.write())
        return 1;
    return 0;
}
