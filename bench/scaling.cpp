/**
 * @file
 * Scaling curve of the begin-time schedulers: Intruder and Genome
 * under BFGTS-HW and under PTS at 16, 32, 64 and 128 CPUs (4 threads
 * each, 10 transactions per thread). Each row reports what the
 * simulated machine did (commits, aborts, events, predictions,
 * confidence-cache refetches, begin-stall precision and recall) plus
 * the host cost of that row alone (wall_ns_per_cycle,
 * events_per_sec). PTS serializes at begin without the hardware
 * predictor, so its rows gate the begin-stall path at scale apart
 * from the predictor.
 *
 * The simulated columns are deterministic, so bench_compare.py holds
 * them byte-identical against bench/baselines/BENCH_scaling.json:
 * this is the gate that host-side rewrites of the predictor and
 * stall paths keep every simulated number at scale. The run size is
 * fixed (BFGTS_QUICK does not change it).
 */

#include <sstream>
#include <utility>

#include "bench_util.h"
#include "runner/simulation.h"
#include "sim/json_parse.h"

namespace {

struct PredictorCounts {
    std::uint64_t predictions = 0;
    std::uint64_t refetches = 0;
};

/** The predictor counters of a finished run's dumpStatsJson report. */
PredictorCounts
predictorCounts(const runner::Simulation &simulation)
{
    std::ostringstream out;
    sim::JsonWriter jw(out, 0);
    jw.beginObject();
    simulation.dumpStatsJson(jw);
    jw.endObject();
    sim::JsonValue root;
    std::string error;
    if (!sim::parseJson(out.str(), &root, &error)) {
        std::cerr << "scaling: unparsable stats: " << error << "\n";
        std::exit(1);
    }
    const sim::JsonValue *stats = root.find("stats");
    const sim::JsonValue *group =
        stats != nullptr ? stats->find("predictor") : nullptr;
    const auto counter = [group](const char *key) {
        const sim::JsonValue *value =
            group != nullptr ? group->find(key) : nullptr;
        if (value == nullptr || !value->isNumber()) {
            std::cerr << "scaling: no stats.predictor." << key << "\n";
            std::exit(1);
        }
        return static_cast<std::uint64_t>(std::stoull(value->text));
    };
    return {counter("predictions"), counter("confCache.refetches")};
}

/** Host totals accumulated between @p before and @p after. */
sim::HostRunTotals
hostDelta(const sim::HostRunTotals &before,
          const sim::HostRunTotals &after)
{
    return {after.wallNs - before.wallNs, after.events - before.events,
            after.ticks - before.ticks, after.runs - before.runs};
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReporter reporter("scaling", argc, argv);
    bench::banner("Scaling: BFGTS-HW and PTS from 16 to 128 CPUs "
                  "(4 threads/CPU, 10 tx/thread)");

    sim::TextTable table({"Benchmark", "Manager", "CPUs", "Commits",
                          "Aborts", "Events", "Predictions",
                          "Refetches", "Precision", "Recall",
                          "ns/cycle"});

    // bench_compare.py matches rows by position: new series go last.
    const std::pair<cm::CmKind, const char *> series[] = {
        {cm::CmKind::BfgtsHw, "Intruder"},
        {cm::CmKind::BfgtsHw, "Genome"},
        {cm::CmKind::Pts, "Intruder"},
        {cm::CmKind::Pts, "Genome"},
    };
    for (const auto &[kind, name] : series) {
        for (int cpus : {16, 32, 64, 128}) {
            runner::RunOptions options;
            options.numCpus = cpus;
            options.txPerThread = 10;
            const sim::HostRunTotals before = sim::hostRunTotals();
            runner::Simulation simulation(
                runner::makeConfig(name, kind, options));
            const runner::SimResults r = simulation.run();
            const sim::HostRunTotals host =
                hostDelta(before, sim::hostRunTotals());
            const PredictorCounts counts = predictorCounts(simulation);
            reporter.addRow()
                .set("benchmark", name)
                .set("manager", cm::cmKindName(kind))
                .set("cpus", static_cast<std::uint64_t>(cpus))
                .set("commits", r.commits)
                .set("aborts", r.aborts)
                .set("events", host.events)
                .set("predictions", counts.predictions)
                .set("refetches", counts.refetches)
                .set("stallPrecision", r.prediction.precision())
                .set("stallRecall", r.prediction.recall())
                .setHost(host);
            table.addRow({cpus == 16 ? name : "",
                          cpus == 16 ? cm::cmKindName(kind) : "",
                          std::to_string(cpus),
                          std::to_string(r.commits),
                          std::to_string(r.aborts),
                          std::to_string(host.events),
                          std::to_string(counts.predictions),
                          std::to_string(counts.refetches),
                          sim::fmtDouble(r.prediction.precision(), 3),
                          sim::fmtDouble(r.prediction.recall(), 3),
                          sim::fmtDouble(host.wallNsPerCycle(), 1)});
        }
    }
    table.print(std::cout);
    if (!reporter.write())
        return 1;
    return 0;
}
