/**
 * @file
 * Observer-overhead gate: an attached observer must cost (almost)
 * nothing and must not change results.
 *
 * The audit engine, the host profiler, the trace sink and the
 * decision-quality recorder hang off SimConfig, and every hook site
 * tests for them first, so outside --audit/--profile/--trace/--quality
 * runs each reduces to one branch per site. This bench prices each
 * observer the same way, on one Intruder/BFGTS-HW run (16x4, 60
 * tx/thread): with nothing attached, and with the observer attached
 * in the state whose cost the hooks alone impose:
 *
 *   audit    an engine in dry-run mode: hook sites dispatch into the
 *            engine, every checker body is skipped;
 *   prof     a profiler under a constant fake clock: enter()/exit()
 *            and the byte gauges run, the host clock is never read;
 *   trace    a sink that filters every category: one mask test per
 *            emission site, no record built;
 *   quality  a live recorder, fresh per run: the real work, but per
 *            transaction event, not per cycle.
 *
 * Each entry first checks that its attached run serializes
 * (writeSweepResults) exactly like the plain run, then times it with
 * pairedOverhead() and runs its own checks: the profiler leaves
 * results identical under the real clock too, the filtered sink
 * renders no record, and two quality reports of one config are
 * byte-equal. It prints one line and writes one --json row per
 * observer, and exits 1 if any entry fails.
 *
 * Usage: micro_overhead [--json [FILE]] [OBSERVER...]. Naming
 * observers (audit, prof, trace, quality) runs only those entries;
 * the audit_overhead, prof_overhead, trace_overhead and
 * quality_overhead ctests each run one.
 */

#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "runner/simulation.h"
#include "runner/sweep.h"
#include "sim/audit.h"
#include "sim/profiler.h"
#include "sim/quality.h"
#include "sim/trace.h"

namespace {

/** The most an observer may add, as a median on/off - 1. prof's dry
 *  hooks read about +5%, the other three within +-5%. */
constexpr double kTolerance = 0.10;

/** Alternating (off, on) pairs pairedOverhead() times. */
constexpr int kOverheadPairs = 21;

/** Attaches one observer to a run's copy of the plain config. */
using Attach = std::function<void(runner::SimConfig &)>;

/** What pairedOverhead() measured. */
struct PairedOverhead {
    /** Median over the pairs of on/off - 1. */
    double overhead = 0.0;
    /** Median wall seconds of the off and the on runs. */
    double offSeconds = 0.0;
    double onSeconds = 0.0;
};

/**
 * Price what @p attach adds to @p off: one untimed warm-up run of
 * @p off, then kOverheadPairs pairs that each time Simulation::run()
 * of @p off and then of @p off with the observer attached
 * (construction is not timed; @p attach runs once per attached run).
 * The overhead is the median of the per-pair ratios, so host noise
 * must hit most pairs, not one run, to move it; both runs of a pair
 * share the host's state of the moment.
 */
PairedOverhead
pairedOverhead(const runner::SimConfig &off, const Attach &attach)
{
    const auto time_run = [&](bool attached) {
        runner::SimConfig config = off;
        if (attached)
            attach(config);
        runner::Simulation simulation(config);
        const auto t0 = std::chrono::steady_clock::now();
        simulation.run();
        const auto t1 = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(t1 - t0).count();
    };
    time_run(false);
    std::vector<double> off_s;
    std::vector<double> on_s;
    std::vector<double> ratios;
    for (int pair = 0; pair < kOverheadPairs; ++pair) {
        off_s.push_back(time_run(false));
        on_s.push_back(time_run(true));
        ratios.push_back(on_s.back() / off_s.back());
    }
    PairedOverhead result;
    result.overhead = sim::minMedianMax(ratios).median - 1.0;
    result.offSeconds = sim::minMedianMax(off_s).median;
    result.onSeconds = sim::minMedianMax(on_s).median;
    return result;
}

/** The serialized results of one run of @p config. */
std::string
resultsString(const runner::SimConfig &config)
{
    runner::Simulation simulation(config);
    std::ostringstream os;
    runner::writeSweepResults(os, simulation.run());
    return os.str();
}

/** The plain config with @p attach applied. */
runner::SimConfig
attached(const runner::SimConfig &off, const Attach &attach)
{
    runner::SimConfig config = off;
    attach(config);
    return config;
}

/** Constant fake clock: hook dispatch without host-clock reads. */
std::uint64_t
fakeClock()
{
    return 42;
}

/** A sink that counts the records it renders (must stay at zero). */
class CountingSink : public sim::TraceSink
{
  public:
    std::uint64_t rendered = 0;

  protected:
    void write(const sim::TraceRecord &) override { ++rendered; }
};

/** One observer under the gate. */
struct Observer {
    const char *name;
    /** What the attached runs carry, for the printed line. */
    const char *attachedAs;
    Attach attach;
    /** Checks of its own, after the timing: "" when they hold, else
     *  what failed. */
    std::function<std::string()> check;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("micro: observer hook overhead");
    bench::JsonReporter json("micro_overhead", argc, argv);

    runner::RunOptions options;
    // A fixed size: long enough to time, short enough to run some 45
    // times per observer.
    options.txPerThread = 60;
    runner::SimConfig off =
        runner::makeConfig("Intruder", cm::CmKind::BfgtsHw, options);
    // Price every observer against a plain run, also under
    // BFGTS_AUDIT=1.
    off.audit = false;
    const std::string plain = resultsString(off);

    sim::AuditEngine dry_engine;
    dry_engine.setDryRun(true);
    sim::Profiler dry_profiler(&fakeClock);
    CountingSink filtered_sink;
    filtered_sink.enableOnly({});
    std::optional<sim::QualityRecorder> recorder;

    const Attach attach_audit = [&dry_engine](runner::SimConfig &c) {
        c.audit = true;
        c.auditEngine = &dry_engine;
    };
    const Attach attach_prof = [&dry_profiler](runner::SimConfig &c) {
        c.profiler = &dry_profiler;
    };
    const Attach attach_trace = [&filtered_sink](runner::SimConfig &c) {
        c.traceSink = &filtered_sink;
    };
    const Attach attach_quality = [&recorder](runner::SimConfig &c) {
        c.quality = &recorder.emplace();
    };

    const auto check_prof = [&off, &plain]() -> std::string {
        sim::Profiler real_profiler;
        runner::SimConfig profiled = off;
        profiled.profiler = &real_profiler;
        if (resultsString(profiled) != plain)
            return "real-clock profiling changed results";
        return "";
    };
    const auto check_trace = [&filtered_sink]() -> std::string {
        if (filtered_sink.rendered != 0)
            return "the filtered sink rendered records";
        return "";
    };
    const auto quality_report = [&off, &attach_quality, &recorder] {
        runner::Simulation simulation(attached(off, attach_quality));
        simulation.run();
        std::ostringstream os;
        sim::writeQualReport(os, "micro_overhead", recorder->data());
        return os.str();
    };
    const auto check_quality = [&quality_report]() -> std::string {
        if (quality_report() != quality_report())
            return "quality reports differ across equal runs";
        return "";
    };

    const std::vector<Observer> observers{
        {"audit", "dry-run engine", attach_audit, {}},
        {"prof", "fake-clock profiler", attach_prof, check_prof},
        {"trace", "filtered sink", attach_trace, check_trace},
        {"quality", "live recorder", attach_quality, check_quality},
    };

    // Positional arguments select entries; the value of --json is the
    // reporter's file, not a name.
    std::vector<std::string> selected;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            if (i + 1 < argc && argv[i + 1][0] != '-')
                ++i;
            continue;
        }
        bool known = false;
        for (const Observer &observer : observers)
            known = known || arg == observer.name;
        if (!known) {
            std::fprintf(stderr,
                         "%s: unknown observer '%s'\nusage: %s "
                         "[--json [FILE]] [audit|prof|trace|quality...]\n",
                         argv[0], arg.c_str(), argv[0]);
            return 2;
        }
        selected.push_back(arg);
    }
    const auto wanted = [&selected](const Observer &observer) {
        if (selected.empty())
            return true;
        for (const std::string &name : selected)
            if (name == observer.name)
                return true;
        return false;
    };

    std::printf("  median of %d alternating off/on pairs, tolerance "
                "%.0f%%\n\n",
                kOverheadPairs, 100.0 * kTolerance);
    bool ok = true;
    for (const Observer &observer : observers) {
        if (!wanted(observer))
            continue;
        std::string failure;
        if (resultsString(attached(off, observer.attach)) != plain)
            failure = "attaching it changed results";
        const PairedOverhead measured = pairedOverhead(off, observer.attach);
        if (failure.empty() && observer.check)
            failure = observer.check();
        if (failure.empty() && measured.overhead > kTolerance)
            failure = "overhead above tolerance";
        const std::string verdict =
            failure.empty() ? "OK" : "FAIL: " + failure;
        std::printf("  %-8s %-20s off %7.1f ms  on %7.1f ms  %+6.2f%%"
                    "  %s\n",
                    observer.name, observer.attachedAs,
                    measured.offSeconds * 1e3, measured.onSeconds * 1e3,
                    100.0 * measured.overhead, verdict.c_str());
        ok = ok && failure.empty();
        json.addRow()
            .set("observer", observer.name)
            .set("offSeconds", measured.offSeconds)
            .set("onSeconds", measured.onSeconds)
            .set("overhead", measured.overhead)
            .set("tolerance", kTolerance);
    }
    if (!json.write())
        return 1;
    return ok ? 0 : 1;
}
