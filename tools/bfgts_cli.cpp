/**
 * @file
 * Command-line driver: run any (workload, contention manager) cell
 * of the evaluation with custom machine parameters and print the
 * full results.
 *
 *   bfgts_cli --workload Intruder --cm BFGTS-HW
 *   bfgts_cli --workload Barnes --cm Backoff --cpus 8 --tpc 2
 *   bfgts_cli --list
 *
 * Options:
 *   --workload NAME   STAMP or SPLASH2-like benchmark (default Intruder)
 *   --cm NAME         contention manager display name (default BFGTS-HW)
 *   --cpus N          number of CPUs (default 16)
 *   --tpc N           threads per CPU (default 4)
 *   --tx N            transactions per thread (0 = workload default)
 *   --seed N          RNG seed (default 1)
 *   --bloom-bits N    BFGTS Bloom filter size
 *   --interval N      BFGTS small-tx similarity update interval
 *   --slots N         BFGTS confidence-table aliasing slots (0 = exact)
 *   --audit           checked simulation mode: run the invariant audit
 *                     engine (docs/static-analysis.md); results stay
 *                     byte-identical, violations abort with a report.
 *                     BFGTS_AUDIT=1 in the environment does the same.
 *   --baseline        also run the single-core baseline and print speedup
 *   --stats           dump per-component statistics after the run
 *   --json FILE       write the full machine-readable report
 *                     (schema bfgts-obs-v1; docs/observability.md)
 *   --trace FILE      write a lifecycle trace (text; "-" = stderr)
 *   --trace-jsonl     render the trace as JSON Lines instead of text
 *   --trace-cats LIST comma-separated trace categories
 *                     (tx,sched,cm,predictor,mem,audit; default all)
 *   --trace-chrome F  write a Chrome trace_event timeline (open in
 *                     Perfetto / chrome://tracing); composes with
 *                     --trace via a fanout sink
 *   --ts FILE         write the bfgts-ts-v1 interval time-series
 *                     (JSON Lines; docs/observability.md)
 *   --ts-interval N   sampling window in ticks (default 10000)
 *   --conflict-dot F  write the conflict graph as Graphviz DOT
 *                     (abort edges solid, serializations dashed)
 *   --profile FILE    write the bfgts-prof-v1 host-performance
 *                     profile (wall-time attribution per subsystem,
 *                     events/sec, wall-ns-per-cycle, memory gauges;
 *                     docs/observability.md). Wall-clock data, so the
 *                     report is nondeterministic -- every *other*
 *                     artifact stays byte-identical with or without
 *                     it. With --trace-chrome, host phase totals also
 *                     land as counter tracks on the timeline.
 *   --quality FILE    write the bfgts-qual-v1 decision-quality report
 *                     (Eq. 2-4 estimator-error histograms, confidence
 *                     reliability table with Brier score, per-pair
 *                     stall cost-benefit ledger;
 *                     docs/observability.md). Purely observational:
 *                     results stay byte-identical with or without it,
 *                     and the report itself is deterministic.
 *   --quality-jsonl F write the per-decision quality ledger as JSON
 *                     Lines (one line per classified begin outcome);
 *                     implies quality recording
 *   --list            list workloads and managers, then exit
 *
 * Sweep mode (runner::SweepRunner; docs/architecture.md):
 *   bfgts_cli --sweep --workloads Intruder,Genome --cms BFGTS-HW,PTS \
 *             --seeds 1,2 --jobs 8 --json sweep.json
 *
 *   --sweep           run the (workloads x cms x seeds) matrix instead
 *                     of a single cell; per-cell progress on stderr
 *   --workloads LIST  comma-separated STAMP benchmarks (default: all)
 *   --cms LIST        comma-separated manager names (default: the
 *                     paper's evaluation set)
 *   --seeds LIST      comma-separated RNG seeds (default: 1)
 *   --jobs N          worker threads (default 1)
 *   --cache DIR       on-disk result cache (also BFGTS_SWEEP_CACHE)
 *   --baselines       add one single-core baseline cell per workload
 *   --json FILE       write the bfgts-sweep-v1 report
 *   --profile FILE    write the bfgts-prof-v1 sweep profile: per-cell
 *                     host-performance rows (executed cells only) and
 *                     min/median/max aggregates. Never part of the
 *                     cache key; the bfgts-sweep-v1 report stays
 *                     byte-identical with or without it.
 *   --quality FILE    write the bfgts-qual-v1 sweep report: per-cell
 *                     decision-quality rows plus min/median/max
 *                     aggregates. Never part of the cache key; cache
 *                     reads are skipped so every cell carries data
 *                     and the report is byte-identical across --jobs
 *                     counts. (--quality-jsonl is single-run only.)
 *   (--cpus/--tpc/--tx/--bloom-bits/--interval/--slots set the base
 *    configuration of every cell)
 *
 * An interrupted sweep resumes by re-running it with the same --cache:
 * only the cells missing from the cache execute again.
 *
 * Exit status: 0 on success; 1 when a sweep cell failed or an output
 * file cannot be opened; 2 on a usage error (an unknown flag,
 * manager, workload or trace category, or a bad number), checked
 * before anything runs.
 */

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "runner/experiment.h"
#include "runner/simulation.h"
#include "runner/sweep.h"
#include "sim/chrome_trace.h"
#include "sim/json.h"
#include "sim/profiler.h"
#include "sim/quality.h"
#include "sim/sampler.h"
#include "sim/trace.h"
#include "workloads/splash2.h"
#include "workloads/stamp.h"

namespace {

bool
isOneOf(const std::string &name, const std::vector<std::string> &names)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

void
listEverything()
{
    std::printf("workloads (STAMP):   ");
    for (const auto &name : workloads::stampBenchmarkNames())
        std::printf("%s ", name.c_str());
    std::printf("\nworkloads (SPLASH2): ");
    for (const auto &name : workloads::splash2BenchmarkNames())
        std::printf("%s ", name.c_str());
    std::printf("\nmanagers:            ");
    for (cm::CmKind kind : cm::extendedCmKinds())
        std::printf("'%s' ", cm::cmKindName(kind));
    std::printf("\n");
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--workload NAME] [--cm NAME] [--cpus N] "
                 "[--tpc N] [--tx N]\n          [--seed N] "
                 "[--bloom-bits N] [--interval N] [--slots N]\n"
                 "          [--audit] [--baseline] [--stats] "
                 "[--json FILE]\n"
                 "          [--trace FILE] [--trace-jsonl] "
                 "[--trace-cats tx,sched,cm,predictor,mem,audit]\n"
                 "          [--trace-chrome FILE] [--ts FILE] "
                 "[--ts-interval N] [--conflict-dot FILE]\n"
                 "          [--profile FILE] [--quality FILE] "
                 "[--quality-jsonl FILE] [--list]\n"
                 "   sweep: %s --sweep [--workloads A,B] [--cms X,Y] "
                 "[--seeds 1,2]\n"
                 "          [--jobs N] [--cache DIR] [--baselines] "
                 "[--json FILE] [--profile FILE]\n"
                 "          [--quality FILE]\n",
                 argv0, argv0);
    std::exit(2);
}

/** The manager displayed as @p name; an unknown name is a usage
 *  error. */
cm::CmKind
managerFromName(const std::string &name, const char *argv0)
{
    for (cm::CmKind kind : cm::extendedCmKinds()) {
        if (name == cm::cmKindName(kind))
            return kind;
    }
    std::fprintf(stderr, "unknown contention manager '%s' (see --list)\n",
                 name.c_str());
    usage(argv0);
}

/**
 * Parse all of @p text as a base-10 integer of type T. Anything else
 * -- empty, trailing junk, out of range, a sign on an unsigned field
 * -- is a usage error: exit 2 naming @p flag.
 */
template <typename T>
T
parseNumber(const std::string &text, const char *flag)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end) {
        std::fprintf(stderr, "bfgts_cli: bad value '%s' for %s\n",
                     text.c_str(), flag);
        std::exit(2);
    }
    return value;
}

/** Split "a,b,c" into its non-empty comma-separated pieces. */
std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> pieces;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos)
            comma = list.size();
        if (comma > start)
            pieces.push_back(list.substr(start, comma - start));
        start = comma + 1;
    }
    return pieces;
}

/** Parse "tx,cm,..." into categories; exits on unknown names. */
std::vector<sim::TraceCategory>
parseTraceCats(const std::string &list, const char *argv0)
{
    std::vector<sim::TraceCategory> cats;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos)
            comma = list.size();
        const std::string name = list.substr(start, comma - start);
        sim::TraceCategory category;
        if (!sim::traceCategoryFromName(name, &category)) {
            std::fprintf(stderr, "unknown trace category '%s'\n",
                         name.c_str());
            usage(argv0);
        }
        cats.push_back(category);
        start = comma + 1;
    }
    return cats;
}

/** "queue" for the ATS token pseudo-node, "s<N>" for real sites. */
std::string
siteLabel(int stx)
{
    return stx < 0 ? std::string("queue")
                   : "s" + std::to_string(stx);
}

/**
 * Conflict-edge attribution: every (winner, victim) abort edge in
 * key order, the top-K by wasted victim cycles, and the begin-time
 * serialization edges. Key order and a deterministic top-K sort keep
 * the report byte-identical across runs of equal simulations.
 */
void
writeEdgeReport(sim::JsonWriter &jw, const runner::SimResults &r)
{
    using Edge = std::pair<std::pair<int, int>,
                           runner::ConflictEdgeStats>;
    std::vector<Edge> top(r.abortEdges.begin(), r.abortEdges.end());
    std::sort(top.begin(), top.end(),
              [](const Edge &a, const Edge &b) {
                  if (a.second.wastedCycles != b.second.wastedCycles)
                      return a.second.wastedCycles
                           > b.second.wastedCycles;
                  if (a.second.aborts != b.second.aborts)
                      return a.second.aborts > b.second.aborts;
                  return a.first < b.first;
              });
    constexpr std::size_t kTopK = 10;
    if (top.size() > kTopK)
        top.resize(kTopK);

    const auto edge_object = [&jw](const Edge &edge) {
        jw.beginObject();
        jw.kv("winner", edge.first.first);
        jw.kv("victim", edge.first.second);
        jw.kv("aborts", edge.second.aborts);
        jw.kv("wastedCycles",
              static_cast<std::uint64_t>(edge.second.wastedCycles));
        jw.endObject();
    };

    jw.beginObject("conflict_edges");
    jw.kv("totalEdges",
          static_cast<std::uint64_t>(r.abortEdges.size()));
    jw.beginArray("topByWastedCycles");
    for (const Edge &edge : top)
        edge_object(edge);
    jw.endArray();
    jw.beginArray("edges");
    for (const auto &edge : r.abortEdges)
        edge_object(edge);
    jw.endArray();
    jw.endObject();

    jw.beginArray("serialization_edges");
    for (const auto &[key, count] : r.serializationEdges) {
        jw.beginObject();
        jw.kv("winner", key.first);
        jw.kv("victim", key.second);
        jw.kv("count", count);
        jw.endObject();
    }
    jw.endArray();
}

/**
 * Graphviz DOT rendering of the attributed conflict graph: solid
 * edges are aborts (winner -> victim, labeled with counts and wasted
 * cycles), dashed gray edges are begin-time serializations. Node
 * "queue" stands for token-based serialization with no named enemy.
 */
void
writeConflictDot(std::ostream &os, const runner::SimResults &r)
{
    os << "// who-aborts-whom, " << r.workload << " under " << r.cm
       << "\n";
    os << "digraph conflicts {\n"
       << "  rankdir=LR;\n"
       << "  node [shape=circle];\n";
    std::set<int> nodes;
    for (const auto &[key, stats] : r.abortEdges) {
        (void)stats;
        nodes.insert(key.first);
        nodes.insert(key.second);
    }
    for (const auto &[key, count] : r.serializationEdges) {
        (void)count;
        nodes.insert(key.first);
        nodes.insert(key.second);
    }
    for (int node : nodes) {
        if (node < 0)
            os << "  queue [shape=box,label=\"token queue\"];\n";
        else
            os << "  " << siteLabel(node) << ";\n";
    }
    for (const auto &[key, stats] : r.abortEdges) {
        os << "  " << siteLabel(key.first) << " -> "
           << siteLabel(key.second) << " [label=\"" << stats.aborts
           << " ab / " << stats.wastedCycles << " cyc\"];\n";
    }
    for (const auto &[key, count] : r.serializationEdges) {
        os << "  " << siteLabel(key.first) << " -> "
           << siteLabel(key.second) << " [style=dashed,color=gray,"
           << "label=\"" << count << " ser\"];\n";
    }
    os << "}\n";
}

/**
 * --sweep mode: run the (workloads x cms x seeds) matrix through
 * runner::SweepRunner with per-cell progress on stderr, optionally
 * prefixed by one single-core baseline cell per workload. Exits
 * nonzero when any cell failed; a summary line
 * "sweep: N cells, X executed, Y cached, Z errors" always goes to
 * stderr (tools/sweep_check.py parses it).
 */
int
runSweep(const std::vector<std::string> &workload_names,
         const std::vector<cm::CmKind> &cm_kinds,
         const std::vector<std::string> &seed_names,
         const runner::RunOptions &base, bool with_baselines,
         int jobs, const std::string &cache_dir,
         const std::string &json_path,
         const std::string &profile_path,
         const std::string &quality_path, const char *argv0)
{
    std::vector<std::string> workload_list = workload_names;
    if (workload_list.empty())
        workload_list = workloads::stampBenchmarkNames();
    for (const std::string &name : workload_list) {
        if (!isOneOf(name, workloads::stampBenchmarkNames())) {
            std::fprintf(stderr,
                         "unknown sweep workload '%s' (sweep mode "
                         "runs STAMP benchmarks)\n",
                         name.c_str());
            usage(argv0);
        }
    }

    const std::vector<cm::CmKind> managers =
        cm_kinds.empty() ? cm::allCmKinds() : cm_kinds;

    std::vector<std::uint64_t> seeds;
    for (const std::string &name : seed_names)
        seeds.push_back(parseNumber<std::uint64_t>(name, "--seeds"));
    if (seeds.empty())
        seeds.push_back(base.seed);

    std::vector<runner::SweepCell> cells;
    if (with_baselines) {
        for (const std::string &name : workload_list) {
            runner::SweepCell cell;
            cell.workload = name;
            cell.options = base;
            cell.baseline = true;
            cells.push_back(cell);
        }
    }
    for (const std::string &name : workload_list) {
        for (cm::CmKind kind : managers) {
            for (std::uint64_t seed : seeds) {
                runner::SweepCell cell;
                cell.workload = name;
                cell.cm = kind;
                cell.options = base;
                cell.options.seed = seed;
                cells.push_back(cell);
            }
        }
    }

    runner::SweepOptions sweep_options;
    sweep_options.jobs = jobs;
    sweep_options.cacheDir = cache_dir;
    sweep_options.progress = &std::cerr;
    sweep_options.profile = !profile_path.empty();
    sweep_options.quality = !quality_path.empty();

    runner::SweepRunner sweep(sweep_options);
    sweep.run(cells);

    const runner::SweepStats &stats = sweep.stats();
    std::fprintf(stderr,
                 "sweep: %zu cells, %d executed, %d cached, "
                 "%d errors\n",
                 cells.size(), stats.executed, stats.cacheHits,
                 stats.errors);

    if (!json_path.empty()) {
        std::ofstream json_file(json_path);
        if (!json_file) {
            std::fprintf(stderr, "cannot open %s\n",
                         json_path.c_str());
            return 1;
        }
        sweep.writeReport(json_file, "cli-sweep");
    }
    if (!profile_path.empty()) {
        std::ofstream profile_file(profile_path);
        if (!profile_file) {
            std::fprintf(stderr, "cannot open %s\n",
                         profile_path.c_str());
            return 1;
        }
        sweep.writeProfileReport(profile_file, "cli-sweep");
    }
    if (!quality_path.empty()) {
        std::ofstream quality_file(quality_path);
        if (!quality_file) {
            std::fprintf(stderr, "cannot open %s\n",
                         quality_path.c_str());
            return 1;
        }
        sweep.writeQualityReport(quality_file, "cli-sweep");
    }
    return stats.errors == 0 ? 0 : 1;
}

/** The bfgts-obs-v1 "run" report (docs/observability.md). */
void
writeJsonReport(std::ostream &os, const std::string &name,
                const runner::SimConfig &config,
                const runner::SimResults &r,
                const runner::Simulation &simulation,
                const sim::Sampler *sampler)
{
    sim::JsonWriter jw(os);
    jw.beginObject();
    jw.kv("schema", "bfgts-obs-v1");
    jw.kv("kind", "run");
    jw.kv("name", name);
    jw.kv("git", sim::buildGitDescribe());

    jw.beginObject("config");
    jw.kv("workload", r.workload);
    jw.kv("cm", r.cm);
    jw.kv("cpus", config.numCpus);
    jw.kv("threadsPerCpu", config.threadsPerCpu);
    jw.kv("seed", config.seed);
    jw.kv("txPerThreadOverride", config.txPerThreadOverride);
    jw.kv("bloomBits",
          static_cast<std::uint64_t>(
              config.tuning.bfgts.bloom.numBits));
    jw.kv("smallTxInterval", config.tuning.bfgts.smallTxInterval);
    jw.kv("confTableSlots", config.tuning.bfgts.confTableSlots);
    jw.endObject();

    jw.beginObject("results");
    jw.kv("runtime", static_cast<std::uint64_t>(r.runtime));
    jw.kv("commits", r.commits);
    jw.kv("aborts", r.aborts);
    jw.kv("conflicts", r.conflicts);
    jw.kv("serializations", r.serializations);
    jw.kv("stallTimeouts", r.stallTimeouts);
    jw.kv("contentionRate", r.contentionRate);
    const runner::Breakdown &b = r.breakdown;
    jw.beginObject("breakdown");
    jw.kv("nonTx", static_cast<std::uint64_t>(b.nonTx));
    jw.kv("kernel", static_cast<std::uint64_t>(b.kernel));
    jw.kv("tx", static_cast<std::uint64_t>(b.tx));
    jw.kv("aborted", static_cast<std::uint64_t>(b.aborted));
    jw.kv("sched", static_cast<std::uint64_t>(b.sched));
    jw.kv("idle", static_cast<std::uint64_t>(b.idle));
    jw.kv("nonTxFrac", b.frac(b.nonTx));
    jw.kv("kernelFrac", b.frac(b.kernel));
    jw.kv("txFrac", b.frac(b.tx));
    jw.kv("abortedFrac", b.frac(b.aborted));
    jw.kv("schedFrac", b.frac(b.sched));
    jw.kv("idleFrac", b.frac(b.idle));
    jw.endObject();
    jw.endObject();

    if (sampler != nullptr)
        sampler->summaryJson(jw);
    writeEdgeReport(jw, r);

    simulation.dumpStatsJson(jw);
    jw.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = "Intruder";
    runner::SimConfig config;
    bool with_baseline = false;
    bool with_stats = false;
    std::string json_path;
    std::string trace_path;
    bool trace_jsonl = false;
    std::vector<sim::TraceCategory> trace_cats;
    std::string chrome_path;
    std::string ts_path;
    sim::Tick ts_interval = 10'000;
    std::string dot_path;
    std::string profile_path;
    std::string quality_path;
    std::string quality_jsonl_path;

    bool sweep_mode = false;
    bool sweep_baselines = false;
    std::vector<std::string> sweep_workloads;
    std::vector<cm::CmKind> sweep_cms;
    std::vector<std::string> sweep_seeds;
    int sweep_jobs = 1;
    std::string sweep_cache;
    if (const char *env = std::getenv("BFGTS_SWEEP_CACHE");
        env != nullptr && env[0] != '\0') {
        sweep_cache = env;
    }

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--list") {
            listEverything();
            return 0;
        } else if (arg == "--workload") {
            workload = next();
            if (!isOneOf(workload, workloads::stampBenchmarkNames())
                && !isOneOf(workload,
                            workloads::splash2BenchmarkNames())) {
                std::fprintf(stderr,
                             "unknown workload '%s' (see --list)\n",
                             workload.c_str());
                usage(argv[0]);
            }
        } else if (arg == "--cm") {
            config.cm = managerFromName(next(), argv[0]);
        } else if (arg == "--cpus") {
            config.numCpus = parseNumber<int>(next(), "--cpus");
        } else if (arg == "--tpc") {
            config.threadsPerCpu = parseNumber<int>(next(), "--tpc");
        } else if (arg == "--tx") {
            config.txPerThreadOverride = parseNumber<int>(next(), "--tx");
        } else if (arg == "--seed") {
            config.seed = parseNumber<std::uint64_t>(next(), "--seed");
        } else if (arg == "--bloom-bits") {
            config.tuning.bfgts.bloom.numBits =
                parseNumber<std::uint64_t>(next(), "--bloom-bits");
        } else if (arg == "--interval") {
            config.tuning.bfgts.smallTxInterval =
                parseNumber<int>(next(), "--interval");
        } else if (arg == "--slots") {
            config.tuning.bfgts.confTableSlots =
                parseNumber<int>(next(), "--slots");
        } else if (arg == "--audit") {
            config.audit = true;
        } else if (arg == "--baseline") {
            with_baseline = true;
        } else if (arg == "--stats") {
            with_stats = true;
        } else if (arg == "--json") {
            json_path = next();
        } else if (arg == "--trace") {
            trace_path = next();
        } else if (arg == "--trace-jsonl") {
            trace_jsonl = true;
        } else if (arg == "--trace-cats") {
            trace_cats = parseTraceCats(next(), argv[0]);
        } else if (arg == "--trace-chrome") {
            chrome_path = next();
        } else if (arg == "--ts") {
            ts_path = next();
        } else if (arg == "--ts-interval") {
            ts_interval = parseNumber<sim::Tick>(next(), "--ts-interval");
            if (ts_interval == 0)
                usage(argv[0]);
        } else if (arg == "--conflict-dot") {
            dot_path = next();
        } else if (arg == "--profile") {
            profile_path = next();
        } else if (arg == "--quality") {
            quality_path = next();
        } else if (arg == "--quality-jsonl") {
            quality_jsonl_path = next();
        } else if (arg == "--sweep") {
            sweep_mode = true;
        } else if (arg == "--workloads") {
            sweep_workloads = splitList(next());
        } else if (arg == "--cms") {
            sweep_cms.clear();
            for (const std::string &name : splitList(next()))
                sweep_cms.push_back(managerFromName(name, argv[0]));
        } else if (arg == "--seeds") {
            sweep_seeds = splitList(next());
        } else if (arg == "--jobs") {
            sweep_jobs = parseNumber<int>(next(), "--jobs");
        } else if (arg == "--cache") {
            sweep_cache = next();
        } else if (arg == "--baselines") {
            sweep_baselines = true;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
        }
    }

    if (const std::string error = config.validate(); !error.empty()) {
        std::fprintf(stderr, "bfgts_cli: %s\n", error.c_str());
        return 2;
    }

    if (sweep_mode) {
        runner::RunOptions base;
        base.numCpus = config.numCpus;
        base.threadsPerCpu = config.threadsPerCpu;
        base.seed = config.seed;
        base.txPerThread = config.txPerThreadOverride;
        base.tuning = config.tuning;
        base.audit = config.audit;
        return runSweep(sweep_workloads, sweep_cms, sweep_seeds, base,
                        sweep_baselines, sweep_jobs, sweep_cache,
                        json_path, profile_path, quality_path,
                        argv[0]);
    }

    if (isOneOf(workload, workloads::splash2BenchmarkNames())) {
        config.workloadFactory = [workload](int threads) {
            return workloads::makeSplash2Workload(workload, threads);
        };
    } else {
        config.workload = workload; // validated by the factory
    }

    std::ofstream trace_file;
    std::unique_ptr<sim::TraceSink> trace_sink;
    if (!trace_path.empty()) {
        std::ostream *trace_os = &std::cerr;
        if (trace_path != "-") {
            trace_file.open(trace_path);
            if (!trace_file) {
                std::fprintf(stderr, "cannot open %s\n",
                             trace_path.c_str());
                return 1;
            }
            trace_os = &trace_file;
        }
        if (trace_jsonl)
            trace_sink =
                std::make_unique<sim::JsonlTraceSink>(*trace_os);
        else
            trace_sink =
                std::make_unique<sim::TextTraceSink>(*trace_os);
        if (!trace_cats.empty())
            trace_sink->enableOnly(trace_cats);
        config.traceSink = trace_sink.get();
    }

    std::ofstream chrome_file;
    std::unique_ptr<sim::ChromeTraceSink> chrome_sink;
    sim::FanoutTraceSink fanout;
    if (!chrome_path.empty()) {
        chrome_file.open(chrome_path);
        if (!chrome_file) {
            std::fprintf(stderr, "cannot open %s\n",
                         chrome_path.c_str());
            return 1;
        }
        chrome_sink =
            std::make_unique<sim::ChromeTraceSink>(chrome_file);
        if (trace_sink != nullptr) {
            fanout.addSink(trace_sink.get());
            fanout.addSink(chrome_sink.get());
            config.traceSink = &fanout;
        } else {
            config.traceSink = chrome_sink.get();
        }
    }

    std::ofstream ts_file;
    std::unique_ptr<sim::Sampler> sampler;
    if (!ts_path.empty() || chrome_sink != nullptr
        || !json_path.empty()) {
        sim::Sampler::Config sampler_config;
        sampler_config.interval = ts_interval;
        if (!ts_path.empty()) {
            ts_file.open(ts_path);
            if (!ts_file) {
                std::fprintf(stderr, "cannot open %s\n",
                             ts_path.c_str());
                return 1;
            }
            sampler_config.jsonl = &ts_file;
        }
        sampler = std::make_unique<sim::Sampler>(sampler_config);
        if (chrome_sink != nullptr)
            sampler->setCounterSink(chrome_sink.get());
        config.sampler = sampler.get();
    }

    // Host-performance profiling (--profile). The profiler hangs off
    // SimConfig like the other observers; the counter sink is only
    // attached under --profile so plain --trace-chrome timelines stay
    // byte-identical across hosts.
    sim::Profiler profiler;
    if (!profile_path.empty()) {
        config.profiler = &profiler;
        if (chrome_sink != nullptr)
            profiler.setCounterSink(chrome_sink.get());
    }

    // Decision-quality recording (--quality / --quality-jsonl).
    // Deterministic observer; --quality-jsonl alone still attaches
    // the recorder so the ledger lines get written.
    sim::QualityRecorder quality;
    std::ofstream quality_jsonl_file;
    if (!quality_path.empty() || !quality_jsonl_path.empty()) {
        config.quality = &quality;
        if (!quality_jsonl_path.empty()) {
            quality_jsonl_file.open(quality_jsonl_path);
            if (!quality_jsonl_file) {
                std::fprintf(stderr, "cannot open %s\n",
                             quality_jsonl_path.c_str());
                return 1;
            }
            quality.setJsonlSink(&quality_jsonl_file);
        }
    }

    runner::Simulation simulation(config);
    const runner::SimResults r = simulation.run();

    if (chrome_sink != nullptr)
        chrome_sink->close();

    std::printf("workload          %s\n", r.workload.c_str());
    std::printf("manager           %s\n", r.cm.c_str());
    std::printf("machine           %d CPUs x %d threads\n",
                config.numCpus, config.threadsPerCpu);
    std::printf("runtime           %llu cycles\n",
                static_cast<unsigned long long>(r.runtime));
    std::printf("commits / aborts  %llu / %llu  (contention %.1f%%)\n",
                static_cast<unsigned long long>(r.commits),
                static_cast<unsigned long long>(r.aborts),
                100.0 * r.contentionRate);
    std::printf("serializations    %llu\n",
                static_cast<unsigned long long>(r.serializations));
    const runner::Breakdown &b = r.breakdown;
    std::printf("breakdown         nonTx %.1f%%  kernel %.1f%%  tx "
                "%.1f%%  abort %.1f%%  sched %.1f%%  idle %.1f%%\n",
                100.0 * b.frac(b.nonTx), 100.0 * b.frac(b.kernel),
                100.0 * b.frac(b.tx), 100.0 * b.frac(b.aborted),
                100.0 * b.frac(b.sched), 100.0 * b.frac(b.idle));

    const runner::PredictionQuality &pq = r.prediction;
    std::printf("prediction        stalls %llu  TP %llu  FP %llu  "
                "FN %llu  (precision %.2f recall %.2f)\n",
                static_cast<unsigned long long>(pq.predictedStalls),
                static_cast<unsigned long long>(pq.truePositives),
                static_cast<unsigned long long>(pq.falsePositives),
                static_cast<unsigned long long>(pq.falseNegatives),
                pq.precision(), pq.recall());

    if (with_stats) {
        std::printf("\n-- component statistics --\n");
        simulation.dumpStats(std::cout);
    }

    if (!json_path.empty()) {
        std::ofstream json_file(json_path);
        if (!json_file) {
            std::fprintf(stderr, "cannot open %s\n",
                         json_path.c_str());
            return 1;
        }
        const std::string name = r.workload + "-" + r.cm;
        writeJsonReport(json_file, name, config, r, simulation,
                        sampler.get());
    }

    if (!dot_path.empty()) {
        std::ofstream dot_file(dot_path);
        if (!dot_file) {
            std::fprintf(stderr, "cannot open %s\n",
                         dot_path.c_str());
            return 1;
        }
        writeConflictDot(dot_file, r);
    }

    if (!profile_path.empty()) {
        std::ofstream profile_file(profile_path);
        if (!profile_file) {
            std::fprintf(stderr, "cannot open %s\n",
                         profile_path.c_str());
            return 1;
        }
        profiler.writeReport(profile_file, r.workload + "-" + r.cm);
    }

    if (!quality_path.empty()) {
        std::ofstream quality_file(quality_path);
        if (!quality_file) {
            std::fprintf(stderr, "cannot open %s\n",
                         quality_path.c_str());
            return 1;
        }
        sim::writeQualReport(quality_file, r.workload + "-" + r.cm,
                             quality.data());
    }

    if (with_baseline) {
        runner::SimConfig base_config = config;
        base_config.numCpus = 1;
        base_config.threadsPerCpu = 1;
        base_config.cm = cm::CmKind::Backoff;
        const int per_thread =
            config.txPerThreadOverride > 0
                ? config.txPerThreadOverride
                : [&] {
                      runner::Simulation probe(config);
                      return probe.workload().txPerThread();
                  }();
        base_config.txPerThreadOverride =
            per_thread * config.numThreads();
        runner::Simulation baseline(base_config);
        const runner::SimResults base = baseline.run();
        std::printf("baseline          %llu cycles -> speedup %.2fx\n",
                    static_cast<unsigned long long>(base.runtime),
                    static_cast<double>(base.runtime)
                        / static_cast<double>(r.runtime));
    }
    return 0;
}
