/**
 * @file
 * bfgts_bench: host cost of the simulator, end to end and per layer.
 *
 * A workload is a fixed list of simulation cells built from the seed.
 * The bench runs one untimed warm-up of the first cell, then timed
 * passes over the whole list until --seconds have elapsed (at least
 * three passes). Each cell is timed from outside, around the public
 * entry points: runner::makeConfig, the runner::Simulation
 * constructor, Simulation::run() and the report (dumpStatsJson plus
 * digest). The `sweep` workload times runner::SweepRunner::run instead,
 * cold into a fresh cache directory and then warm. With --trace-dir, a
 * further pass attaches sim::Profiler to every cell for the per-layer
 * split and writes the benchmark's own spans.
 *
 * Every cell run is checked: its digest must equal golden.json's entry
 * for the seed (when there is one) and every other run of the same
 * cell in this process, and its commit count must equal the work it
 * was given. A mismatch or a throwing cell counts as failed; the run
 * continues.
 *
 * Output: one "workload metric value unit" line per metric. run.py
 * builds this program and turns the lines into the benchmark result.
 */

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "runner/experiment.h"
#include "runner/simulation.h"
#include "runner/sweep.h"
#include "sim/json.h"
#include "sim/json_parse.h"
#include "sim/profiler.h"
#include "workloads/stamp.h"

namespace {

// ---- workloads ------------------------------------------------------

const char *const kWorkloadNames[] = {
    "paper16", "scale64", "scale64_nopred", "signature", "sweep",
};

/** Signature geometry of the `signature` workload. */
constexpr std::uint64_t kSignatureBits = 1024;

/** SweepRunner workers of the `sweep` workload. One worker thread still
 *  goes through the pool's queue; a second one made the pass time
 *  depend on whether the host had two cores free. */
constexpr int kSweepJobs = 1;

/** Set-ups per pass of the `sweep` workload (see runSweepPass). */
constexpr int kSweepSetups = 101;

/** One simulation of a workload's cell list. */
struct Cell {
    /** Digest key within the workload, e.g. "Intruder/BFGTS-HW". */
    std::string id;
    std::string workload;
    cm::CmKind cm = cm::CmKind::Backoff;
    runner::RunOptions options;
    /** Bloom-signature conflict detection instead of exact sets. */
    bool signature = false;
    /** Single-core baseline cell (sweep workload only). */
    bool baseline = false;
    /** Every thread commits each of its transactions exactly once. */
    std::uint64_t expectedCommits = 0;
};

struct Workload {
    std::string name;
    /** Run the cells through SweepRunner rather than one by one, one
     *  run() per group of consecutive cells of the same benchmark. */
    bool sweep = false;
    std::vector<Cell> cells;
};

int
defaultTxPerThread(const std::string &workload)
{
    static std::map<std::string, int> cache;
    auto it = cache.find(workload);
    if (it == cache.end()) {
        it = cache
                 .emplace(workload,
                          workloads::makeStampWorkload(workload, 1)
                              ->txPerThread())
                 .first;
    }
    return it->second;
}

/** @p tx 0 keeps the workload's default transactions per thread. */
Cell
stampCell(const std::string &workload, cm::CmKind kind, int cpus,
          int threads_per_cpu, int tx, std::uint64_t seed)
{
    Cell cell;
    cell.id = workload + "/" + cm::cmKindName(kind);
    cell.workload = workload;
    cell.cm = kind;
    cell.options.numCpus = cpus;
    cell.options.threadsPerCpu = threads_per_cpu;
    cell.options.txPerThread = tx;
    cell.options.seed = seed;
    const int per_thread = tx > 0 ? tx : defaultTxPerThread(workload);
    cell.expectedCommits = static_cast<std::uint64_t>(cpus)
                         * static_cast<std::uint64_t>(threads_per_cpu)
                         * static_cast<std::uint64_t>(per_thread);
    return cell;
}

Cell
baselineCell(const std::string &workload, std::uint64_t seed)
{
    // runSingleCoreBaseline() runs the whole 16x4 machine's work on one
    // thread, so the commit count is the parallel cell's.
    Cell cell = stampCell(workload, cm::CmKind::Backoff, 16, 4, 0, seed);
    cell.id = workload + "/baseline";
    cell.baseline = true;
    return cell;
}

/** The cell list of workload @p name; nullopt for unknown names. */
std::optional<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    using cm::CmKind;
    Workload w;
    w.name = name;
    if (name == "paper16") {
        // The paper's matrix (Figs. 4-5, Table 4) at 16 CPUs x 4.
        for (const std::string &stamp : workloads::stampBenchmarkNames()) {
            for (CmKind kind : {CmKind::Backoff, CmKind::Ats, CmKind::Pts,
                                CmKind::BfgtsHw}) {
                w.cells.push_back(stampCell(stamp, kind, 16, 4, 0, seed));
            }
        }
    } else if (name == "scale64") {
        // 64 CPUs: the predictor dominates host time here.
        for (const char *stamp : {"Intruder", "Genome"})
            w.cells.push_back(
                stampCell(stamp, CmKind::BfgtsHw, 64, 4, 10, seed));
    } else if (name == "scale64_nopred") {
        // Same machine without the predictor or Bloom code.
        for (const char *stamp : {"Intruder", "Genome"}) {
            for (CmKind kind : {CmKind::Backoff, CmKind::Pts})
                w.cells.push_back(stampCell(stamp, kind, 64, 4, 40, seed));
        }
    } else if (name == "signature") {
        // Bloom membership test on every access, not only at commit.
        for (const char *stamp :
             {"Genome", "Vacation", "Labyrinth", "Intruder"}) {
            for (CmKind kind : {CmKind::Backoff, CmKind::BfgtsHw}) {
                Cell cell = stampCell(stamp, kind, 16, 4, 0, seed);
                cell.signature = true;
                w.cells.push_back(cell);
            }
        }
    } else if (name == "sweep") {
        // Fig. 4: single-core baselines plus two BFGTS-HW variants,
        // through the thread pool and the result cache, one
        // SweepRunner::run per STAMP benchmark.
        w.sweep = true;
        for (const std::string &stamp : workloads::stampBenchmarkNames()) {
            w.cells.push_back(baselineCell(stamp, seed));
            for (CmKind kind : {CmKind::BfgtsHw, CmKind::BfgtsHwBackoff})
                w.cells.push_back(stampCell(stamp, kind, 16, 4, 0, seed));
        }
    } else {
        return std::nullopt;
    }
    return w;
}

// ---- digests --------------------------------------------------------

using DigestMap = std::map<std::string, std::string>;

std::uint64_t
fnv1a(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Doubles go in as their bit patterns, so equal means identical. */
std::string
doubleBits(double v)
{
    return hex16(std::bit_cast<std::uint64_t>(v));
}

/**
 * The benchmark's own digest of a cell: FNV-1a 64 over a fixed
 * serialization of every SimResults field plus the dumpStatsJson bytes
 * (empty for sweep cells, whose stats SweepRunner does not return).
 */
std::string
digestOf(const runner::SimResults &r, const std::string &stats_json)
{
    std::ostringstream s;
    s << r.workload << '|' << r.cm << '|' << r.runtime << '|'
      << r.commits << '|' << r.aborts << '|' << r.conflicts << '|'
      << r.serializations << '|' << r.stallTimeouts << '|'
      << doubleBits(r.contentionRate);
    const runner::Breakdown &b = r.breakdown;
    s << "|bd " << b.nonTx << ' ' << b.kernel << ' ' << b.tx << ' '
      << b.aborted << ' ' << b.sched << ' ' << b.idle;
    const runner::PredictionQuality &p = r.prediction;
    s << "|pq " << p.predictedStalls << ' ' << p.truePositives << ' '
      << p.falsePositives << ' ' << p.falseNegatives << ' '
      << p.predictedAborts << ' ' << p.trueNegatives;
    s << "|sim";
    for (double v : r.similarityPerSite)
        s << ' ' << doubleBits(v);
    s << "|graph";
    for (const auto &[lo, hi] : r.conflictGraph)
        s << ' ' << lo << ',' << hi;
    s << "|pairs";
    for (const auto &[edge, n] : r.abortPairs)
        s << ' ' << edge.first << ',' << edge.second << '=' << n;
    s << "|edges";
    for (const auto &[edge, st] : r.abortEdges) {
        s << ' ' << edge.first << ',' << edge.second << '=' << st.aborts
          << ':' << st.wastedCycles;
    }
    s << "|ser";
    for (const auto &[edge, n] : r.serializationEdges)
        s << ' ' << edge.first << ',' << edge.second << '=' << n;
    s << '|' << stats_json;
    return hex16(fnv1a(s.str()));
}

bool
readJsonFile(const std::string &path, sim::JsonValue *out,
             std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *error = "cannot read " + path;
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (!sim::parseJson(text.str(), out, error)) {
        *error = path + ": " + *error;
        return false;
    }
    return true;
}

bool
readGolden(const std::string &path, DigestMap *out, std::string *error)
{
    sim::JsonValue root;
    if (!readJsonFile(path, &root, error))
        return false;
    const sim::JsonValue *digests =
        root.isObject() ? root.find("digests") : nullptr;
    if (digests == nullptr || !digests->isObject()) {
        *error = path + ": no \"digests\" object";
        return false;
    }
    for (const auto &[key, value] : digests->members) {
        if (!value.isString()) {
            *error = path + ": digest of '" + key + "' is not a string";
            return false;
        }
        (*out)[key] = value.text;
    }
    return true;
}

bool
writeGolden(const std::string &path, const DigestMap &digests)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        sim::JsonWriter jw(out);
        jw.beginObject();
        jw.kv("schema", "bfgts-bench-golden-v1");
        jw.beginObject("digests");
        for (const auto &[key, digest] : digests)
            jw.kv(key, digest);
        jw.endObject();
        jw.endObject();
        out << "\n";
        if (!out.flush())
            return false;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    return !ec;
}

/** Judges every cell run of one measure() call. */
class Checker
{
  public:
    /** @param prefix "workload seed ", the golden key prefix. */
    Checker(const DigestMap &golden, std::string prefix)
        : golden_(golden), prefix_(std::move(prefix))
    {
    }

    /** Count one cell run; @p error non-empty means it failed. */
    void
    record(const Cell &cell, const std::string &digest,
           std::uint64_t commits, std::string error)
    {
        ++attempted_;
        const std::string key = prefix_ + cell.id;
        if (error.empty() && commits != cell.expectedCommits) {
            error = "committed " + std::to_string(commits) + " of "
                  + std::to_string(cell.expectedCommits)
                  + " transactions";
        }
        if (error.empty()) {
            const auto [it, first] = seen_.emplace(key, digest);
            const auto golden = golden_.find(key);
            if (!first && it->second != digest)
                error = "digest differs between runs";
            else if (golden != golden_.end() && golden->second != digest)
                error = "digest " + digest + " != golden "
                      + golden->second;
        }
        if (!error.empty()) {
            ++failed_;
            std::fprintf(stderr, "bfgts_bench: cell '%s' failed: %s\n",
                         key.c_str(), error.c_str());
        }
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const DigestMap &digests() const { return seen_; }

  private:
    const DigestMap &golden_;
    std::string prefix_;
    DigestMap seen_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

// ---- measurement ----------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** Quantile @p q by linear interpolation between closest ranks. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Timings of one unit of a pass: a cell, or (sweep) the cold and the
 *  warm SweepRunner::run. Units keep their order across passes. */
struct Unit {
    std::uint64_t wallNs = 0;
    std::uint64_t setupNs = 0;
};

struct Pass {
    std::vector<Unit> units;
    /** Simulated cycles (sum of cell runtimes). */
    std::uint64_t cycles = 0;
};

/** Spans the traced pass records around the calls into each layer;
 *  kept in memory and written when the run ends. */
class SpanLog
{
  public:
    /** Add a span; returns its id. @p parent -1 for a root span. */
    long
    add(long parent, const char *name, const std::string &cell,
        std::uint64_t start, std::uint64_t end)
    {
        spans_.push_back({parent, name, cell, start, end, std::nullopt});
        return static_cast<long>(spans_.size()) - 1;
    }

    void setEnd(long id, std::uint64_t end) { at(id).end = end; }

    void
    attachProfile(long id, const sim::Profiler::Data &data)
    {
        at(id).profile = data;
    }

    /** Write the bfgts-bench-spans-v1 document. */
    bool
    write(const std::string &path, const std::string &workload,
          std::uint64_t seed) const
    {
        std::vector<std::uint64_t> child_ns(spans_.size(), 0);
        for (const Span &span : spans_) {
            if (span.parent >= 0)
                child_ns[static_cast<std::size_t>(span.parent)] +=
                    span.end - span.start;
        }
        const std::uint64_t origin = spans_.empty() ? 0 : spans_[0].start;
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        sim::JsonWriter jw(out);
        jw.beginObject();
        jw.kv("schema", "bfgts-bench-spans-v1");
        jw.kv("workload", workload);
        jw.kv("seed", seed);
        jw.beginArray("spans");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &span = spans_[i];
            const std::uint64_t dur = span.end - span.start;
            jw.beginObject();
            jw.kv("id", static_cast<std::int64_t>(i));
            jw.kv("parent", static_cast<std::int64_t>(span.parent));
            jw.kv("name", span.name);
            jw.kv("cell", span.cell);
            jw.kv("startNs", span.start - origin);
            jw.kv("endNs", span.end - origin);
            jw.kv("selfNs", dur > child_ns[i] ? dur - child_ns[i] : 0);
            if (span.profile) {
                jw.beginObject("profile");
                span.profile->writeJson(jw);
                jw.endObject();
            }
            jw.endObject();
        }
        jw.endArray();
        jw.endObject();
        out << "\n";
        return static_cast<bool>(out.flush());
    }

  private:
    struct Span {
        long parent;
        const char *name;
        std::string cell;
        std::uint64_t start;
        std::uint64_t end;
        std::optional<sim::Profiler::Data> profile;
    };

    Span &at(long id) { return spans_.at(static_cast<std::size_t>(id)); }

    std::vector<Span> spans_;
};

const sim::JsonValue *
jsonPath(const sim::JsonValue *v, std::initializer_list<const char *> keys)
{
    for (const char *key : keys) {
        if (v == nullptr || !v->isObject())
            return nullptr;
        v = v->find(key);
    }
    return v;
}

std::uint64_t
jsonU64(const sim::JsonValue *v)
{
    std::uint64_t out = 0;
    if (v != nullptr)
        v->asU64(&out);
    return out;
}

/** Per-layer measurements of the traced pass, summed over its cells. */
struct Layers {
    std::array<std::uint64_t, sim::Profiler::kNumPhases> phaseNs{};
    std::array<std::uint64_t, sim::Profiler::kNumPhases> phaseCalls{};
    /** High-water over cells. */
    std::array<std::uint64_t, sim::Profiler::kNumStructures> structBytes{};
    /** Profiled run-loop time, and the part no phase claimed. */
    std::uint64_t loopNs = 0;
    std::uint64_t otherNs = 0;
    std::uint64_t events = 0;

    std::uint64_t configNs = 0;
    std::uint64_t ctorNs = 0;
    std::uint64_t runNs = 0;
    std::uint64_t reportNs = 0;
    std::uint64_t sweepColdNs = 0;
    std::uint64_t sweepWarmNs = 0;
    std::uint64_t sweepCacheHits = 0;

    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t serializations = 0;
    std::uint64_t truePositives = 0;
    std::uint64_t falsePositives = 0;

    // From dumpStatsJson; SweepRunner returns no stats, so these stay
    // 0 on the sweep workload.
    std::uint64_t nackRetries = 0;
    std::uint64_t predictions = 0;
    std::uint64_t refetches = 0;
    std::uint64_t cpuTableUpdates = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t similarityUpdates = 0;

    void
    addProfile(const sim::Profiler::Data &data)
    {
        for (std::size_t p = 0; p < phaseNs.size(); ++p) {
            phaseNs[p] += data.phaseNs[p];
            phaseCalls[p] += data.phaseCalls[p];
        }
        for (std::size_t s = 0; s < structBytes.size(); ++s)
            structBytes[s] = std::max(structBytes[s], data.structBytes[s]);
        loopNs += data.wallNs;
        otherNs += data.otherNs();
        events += data.events;
    }

    void
    addResults(const runner::SimResults &r)
    {
        commits += r.commits;
        aborts += r.aborts;
        serializations += r.serializations;
        truePositives += r.prediction.truePositives;
        falsePositives += r.prediction.falsePositives;
    }

    void
    addStats(const std::string &stats_json)
    {
        sim::JsonValue root;
        std::string error;
        if (!sim::parseJson(stats_json, &root, &error))
            return;
        const sim::JsonValue *stats = root.find("stats");
        l1Hits += jsonU64(jsonPath(stats, {"mem", "l1.hits"}));
        l1Misses += jsonU64(jsonPath(stats, {"mem", "l1.misses"}));
        predictions +=
            jsonU64(jsonPath(stats, {"predictor", "predictions"}));
        refetches +=
            jsonU64(jsonPath(stats, {"predictor", "confCache.refetches"}));
        cpuTableUpdates +=
            jsonU64(jsonPath(stats, {"predictor", "cpuTableUpdates"}));
        preemptions += jsonU64(jsonPath(stats, {"os", "preemptions"}));
        similarityUpdates +=
            jsonU64(jsonPath(stats, {"bfgts", "similarity", "count"}));
        // The histogram reports retries per conflict as count and mean.
        const sim::JsonValue *nack = jsonPath(stats, {"htm", "nackRetries"});
        const sim::JsonValue *mean = jsonPath(nack, {"mean"});
        if (mean != nullptr && mean->isNumber()) {
            nackRetries += static_cast<std::uint64_t>(std::llround(
                static_cast<double>(jsonU64(jsonPath(nack, {"count"})))
                * std::strtod(mean->text.c_str(), nullptr)));
        }
    }
};

/** What the traced pass collects. */
struct Trace {
    Layers layers;
    SpanLog spans;
    /** Id of the pass span, parent of every cell span. */
    long pass = -1;
};

std::string
statsJsonOf(const runner::Simulation &simulation)
{
    std::ostringstream out;
    sim::JsonWriter jw(out, 0);
    jw.beginObject();
    simulation.dumpStatsJson(jw);
    jw.endObject();
    return out.str();
}

/** Run every cell through makeConfig / Simulation / run(). */
void
runDirectPass(const Workload &workload, Checker &checker, Pass &pass,
              Trace *trace)
{
    for (const Cell &cell : workload.cells) {
        sim::Profiler profiler;
        runner::SimResults results;
        std::string stats_json, digest, error;
        // config start, ctor start, run start, report start, end
        std::array<std::uint64_t, 5> t{};
        t[0] = nowNs();
        try {
            runner::SimConfig config =
                runner::makeConfig(cell.workload, cell.cm, cell.options);
            if (cell.signature) {
                config.conflict.detectionMode =
                    htm::DetectionMode::Signature;
                config.conflict.signature.numBits = kSignatureBits;
            }
            if (trace != nullptr)
                config.profiler = &profiler;
            t[1] = nowNs();
            runner::Simulation simulation(config);
            t[2] = nowNs();
            results = simulation.run();
            t[3] = nowNs();
            stats_json = statsJsonOf(simulation);
            digest = digestOf(results, stats_json);
            t[4] = nowNs();
        } catch (const std::exception &e) {
            error = std::string("threw: ") + e.what();
            const std::uint64_t end = nowNs();
            for (std::uint64_t &stamp : t) {
                if (stamp == 0)
                    stamp = end;
            }
        }
        checker.record(cell, digest, results.commits, error);
        pass.units.push_back({t[3] - t[0], t[2] - t[0]});
        pass.cycles += results.runtime;
        if (trace == nullptr)
            continue;
        Layers &layers = trace->layers;
        layers.configNs += t[1] - t[0];
        layers.ctorNs += t[2] - t[1];
        layers.runNs += t[3] - t[2];
        layers.reportNs += t[4] - t[3];
        layers.addProfile(profiler.data());
        layers.addResults(results);
        layers.addStats(stats_json);
        SpanLog &spans = trace->spans;
        const long span = spans.add(trace->pass, "cell", cell.id, t[0], t[4]);
        spans.add(span, "config", cell.id, t[0], t[1]);
        spans.add(span, "ctor", cell.id, t[1], t[2]);
        spans.add(span, "run", cell.id, t[2], t[3]);
        spans.add(span, "report", cell.id, t[3], t[4]);
        spans.attachProfile(span, profiler.data());
    }
}

/** Run the cell list through one SweepRunner, a run() per group (see
 *  Workload::sweep): every group cold into an empty cache directory,
 *  then every group warm from it. Units: the set-up, then each group's
 *  cold run, then each group's warm run. */
void
runSweepPass(const Workload &workload, Checker &checker,
             const std::string &cache_dir, Pass &pass, Trace *trace)
{
    std::filesystem::remove_all(cache_dir);
    // Set-up takes microseconds, so a single timing is mostly clock and
    // cache noise: set up several times and keep the median. The last
    // cell lists and runner are the ones that run.
    std::vector<std::vector<runner::SweepCell>> groups;
    std::optional<runner::SweepRunner> sweep;
    std::vector<double> setups;
    std::uint64_t t0 = 0, t1 = 0, t2 = 0;
    for (int rep = 0; rep < kSweepSetups; ++rep) {
        sweep.reset();
        groups.clear();
        t0 = nowNs();
        const std::string *group_of = nullptr;
        for (const Cell &cell : workload.cells) {
            if (group_of == nullptr || *group_of != cell.workload)
                groups.emplace_back();
            group_of = &cell.workload;
            runner::SweepCell sc;
            sc.workload = cell.workload;
            sc.cm = cell.cm;
            sc.options = cell.options;
            sc.baseline = cell.baseline;
            groups.back().push_back(std::move(sc));
        }
        runner::SweepOptions options;
        options.jobs = kSweepJobs;
        options.cacheDir = cache_dir;
        options.profile = trace != nullptr;
        t1 = nowNs();
        sweep.emplace(options);
        t2 = nowNs();
        setups.push_back(static_cast<double>(t2 - t0));
    }
    const auto setup_ns = static_cast<std::uint64_t>(median(setups));
    pass.units.push_back({setup_ns, setup_ns});

    // Group g ran from cold_at[g] to cold_at[g + 1] (warm_at likewise).
    std::vector<runner::SweepCellResult> cold, warm;
    std::vector<std::uint64_t> cold_at{t2}, warm_at;
    for (const auto &group : groups) {
        for (runner::SweepCellResult &r : sweep->run(group))
            cold.push_back(std::move(r));
        cold_at.push_back(nowNs());
    }
    warm_at.push_back(cold_at.back());
    int warm_hits = 0;
    for (const auto &group : groups) {
        for (runner::SweepCellResult &r : sweep->run(group))
            warm.push_back(std::move(r));
        warm_at.push_back(nowNs());
        warm_hits += sweep->stats().cacheHits;
    }
    for (const auto &at : {cold_at, warm_at}) {
        for (std::size_t g = 0; g + 1 < at.size(); ++g)
            pass.units.push_back({at[g + 1] - at[g], 0});
    }

    for (std::size_t i = 0; i < workload.cells.size(); ++i) {
        const Cell &cell = workload.cells[i];
        const runner::SweepCellResult &c = cold[i];
        const runner::SweepCellResult &w = warm[i];
        checker.record(cell, digestOf(c.results, ""), c.results.commits,
                       !c.ok           ? "threw: " + c.error
                       : c.fromCache ? "cold run served from the cache"
                                       : "");
        checker.record(cell, digestOf(w.results, ""), w.results.commits,
                       !w.ok            ? "threw: " + w.error
                       : !w.fromCache ? "warm run missed the cache"
                                        : "");
        pass.cycles += c.results.runtime;
    }
    const std::uint64_t t3 = warm_at.front();
    const std::uint64_t t4 = warm_at.back();
    const std::uint64_t t5 = nowNs();
    std::filesystem::remove_all(cache_dir);
    if (trace == nullptr)
        return;
    Layers &layers = trace->layers;
    layers.configNs += t1 - t0;
    layers.ctorNs += t2 - t1;
    layers.runNs += t4 - t2;
    layers.reportNs += t5 - t4;
    layers.sweepColdNs += t3 - t2;
    layers.sweepWarmNs += t4 - t3;
    layers.sweepCacheHits += static_cast<std::uint64_t>(warm_hits);
    for (const runner::SweepCellResult &c : cold) {
        if (c.profile)
            layers.addProfile(*c.profile);
        layers.addResults(c.results);
    }
    SpanLog &spans = trace->spans;
    spans.add(trace->pass, "config", "", t0, t1);
    spans.add(trace->pass, "ctor", "", t1, t2);
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const std::string &name = groups[g].front().workload;
        spans.add(trace->pass, "sweep_cold", name, cold_at[g],
                  cold_at[g + 1]);
        spans.add(trace->pass, "sweep_warm", name, warm_at[g],
                  warm_at[g + 1]);
    }
    spans.add(trace->pass, "report", "", t4, t5);
}

struct Settings {
    /** Keep starting passes until this much time has been measured. */
    double seconds = 10.0;
    int minPasses = 3;
    /** Run the traced pass and report per-layer metrics. */
    bool traced = false;
    /** Where the traced pass writes its spans; empty: nowhere. */
    std::string spansPath;
    /** Parent of the sweep workload's scratch cache directories. */
    std::string cacheRoot = ".";
};

struct Metric {
    std::string name;
    double value;
    const char *unit;
};

struct Report {
    std::vector<Metric> metrics;
    /** Digest of every cell, keyed "workload seed cell". */
    DigestMap digests;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool spansWritten = false;
};

double
peakRssMb()
{
    struct rusage usage = {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Profiler phases under their layer (module) names. */
const char *const kLayerNames[sim::Profiler::kNumPhases] = {
    "sim.event_queue", "workloads", "cm.decide", "cm.commit",
    "bloom",           "cpu.predictor", "os",    "mem",
};
static_assert(sim::Profiler::kNumPhases == 8,
              "name every profiler phase in kLayerNames");

void
addLayerMetrics(Report &report, const Layers &l, double traced_wall_ns,
                double wall_ns)
{
    auto add = [&report](std::string name, double value, const char *unit) {
        report.metrics.push_back({std::move(name), value, unit});
    };
    const auto s = [](std::uint64_t ns) {
        return static_cast<double>(ns) / 1e9;
    };
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const double loop = d(l.loopNs);
    for (int p = 0; p < sim::Profiler::kNumPhases; ++p) {
        const auto i = static_cast<std::size_t>(p);
        const std::string layer = kLayerNames[p];
        add(layer + ".self_s", s(l.phaseNs[i]), "s");
        add(layer + ".share", ratio(d(l.phaseNs[i]), loop), "ratio");
        add(layer + ".calls", d(l.phaseCalls[i]), "count");
    }
    add("unattributed.self_s", s(l.otherNs), "s");
    add("unattributed.share", ratio(d(l.otherNs), loop), "ratio");

    add("runner.config_s", s(l.configNs), "s");
    add("runner.ctor_s", s(l.ctorNs), "s");
    add("runner.run_s", s(l.runNs), "s");
    add("runner.report_s", s(l.reportNs), "s");
    add("runner.sweep_cold_s", s(l.sweepColdNs), "s");
    add("runner.sweep_warm_s", s(l.sweepWarmNs), "s");
    add("runner.sweep_cache_hits", d(l.sweepCacheHits), "count");

    add("sim.events", d(l.events), "count");
    add("sim.events_per_tx", ratio(d(l.events), d(l.commits)), "events/tx");
    add("runner.commits", d(l.commits), "count");
    add("htm.abort_ratio", ratio(d(l.aborts), d(l.commits + l.aborts)),
        "ratio");
    add("htm.nack_retries", d(l.nackRetries), "count");
    add("cm.serializations", d(l.serializations), "count");
    add("cm.stall_precision",
        ratio(d(l.truePositives), d(l.truePositives + l.falsePositives)),
        "ratio");
    add("cpu.predictions", d(l.predictions), "count");
    add("cpu.refetches", d(l.refetches), "count");
    add("cpu.cputable_updates", d(l.cpuTableUpdates), "count");
    add("mem.l1_hit_ratio", ratio(d(l.l1Hits), d(l.l1Hits + l.l1Misses)),
        "ratio");
    add("os.preemptions", d(l.preemptions), "count");
    add("bloom.similarity_updates", d(l.similarityUpdates), "count");

    using P = sim::Profiler;
    add("bloom.signature_bytes", d(l.structBytes[P::kBloomSignatures]), "B");
    add("cpu.predictor_cache_bytes", d(l.structBytes[P::kPredictorCaches]),
        "B");
    add("cm.confidence_table_bytes",
        d(l.structBytes[P::kConfidenceTables]), "B");
    add("sim.event_queue_bytes", d(l.structBytes[P::kStructEventQueue]),
        "B");

    add("trace.overhead_ratio", ratio(traced_wall_ns, wall_ns), "ratio");
}

double
passWallNs(const Pass &pass)
{
    double total = 0.0;
    for (const Unit &unit : pass.units)
        total += static_cast<double>(unit.wallNs);
    return total;
}

/** Warm up, run timed passes, then (traced) one profiled pass. */
Report
measure(const Workload &workload, std::uint64_t seed,
        const Settings &settings, const DigestMap &golden)
{
    Checker checker(golden,
                    workload.name + " " + std::to_string(seed) + " ");
    const std::string cache_dir =
        settings.cacheRoot + "/bfgts_bench_cache."
        + std::to_string(static_cast<long>(getpid()));
    auto run_pass = [&](const Workload &w, Trace *trace) {
        Pass pass;
        if (w.sweep)
            runSweepPass(w, checker, cache_dir, pass, trace);
        else
            runDirectPass(w, checker, pass, trace);
        return pass;
    };

    Workload first = workload;
    first.cells.resize(1);
    run_pass(first, nullptr);

    std::vector<Pass> passes;
    const std::uint64_t start = nowNs();
    while (static_cast<int>(passes.size()) < settings.minPasses
           || static_cast<double>(nowNs() - start)
                  < settings.seconds * 1e9) {
        passes.push_back(run_pass(workload, nullptr));
    }

    // Each unit's median over the passes, summed: the median pass,
    // robust to a disturbance that hits one cell of one pass.
    double wall_ns = 0.0;
    double setup_ns = 0.0;
    for (std::size_t u = 0; u < passes[0].units.size(); ++u) {
        std::vector<double> walls, setups;
        for (const Pass &pass : passes) {
            walls.push_back(static_cast<double>(pass.units[u].wallNs));
            setups.push_back(static_cast<double>(pass.units[u].setupNs));
        }
        wall_ns += median(walls);
        setup_ns += median(setups);
    }
    std::vector<double> pass_walls;
    for (const Pass &pass : passes)
        pass_walls.push_back(passWallNs(pass) / 1e9);

    Report report;
    auto add = [&report](const char *name, double value, const char *unit) {
        report.metrics.push_back({name, value, unit});
    };
    add("wall_s", wall_ns / 1e9, "s");
    add("wall_s_q1", quantile(pass_walls, 0.25), "s");
    add("wall_s_q3", quantile(pass_walls, 0.75), "s");
    add("passes", static_cast<double>(passes.size()), "count");
    add("ns_per_cycle",
        ratio(wall_ns, static_cast<double>(passes[0].cycles)), "ns/cycle");
    add("setup_s", setup_ns / 1e9, "s");
    add("peak_rss_mb", peakRssMb(), "MB");

    if (settings.traced) {
        Trace trace;
        const std::uint64_t t0 = nowNs();
        trace.pass = trace.spans.add(-1, "pass", "", t0, t0);
        const Pass traced = run_pass(workload, &trace);
        trace.spans.setEnd(trace.pass, nowNs());
        addLayerMetrics(report, trace.layers, passWallNs(traced), wall_ns);
        if (!settings.spansPath.empty()) {
            report.spansWritten =
                trace.spans.write(settings.spansPath, workload.name, seed);
            if (!report.spansWritten) {
                std::fprintf(stderr, "bfgts_bench: cannot write %s\n",
                             settings.spansPath.c_str());
            }
        }
    }

    report.attempted = checker.attempted();
    report.failed = checker.failed();
    report.digests = checker.digests();
    add("cells_attempted", static_cast<double>(report.attempted), "count");
    add("cells_failed",
        ratio(static_cast<double>(report.failed),
              static_cast<double>(report.attempted)),
        "ratio");
    add("cells_failed_count", static_cast<double>(report.failed), "count");
    return report;
}

void
printReport(const std::string &workload, const Report &report)
{
    for (const Metric &m : report.metrics) {
        std::printf("%s %s %s %s\n", workload.c_str(), m.name.c_str(),
                    sim::jsonNumber(m.value).c_str(), m.unit);
    }
    std::fflush(stdout);
}

// ---- self-test --------------------------------------------------------

/** Names listed under @p key (an array of {"name": ...}) in the
 *  benchmark definition. */
std::vector<std::string>
specNames(const sim::JsonValue &spec, const char *key)
{
    std::vector<std::string> names;
    const sim::JsonValue *list = spec.find(key);
    if (list == nullptr || !list->isArray())
        return names;
    for (const sim::JsonValue &item : list->items) {
        const sim::JsonValue *name = jsonPath(&item, {"name"});
        if (name != nullptr && name->isString())
            names.push_back(name->text);
    }
    return names;
}

bool
containsAll(const Report &report, const std::vector<std::string> &names,
            std::string *missing)
{
    std::set<std::string> have;
    for (const Metric &m : report.metrics)
        have.insert(m.name);
    for (const std::string &name : names) {
        if (have.count(name) == 0) {
            *missing = name;
            return false;
        }
    }
    return true;
}

/** Tiny cells covering both pass kinds, Signature mode and BFGTS. */
int
selftest(const std::string &benchmark_json)
{
    using cm::CmKind;
    Workload direct;
    direct.name = "selftest";
    direct.cells.push_back(stampCell("Intruder", CmKind::BfgtsHw, 2, 2, 3, 1));
    direct.cells.push_back(stampCell("Genome", CmKind::Backoff, 2, 2, 3, 1));
    direct.cells.back().signature = true;
    direct.cells.back().id += "/sig";
    Workload sweep;
    sweep.name = "selftest_sweep";
    sweep.sweep = true;
    sweep.cells.push_back(stampCell("Kmeans", CmKind::BfgtsHw, 2, 2, 3, 1));
    sweep.cells.push_back(stampCell("Kmeans", CmKind::Pts, 2, 2, 3, 1));

    Settings quick;
    quick.seconds = 0.0;
    quick.minPasses = 1;
    Settings traced = quick;
    traced.traced = true;

    int failures = 0;
    auto expect = [&failures](bool ok, const std::string &what) {
        std::printf("selftest: %s: %s\n", ok ? "ok" : "FAIL", what.c_str());
        if (!ok)
            ++failures;
    };

    const Report a = measure(direct, 1, quick, {});
    const Report b = measure(direct, 1, quick, {});
    expect(a.failed == 0 && b.failed == 0 && !a.digests.empty()
               && a.digests == b.digests,
           "two in-process runs give equal digests");

    // Flip a cell the warm-up does not run, so exactly one run fails.
    DigestMap flipped = a.digests;
    std::string &victim = flipped["selftest 1 " + direct.cells.back().id];
    victim[0] = victim[0] == '0' ? '1' : '0';
    const Report c = measure(direct, 1, quick, flipped);
    expect(c.failed == 1,
           "one flipped golden byte gives cells_failed = 1 (got "
               + std::to_string(c.failed) + ")");

    const Report d = measure(direct, 1, traced, a.digests);
    const Report e = measure(sweep, 1, traced, {});
    expect(d.failed == 0 && d.digests == a.digests && e.failed == 0,
           "traced and untraced passes give equal digests");

    sim::JsonValue spec;
    std::string error;
    if (!readJsonFile(benchmark_json, &spec, &error) || !spec.isObject()) {
        expect(false, "read BENCHMARK.json: " + error);
        return 1;
    }
    std::string missing;
    bool named = true;
    for (const Report *r : {&a, &d, &e})
        named = named && containsAll(*r, specNames(spec, "end_to_end"),
                                     &missing);
    for (const Report *r : {&d, &e})
        named = named && containsAll(*r, specNames(spec, "per_layer"),
                                     &missing);
    for (const std::string &name : specNames(spec, "workloads")) {
        if (!makeWorkload(name, 1)) {
            named = false;
            missing = "workload " + name;
        }
    }
    expect(named, "every metric and workload in BENCHMARK.json is produced"
                      + (named ? std::string() : " (missing " + missing + ")"));
    return failures == 0 ? 0 : 1;
}

// ---- command line ---------------------------------------------------

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --workload NAME --seed N [--seconds S] [--golden FILE]\n"
        "          [--trace-dir DIR] [--cache-root DIR]\n"
        "       %s --workload NAME --seed N --write-golden FILE\n"
        "       %s --selftest --benchmark-json FILE\n"
        "workloads:",
        argv0, argv0, argv0);
    for (const char *name : kWorkloadNames)
        std::fprintf(stderr, " %s", name);
    std::fprintf(stderr, "\n");
}

bool
parseU64(const std::string &text, std::uint64_t *out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
    return !text.empty() && ec == std::errc() && ptr == end;
}

bool
parseSeconds(const std::string &text, double *out)
{
    char *end = nullptr;
    *out = std::strtod(text.c_str(), &end);
    return !text.empty() && end == text.c_str() + text.size()
        && std::isfinite(*out) && *out >= 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    // A benchmark run measures the default configuration: audit mode,
    // a non-default signature kernel or hash seed, or a shared sweep
    // cache would change the cost being measured.
    for (const char *var : {"BFGTS_AUDIT", "BFGTS_SIG_IMPL",
                            "BFGTS_HASH_SEED", "BFGTS_SWEEP_CACHE"}) {
        if (std::getenv(var) != nullptr) {
            std::fprintf(stderr,
                         "%s: %s is set; unset it, the benchmark measures "
                         "the default configuration\n",
                         argv[0], var);
            return 2;
        }
    }

    std::string workload_name, seed_text, golden_path, write_golden;
    std::string benchmark_json;
    Settings settings;
    std::string trace_dir;
    bool selftest_mode = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--selftest") {
            selftest_mode = true;
        } else if (arg == "--workload" && has_value) {
            workload_name = argv[++i];
        } else if (arg == "--seed" && has_value) {
            seed_text = argv[++i];
        } else if (arg == "--seconds" && has_value) {
            if (!parseSeconds(argv[++i], &settings.seconds)) {
                std::fprintf(stderr, "%s: bad --seconds '%s'\n", argv[0],
                             argv[i]);
                usage(argv[0]);
                return 2;
            }
        } else if (arg == "--golden" && has_value) {
            golden_path = argv[++i];
        } else if (arg == "--write-golden" && has_value) {
            write_golden = argv[++i];
        } else if (arg == "--trace-dir" && has_value) {
            trace_dir = argv[++i];
        } else if (arg == "--cache-root" && has_value) {
            settings.cacheRoot = argv[++i];
        } else if (arg == "--benchmark-json" && has_value) {
            benchmark_json = argv[++i];
        } else {
            std::fprintf(stderr, "%s: unknown or incomplete argument '%s'\n",
                         argv[0], arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (selftest_mode) {
        if (benchmark_json.empty()) {
            usage(argv[0]);
            return 2;
        }
        return selftest(benchmark_json);
    }

    std::uint64_t seed = 0;
    if (!parseU64(seed_text, &seed)) {
        std::fprintf(stderr, "%s: --seed needs a non-negative integer, "
                             "got '%s'\n",
                     argv[0], seed_text.c_str());
        usage(argv[0]);
        return 2;
    }
    const std::optional<Workload> workload =
        makeWorkload(workload_name, seed);
    if (!workload) {
        std::fprintf(stderr, "%s: unknown workload '%s'\n", argv[0],
                     workload_name.c_str());
        usage(argv[0]);
        return 2;
    }

    if (!write_golden.empty()) {
        DigestMap golden;
        std::string error;
        if (std::filesystem::exists(write_golden)
            && !readGolden(write_golden, &golden, &error)) {
            std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
            return 1;
        }
        Settings once = settings;
        once.seconds = 0.0;
        once.minPasses = 1;
        const Report report = measure(*workload, seed, once, {});
        if (report.failed != 0)
            return 1;
        for (const auto &[key, digest] : report.digests)
            golden[key] = digest;
        if (!writeGolden(write_golden, golden)) {
            std::fprintf(stderr, "%s: cannot write %s\n", argv[0],
                         write_golden.c_str());
            return 1;
        }
        std::printf("%s seed %llu: %zu digests written to %s\n",
                    workload->name.c_str(),
                    static_cast<unsigned long long>(seed),
                    report.digests.size(), write_golden.c_str());
        return 0;
    }

    DigestMap golden;
    if (!golden_path.empty()) {
        std::string error;
        if (!readGolden(golden_path, &golden, &error)) {
            std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
            return 1;
        }
    }
    if (!trace_dir.empty()) {
        settings.traced = true;
        std::error_code ec;
        std::filesystem::create_directories(trace_dir, ec);
        settings.spansPath = trace_dir + "/spans-" + workload->name + "-seed"
                           + std::to_string(seed) + ".json";
    }
    const Report report = measure(*workload, seed, settings, golden);
    printReport(workload->name, report);
    if (report.spansWritten)
        std::fprintf(stderr, "spans: %s\n", settings.spansPath.c_str());
    return report.failed == 0 && (!settings.traced || report.spansWritten)
               ? 0
               : 1;
}
