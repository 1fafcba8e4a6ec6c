#include "sweep.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include <unistd.h>

#include "sim/audit.h"
#include "sim/json.h"
#include "sim/thread_pool.h"

namespace runner {

namespace {

/** FNV-1a 64 over @p s as 16 hex digits: the cache file name. */
std::string
sweepDigestHex(const std::string &s)
{
    std::uint64_t hash = 1469598103934665603ULL;
    for (const char c : s) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

void
appendBloom(std::ostream &os, const bloom::BloomConfig &bloom)
{
    os << bloom.numBits << ',' << bloom.numHashes << ',' << bloom.seed
       << ',' << bloom.partitioned;
}

/** Every tunable that can change a cell's results, in fixed order. */
void
appendTuning(std::ostream &os, const cm::CmTuning &t)
{
    const auto num = [](double v) { return sim::jsonNumber(v); };
    os << "|backoff=" << t.backoff.baseWindow << ','
       << t.backoff.maxExponent;
    os << "|ats=" << num(t.ats.alpha) << ',' << num(t.ats.threshold)
       << ',' << t.ats.dynamicThreshold << ',' << t.ats.tuningWindow
       << ',' << num(t.ats.tuningStep) << ','
       << num(t.ats.minThreshold) << ',' << num(t.ats.maxThreshold)
       << ',' << t.ats.pressureCheckCost << ',' << t.ats.queueOpCost
       << ',' << t.ats.wakeCost << ',' << t.ats.abortBackoff;
    os << "|pts=";
    appendBloom(os, t.pts.bloom);
    os << ',' << t.pts.confThreshold << ',' << num(t.pts.incVal) << ','
       << num(t.pts.decVal) << ',' << num(t.pts.suspendDecay) << ','
       << num(t.pts.smallTxLines) << ',' << t.pts.scanBaseCost << ','
       << t.pts.scanPerEntryCost << ',' << t.pts.commitBaseCost << ','
       << t.pts.perWordCycle << ',' << t.pts.conflictCost << ','
       << t.pts.abortBackoff;
    os << "|bfgts=";
    appendBloom(os, t.bfgts.bloom);
    os << ',' << t.bfgts.confThreshold << ',' << num(t.bfgts.incVal)
       << ',' << num(t.bfgts.decayVal) << ','
       << num(t.bfgts.initialSimilarity) << ','
       << t.bfgts.confTableSlots << ',' << t.bfgts.similarityWeighting
       << ',' << num(t.bfgts.smallTxLines) << ','
       << t.bfgts.smallTxInterval << ',' << num(t.bfgts.pressureAlpha)
       << ',' << num(t.bfgts.pressureThreshold) << ','
       << t.bfgts.abortBackoff << ',' << t.bfgts.swScanBase << ','
       << t.bfgts.swScanPerEntry << ',' << t.bfgts.suspendCost << ','
       << t.bfgts.conflictCost << ',' << t.bfgts.commitBase << ','
       << t.bfgts.perWordCycle << ',' << t.bfgts.bloomPasses << ','
       << t.bfgts.fyl2xCost << ',' << t.bfgts.mathTailCost << ','
       << t.bfgts.pressureCheckCost;
}

// ---- cache file body (de)serialization -------------------------------

constexpr const char *kCacheMagic = "bfgts-sweep-cache-v1";

void
writeString(std::ostream &os, const char *key, const std::string &s)
{
    os << key << ' ' << s.size() << ' ' << s << '\n';
}

bool
readString(std::istream &is, const char *key, std::string *out)
{
    std::string token;
    std::size_t length = 0;
    if (!(is >> token) || token != key || !(is >> length))
        return false;
    if (is.get() != ' ')
        return false;
    out->resize(length);
    is.read(out->data(), static_cast<std::streamsize>(length));
    return static_cast<std::size_t>(is.gcount()) == length;
}

bool
expectToken(std::istream &is, const char *key)
{
    std::string token;
    return static_cast<bool>(is >> token) && token == key;
}

bool
readU64(std::istream &is, std::uint64_t *out)
{
    unsigned long long value = 0;
    if (!(is >> value))
        return false;
    *out = value;
    return true;
}

/** Shortest-round-trip doubles (sim::jsonNumber) parse back exactly
 *  with strtod; stream extraction would be locale-shaped. */
bool
readDouble(std::istream &is, double *out)
{
    std::string token;
    if (!(is >> token))
        return false;
    char *end = nullptr;
    *out = std::strtod(token.c_str(), &end);
    return end != nullptr && *end == '\0' && end != token.c_str();
}

} // namespace

void
writeSweepResults(std::ostream &os, const SimResults &r)
{
    const auto num = [](double v) { return sim::jsonNumber(v); };
    writeString(os, "workload", r.workload);
    writeString(os, "cm", r.cm);
    os << "runtime " << r.runtime << '\n';
    os << "commits " << r.commits << '\n';
    os << "aborts " << r.aborts << '\n';
    os << "conflicts " << r.conflicts << '\n';
    os << "serializations " << r.serializations << '\n';
    os << "stallTimeouts " << r.stallTimeouts << '\n';
    os << "contentionRate " << num(r.contentionRate) << '\n';
    const Breakdown &b = r.breakdown;
    os << "breakdown " << b.nonTx << ' ' << b.kernel << ' ' << b.tx
       << ' ' << b.aborted << ' ' << b.sched << ' ' << b.idle << '\n';
    const PredictionQuality &p = r.prediction;
    os << "prediction " << p.predictedStalls << ' ' << p.truePositives
       << ' ' << p.falsePositives << ' ' << p.falseNegatives << ' '
       << p.predictedAborts << ' ' << p.trueNegatives << '\n';
    os << "similarity " << r.similarityPerSite.size();
    for (const double similarity : r.similarityPerSite)
        os << ' ' << num(similarity);
    os << '\n';
    os << "conflictGraph " << r.conflictGraph.size();
    for (const auto &[a, b2] : r.conflictGraph)
        os << ' ' << a << ' ' << b2;
    os << '\n';
    os << "abortPairs " << r.abortPairs.size();
    for (const auto &[pair, count] : r.abortPairs)
        os << ' ' << pair.first << ' ' << pair.second << ' ' << count;
    os << '\n';
    os << "abortEdges " << r.abortEdges.size();
    for (const auto &[pair, stats] : r.abortEdges) {
        os << ' ' << pair.first << ' ' << pair.second << ' '
           << stats.aborts << ' ' << stats.wastedCycles;
    }
    os << '\n';
    os << "serializationEdges " << r.serializationEdges.size();
    for (const auto &[pair, count] : r.serializationEdges)
        os << ' ' << pair.first << ' ' << pair.second << ' ' << count;
    os << '\n';
    os << "end\n";
}

bool
readSweepResults(std::istream &is, SimResults *r)
{
    if (!readString(is, "workload", &r->workload)
        || !readString(is, "cm", &r->cm)) {
        return false;
    }
    std::uint64_t runtime = 0;
    if (!expectToken(is, "runtime") || !readU64(is, &runtime))
        return false;
    r->runtime = runtime;
    if (!expectToken(is, "commits") || !readU64(is, &r->commits))
        return false;
    if (!expectToken(is, "aborts") || !readU64(is, &r->aborts))
        return false;
    if (!expectToken(is, "conflicts") || !readU64(is, &r->conflicts))
        return false;
    if (!expectToken(is, "serializations")
        || !readU64(is, &r->serializations)) {
        return false;
    }
    if (!expectToken(is, "stallTimeouts")
        || !readU64(is, &r->stallTimeouts)) {
        return false;
    }
    if (!expectToken(is, "contentionRate")
        || !readDouble(is, &r->contentionRate)) {
        return false;
    }
    Breakdown &b = r->breakdown;
    std::uint64_t cycles[6];
    if (!expectToken(is, "breakdown"))
        return false;
    for (std::uint64_t &value : cycles) {
        if (!readU64(is, &value))
            return false;
    }
    b.nonTx = cycles[0];
    b.kernel = cycles[1];
    b.tx = cycles[2];
    b.aborted = cycles[3];
    b.sched = cycles[4];
    b.idle = cycles[5];
    PredictionQuality &p = r->prediction;
    if (!expectToken(is, "prediction")
        || !readU64(is, &p.predictedStalls)
        || !readU64(is, &p.truePositives)
        || !readU64(is, &p.falsePositives)
        || !readU64(is, &p.falseNegatives)
        || !readU64(is, &p.predictedAborts)
        || !readU64(is, &p.trueNegatives)) {
        return false;
    }
    std::uint64_t count = 0;
    if (!expectToken(is, "similarity") || !readU64(is, &count))
        return false;
    r->similarityPerSite.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
        double similarity = 0.0;
        if (!readDouble(is, &similarity))
            return false;
        r->similarityPerSite.push_back(similarity);
    }
    if (!expectToken(is, "conflictGraph") || !readU64(is, &count))
        return false;
    r->conflictGraph.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
        int a = 0, b2 = 0;
        if (!(is >> a >> b2))
            return false;
        r->conflictGraph.emplace(a, b2);
    }
    if (!expectToken(is, "abortPairs") || !readU64(is, &count))
        return false;
    r->abortPairs.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
        int a = 0, b2 = 0;
        std::uint64_t pairs = 0;
        if (!(is >> a >> b2) || !readU64(is, &pairs))
            return false;
        r->abortPairs[{a, b2}] = pairs;
    }
    if (!expectToken(is, "abortEdges") || !readU64(is, &count))
        return false;
    r->abortEdges.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
        int a = 0, b2 = 0;
        ConflictEdgeStats stats;
        std::uint64_t wasted = 0;
        if (!(is >> a >> b2) || !readU64(is, &stats.aborts)
            || !readU64(is, &wasted)) {
            return false;
        }
        stats.wastedCycles = wasted;
        r->abortEdges[{a, b2}] = stats;
    }
    if (!expectToken(is, "serializationEdges") || !readU64(is, &count))
        return false;
    r->serializationEdges.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
        int a = 0, b2 = 0;
        std::uint64_t edges = 0;
        if (!(is >> a >> b2) || !readU64(is, &edges))
            return false;
        r->serializationEdges[{a, b2}] = edges;
    }
    return expectToken(is, "end");
}

// ---- SweepRunner -----------------------------------------------------

SweepRunner::SweepRunner(SweepOptions options)
    : options_(std::move(options))
{
}

std::string
SweepRunner::cellLabel(const SweepCell &cell)
{
    if (!cell.label.empty())
        return cell.label;
    if (cell.custom)
        return "custom";
    if (cell.baseline)
        return cell.workload + "/baseline";
    return cell.workload + "/" + cm::cmKindName(cell.cm)
         + " seed=" + std::to_string(cell.options.seed);
}

std::string
SweepRunner::cellKey(const SweepCell &cell)
{
    const RunOptions &o = cell.options;
    std::ostringstream key;
    key << "bfgts-sweep-key-v1";
    key << "|workload=" << cell.workload;
    key << "|cm=" << (cell.baseline ? "baseline"
                                    : cm::cmKindName(cell.cm));
    key << "|cpus=" << o.numCpus << "|tpc=" << o.threadsPerCpu
        << "|seed=" << o.seed << "|tx=" << o.txPerThread
        << "|bloomBits=" << o.bloomBits
        << "|interval=" << o.smallTxInterval
        // Effective audit mode: results are byte-identical either
        // way, but a warm cache must never silently satisfy a
        // checked run without executing the checks.
        << "|audit=" << (o.audit || sim::auditEnvEnabled() ? 1 : 0);
    appendTuning(key, o.tuning);
    key << "|git=" << sim::buildGitDescribe();
    return key.str();
}

std::vector<SweepCellResult>
SweepRunner::run(const std::vector<SweepCell> &cells)
{
    cells_ = cells;
    results_.assign(cells.size(), SweepCellResult{});
    stats_ = SweepStats{};
    if (!options_.cacheDir.empty()) {
        std::filesystem::create_directories(options_.cacheDir);
        // The -dirty suffix cannot distinguish successive dirty
        // states, so a warm cache may silently serve results from a
        // *different* uncommitted model. Loud warning, and the report
        // carries gitDirty so a saved report can't hide it.
        if (sim::buildGitDirty()) {
            std::fprintf(stderr,
                         "sweep: WARNING: cache key embeds dirty "
                         "'%s'; cached cells may predate current "
                         "uncommitted changes -- clear %s when "
                         "iterating\n",
                         sim::buildGitDescribe(),
                         options_.cacheDir.c_str());
        }
    }

    sim::ThreadPool pool(options_.jobs);
    std::size_t completed = 0;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        pool.submit([this, i, &completed] {
            runCell(i);
            std::lock_guard<std::mutex> lock(mutex_);
            ++completed;
            progressLine(completed, i);
        });
    }
    pool.wait();
    return results_;
}

void
SweepRunner::runCell(std::size_t index)
{
    const SweepCell &cell = cells_[index];
    SweepCellResult &out = results_[index];
    try {
        if (cell.custom) {
            out.results = cell.custom();
        } else {
            const bool cached = !options_.cacheDir.empty();
            const std::string key = cached ? cellKey(cell) : "";
            // Quality sweeps skip cache *reads*: every cell must
            // execute so every cell carries quality data and the
            // report stays byte-identical across --jobs counts and
            // cache temperatures. Cache writes still happen below.
            if (cached && !options_.quality
                && readCache(key, &out.results)) {
                out.ok = true;
                out.fromCache = true;
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.cacheHits;
                return;
            }
            // One profiler/recorder per executed cell (never shared
            // across workers); the Data snapshots are the cell's
            // side channels.
            sim::Profiler prof;
            sim::Profiler *profiler =
                options_.profile ? &prof : nullptr;
            sim::QualityRecorder qual;
            sim::QualityRecorder *quality =
                options_.quality ? &qual : nullptr;
            out.results =
                cell.baseline
                    ? runSingleCoreBaseline(cell.workload,
                                            cell.options, profiler,
                                            quality)
                    : runStamp(cell.workload, cell.cm, cell.options,
                               profiler, quality);
            if (profiler != nullptr)
                out.profile = prof.data();
            if (quality != nullptr)
                out.quality = qual.data();
            if (cached && writeCache(key, index, out.results)) {
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.cacheRaces;
            }
        }
        out.ok = true;
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.executed;
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.errors;
    } catch (...) {
        out.ok = false;
        out.error = "unknown exception";
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.errors;
    }
}

void
SweepRunner::progressLine(std::size_t completed, std::size_t index)
{
    if (options_.progress == nullptr)
        return;
    const SweepCellResult &result = results_[index];
    std::ostream &os = *options_.progress;
    os << '[' << completed << '/' << cells_.size() << "] "
       << cellLabel(cells_[index]);
    if (!result.ok) {
        os << ": ERROR: " << result.error;
    } else {
        os << ": " << result.results.runtime << " ticks";
        if (result.fromCache)
            os << " (cached)";
    }
    os << std::endl;
}

std::string
SweepRunner::cachePath(const std::string &key) const
{
    return options_.cacheDir + "/" + sweepDigestHex(key) + ".cell";
}

bool
SweepRunner::readCache(const std::string &key,
                       SimResults *results) const
{
    std::ifstream is(cachePath(key));
    if (!is)
        return false;
    std::string magic;
    if (!std::getline(is, magic) || magic != kCacheMagic)
        return false;
    // Digest-collision / stale-entry guard: the stored key must match
    // the full configuration string, not just its hash.
    std::string stored;
    if (!readString(is, "key", &stored) || stored != key)
        return false;
    return readSweepResults(is, results);
}

bool
SweepRunner::writeCache(const std::string &key, std::size_t index,
                        const SimResults &results) const
{
    // Write to a temp file unique across processes AND jobs (two
    // --sweep processes may share one cache directory), then rename:
    // every writer lands a complete file and the last rename wins.
    // Writers of the same key produce identical bytes, so losing the
    // race is harmless; it is only counted (SweepStats::cacheRaces).
    const std::string path = cachePath(key);
    const std::string tmp = path + ".tmp." + std::to_string(getpid())
                            + "." + std::to_string(index);
    {
        std::ofstream os(tmp);
        if (!os)
            return false; // cache is best-effort; the results stand
        os << kCacheMagic << '\n';
        writeString(os, "key", key);
        writeSweepResults(os, results);
        if (!os)
            return false;
    }
    std::error_code ec;
    const bool raced = std::filesystem::exists(path, ec);
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        std::filesystem::remove(tmp, ec);
    return raced;
}

namespace {

/** The fixed `bfgts-sweep-v1` header members, schema through
 *  cellCount. */
void
writeSweepReportPreamble(sim::JsonWriter &jw, const std::string &name,
                         std::uint64_t cellCount)
{
    jw.kv("schema", "bfgts-sweep-v1");
    jw.kv("kind", "sweep");
    jw.kv("name", name);
    jw.kv("git", sim::buildGitDescribe());
    jw.kv("gitDirty", sim::buildGitDirty());
    jw.kv("cellCount", cellCount);
}

/** One cell object of the `bfgts-sweep-v1` cells array. */
void
writeSweepCellJson(sim::JsonWriter &jw, const SweepCell &cell,
                   const SweepCellResult &result)
{
    jw.beginObject();
    jw.kv("label", SweepRunner::cellLabel(cell));
    jw.kv("workload", cell.workload);
    jw.kv("cm", cm::cmKindName(cell.cm));
    jw.kv("baseline", cell.baseline);
    jw.kv("cpus", cell.options.numCpus);
    jw.kv("threadsPerCpu", cell.options.threadsPerCpu);
    jw.kv("seed", cell.options.seed);
    jw.kv("txPerThread", cell.options.txPerThread);
    jw.kv("bloomBits", cell.options.bloomBits);
    jw.kv("smallTxInterval", cell.options.smallTxInterval);
    jw.kv("ok", result.ok);
    if (!result.ok) {
        jw.kv("error", result.error);
    } else {
        const SimResults &r = result.results;
        jw.kv("runtime", static_cast<std::uint64_t>(r.runtime));
        jw.kv("commits", r.commits);
        jw.kv("aborts", r.aborts);
        jw.kv("conflicts", r.conflicts);
        jw.kv("serializations", r.serializations);
        jw.kv("stallTimeouts", r.stallTimeouts);
        jw.kv("contentionRate", r.contentionRate);
        const Breakdown &b = r.breakdown;
        jw.beginObject("breakdown");
        jw.kv("nonTx", static_cast<std::uint64_t>(b.nonTx));
        jw.kv("kernel", static_cast<std::uint64_t>(b.kernel));
        jw.kv("tx", static_cast<std::uint64_t>(b.tx));
        jw.kv("aborted", static_cast<std::uint64_t>(b.aborted));
        jw.kv("sched", static_cast<std::uint64_t>(b.sched));
        jw.kv("idle", static_cast<std::uint64_t>(b.idle));
        jw.endObject();
    }
    jw.endObject();
}

} // namespace

void
SweepRunner::writeReport(std::ostream &os,
                         const std::string &name) const
{
    sim::JsonWriter jw(os);
    jw.beginObject();
    writeSweepReportPreamble(jw, name,
                             static_cast<std::uint64_t>(
                                 cells_.size()));
    jw.beginArray("cells");
    for (std::size_t i = 0; i < cells_.size(); ++i)
        writeSweepCellJson(jw, cells_[i], results_[i]);
    jw.endArray();
    jw.endObject();
}

void
SweepRunner::writeProfileReport(std::ostream &os,
                                const std::string &name) const
{
    std::vector<double> wall_ns_per_cycle;
    std::vector<double> events_per_sec;
    std::vector<double> wall_ns;
    for (const SweepCellResult &result : results_) {
        if (!result.profile.has_value())
            continue;
        wall_ns_per_cycle.push_back(result.profile->wallNsPerCycle());
        events_per_sec.push_back(result.profile->eventsPerSec());
        wall_ns.push_back(static_cast<double>(result.profile->wallNs));
    }
    const auto agg = [](sim::JsonWriter &jw, const char *key,
                        const sim::MinMedMax &m) {
        jw.beginObject(key);
        jw.kv("min", m.min);
        jw.kv("median", m.median);
        jw.kv("max", m.max);
        jw.endObject();
    };

    sim::JsonWriter jw(os);
    jw.beginObject();
    jw.kv("schema", "bfgts-prof-v1");
    jw.kv("kind", "sweep");
    jw.kv("name", name);
    jw.kv("git", sim::buildGitDescribe());
    jw.kv("cellCount", static_cast<std::uint64_t>(cells_.size()));
    jw.kv("profiledCells",
          static_cast<std::uint64_t>(wall_ns.size()));
    jw.beginArray("cells");
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        const SweepCellResult &result = results_[i];
        if (!result.profile.has_value())
            continue;
        jw.beginObject();
        jw.kv("label", cellLabel(cells_[i]));
        jw.beginObject("run");
        result.profile->writeJson(jw);
        jw.endObject();
        jw.endObject();
    }
    jw.endArray();
    jw.beginObject("aggregate");
    agg(jw, "wallNsPerCycle", sim::minMedianMax(wall_ns_per_cycle));
    agg(jw, "eventsPerSec", sim::minMedianMax(events_per_sec));
    agg(jw, "wallNs", sim::minMedianMax(wall_ns));
    jw.endObject();
    jw.endObject();
    os << "\n";
}

void
SweepRunner::writeQualityReport(std::ostream &os,
                                const std::string &name) const
{
    std::vector<double> brier;
    std::vector<double> eq2_mean_abs;
    std::vector<double> eq3_mean_abs;
    std::vector<double> eq4_mean_abs;
    std::vector<double> wasted_stall;
    std::vector<double> saved_abort;
    for (const SweepCellResult &result : results_) {
        if (!result.quality.has_value())
            continue;
        const sim::QualityRecorder::Data &d = *result.quality;
        brier.push_back(d.brierScore());
        eq2_mean_abs.push_back(d.eq2SetSize.meanAbs());
        eq3_mean_abs.push_back(d.eq3Intersection.meanAbs());
        eq4_mean_abs.push_back(d.eq4Similarity.meanAbs());
        wasted_stall.push_back(
            static_cast<double>(d.wastedStallCycles));
        saved_abort.push_back(
            static_cast<double>(d.savedAbortCycles));
    }
    const auto agg = [](sim::JsonWriter &jw, const char *key,
                        const sim::MinMedMax &m) {
        jw.beginObject(key);
        jw.kv("min", m.min);
        jw.kv("median", m.median);
        jw.kv("max", m.max);
        jw.endObject();
    };

    sim::JsonWriter jw(os);
    jw.beginObject();
    jw.kv("schema", "bfgts-qual-v1");
    jw.kv("kind", "sweep");
    jw.kv("name", name);
    jw.kv("git", sim::buildGitDescribe());
    jw.kv("cellCount", static_cast<std::uint64_t>(cells_.size()));
    jw.kv("qualityCells", static_cast<std::uint64_t>(brier.size()));
    jw.beginArray("cells");
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        const SweepCellResult &result = results_[i];
        if (!result.quality.has_value())
            continue;
        jw.beginObject();
        jw.kv("label", cellLabel(cells_[i]));
        jw.beginObject("run");
        result.quality->writeJson(jw);
        jw.endObject();
        jw.endObject();
    }
    jw.endArray();
    jw.beginObject("aggregate");
    agg(jw, "brierScore", sim::minMedianMax(brier));
    agg(jw, "eq2MeanAbsError", sim::minMedianMax(eq2_mean_abs));
    agg(jw, "eq3MeanAbsError", sim::minMedianMax(eq3_mean_abs));
    agg(jw, "eq4MeanAbsError", sim::minMedianMax(eq4_mean_abs));
    agg(jw, "wastedStallCycles", sim::minMedianMax(wasted_stall));
    agg(jw, "savedAbortCycles", sim::minMedianMax(saved_abort));
    jw.endObject();
    jw.endObject();
    os << "\n";
}

} // namespace runner
