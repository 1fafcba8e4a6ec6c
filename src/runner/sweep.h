/**
 * @file
 * Parallel sweep engine with on-disk result caching.
 *
 * Every table/figure bench and `bfgts_cli --sweep` walks a matrix of
 * independent deterministic simulations: (workload, manager, seed,
 * RunOptions) cells. SweepRunner executes such a matrix on up to
 * `jobs` host threads and guarantees:
 *
 *  - determinism: results are collected in cell-index order, so
 *    aggregation and the JSON report are byte-identical no matter
 *    how many workers ran the sweep or in what order cells finished
 *    (tests/test_sweep.cpp proves parallel == serial bit-for-bit);
 *  - failure isolation: a throwing cell records an error result
 *    instead of killing the sweep;
 *  - caching: with a cache directory set, each standard cell's
 *    results are stored keyed by a digest of the full configuration
 *    (workload + manager + every RunOptions knob + git describe), so
 *    re-running a bench recomputes only changed cells. On a dirty
 *    tree `git describe` gains `-dirty` but cannot distinguish two
 *    different dirty states -- clear or disable the cache when
 *    iterating on uncommitted model changes.
 */

#ifndef BFGTS_RUNNER_SWEEP_H
#define BFGTS_RUNNER_SWEEP_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "runner/experiment.h"
#include "runner/results.h"
#include "sim/profiler.h"
#include "sim/quality.h"

namespace runner {

/** One cell of the evaluation matrix. */
struct SweepCell {
    std::string workload;
    cm::CmKind cm = cm::CmKind::BfgtsHw;
    RunOptions options;

    /** Run runSingleCoreBaseline() instead of runStamp() (the cm
     *  field is ignored; baselines always run under Backoff). */
    bool baseline = false;

    /** Display label for progress lines and the report; defaults to
     *  "workload/manager seed=N" (or "workload/baseline"). */
    std::string label;

    /**
     * Extension/test hook: run this instead of the standard cell.
     * Custom cells are never cached (there is no configuration to
     * digest) and may throw -- the sweep records the error.
     */
    std::function<SimResults()> custom;
};

/** Outcome of one cell. */
struct SweepCellResult {
    /** False when the cell threw; see error. */
    bool ok = false;
    /** True when results came from the on-disk cache. */
    bool fromCache = false;
    /** what() of the escaped exception (when !ok). */
    std::string error;
    /** Valid when ok. */
    SimResults results;
    /**
     * Host-performance profile of the cell, present only when
     * SweepOptions::profile was set AND the cell actually executed
     * (cache hits and errors have nothing to measure). Wall-clock
     * data, so inherently nondeterministic -- it flows only into
     * writeProfileReport(), never into results or the cache.
     */
    std::optional<sim::Profiler::Data> profile;
    /**
     * Decision-quality data of the cell, present only when
     * SweepOptions::quality was set. Unlike profile this is
     * deterministic, so quality sweeps bypass cache *reads* (every
     * cell executes and carries data; reports stay byte-identical
     * across --jobs counts) while still writing the cache.
     */
    std::optional<sim::QualityRecorder::Data> quality;
};

/** Execution accounting for one run() (not part of the report);
 *  every cell lands in exactly one of the first three buckets. */
struct SweepStats {
    /** Simulations executed to completion. */
    int executed = 0;
    /** Cells answered from the cache. */
    int cacheHits = 0;
    /** Cells that threw. */
    int errors = 0;
    /**
     * Cache writes that found the entry already present -- another
     * `--sweep` process sharing the cache directory or a duplicate
     * cell landed the same key between our read miss and our rename.
     * Harmless (both writers produced identical bytes for the same
     * key), counted so multi-process runs can observe contention.
     * Not a cell bucket: a raced cell still counts in executed.
     */
    int cacheRaces = 0;
};

/** How to execute a sweep. */
struct SweepOptions {
    /** Worker threads (clamped to at least 1 and at most the number
     *  of cells). */
    int jobs = 1;
    /** Result-cache directory; empty disables caching. */
    std::string cacheDir;
    /** Per-cell progress lines ("[ 3/42] ..."); null disables. */
    std::ostream *progress = nullptr;
    /**
     * Attach a host-performance profiler to every executed standard
     * cell (--profile). Deliberately NOT part of cellKey(): profiling
     * must never change cache identity, cached results stay valid and
     * are still served (profile-less) on a warm cache.
     */
    bool profile = false;
    /**
     * Attach a decision-quality recorder to every standard cell
     * (--quality). Like profile, NOT part of cellKey(); but because
     * quality data must be complete and deterministic, cache reads
     * are skipped (cells always execute) while cache writes still
     * happen for later quality-less runs.
     */
    bool quality = false;
};

/**
 * Executes cell matrices; see the file comment. One SweepRunner can
 * run() multiple matrices; stats() and writeReport() describe the
 * most recent run.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions options = {});

    /**
     * Execute every cell (parallel, cached, failure-isolated) and
     * return the results in job-index order.
     */
    std::vector<SweepCellResult> run(const std::vector<SweepCell> &cells);

    /** Execution accounting for the last run(). */
    const SweepStats &stats() const { return stats_; }

    /**
     * Write the `bfgts-sweep-v1` JSON report of the last run().
     * Deliberately omits worker count and cache hits so equal sweeps
     * produce byte-identical reports regardless of how they ran.
     */
    void writeReport(std::ostream &os, const std::string &name) const;

    /**
     * Write the `bfgts-prof-v1` JSON report (kind "sweep") of the
     * last run(): one row per profiled cell plus min/median/max
     * aggregates of wallNsPerCycle, eventsPerSec and wallNs across
     * them. Wall-clock data -- nondeterministic by design and kept
     * out of writeReport() and the byte-identity gates.
     */
    void writeProfileReport(std::ostream &os,
                            const std::string &name) const;

    /**
     * Write the `bfgts-qual-v1` JSON report (kind "sweep") of the
     * last run(): one row per quality-recorded cell plus
     * min/median/max aggregates of brierScore and the Eq. 2-4 mean
     * absolute errors. Fully deterministic -- byte-identical across
     * BFGTS_HASH_SEED values and --jobs counts.
     */
    void writeQualityReport(std::ostream &os,
                            const std::string &name) const;

    /** Progress/report label of @p cell (default or explicit). */
    static std::string cellLabel(const SweepCell &cell);

    /** Canonical cache-key string of a standard cell (pre-digest;
     *  exposed for tests). */
    static std::string cellKey(const SweepCell &cell);

  private:
    void runCell(std::size_t index);
    void progressLine(std::size_t completed, std::size_t index);
    std::string cachePath(const std::string &key) const;
    bool readCache(const std::string &key, SimResults *results) const;
    /** Returns true when the entry already existed (a concurrent
     *  writer won the rename race); see SweepStats::cacheRaces. */
    bool writeCache(const std::string &key, std::size_t index,
                    const SimResults &results) const;

    SweepOptions options_;
    SweepStats stats_;
    std::vector<SweepCell> cells_;
    std::vector<SweepCellResult> results_;
    /** Guards stats_ and progress output during run(). */
    std::mutex mutex_;
};

/** Serialize every SimResults field (cache file body; tests). */
void writeSweepResults(std::ostream &os, const SimResults &results);

/** Inverse of writeSweepResults(); false on malformed input. */
bool readSweepResults(std::istream &is, SimResults *results);

} // namespace runner

#endif // BFGTS_RUNNER_SWEEP_H
