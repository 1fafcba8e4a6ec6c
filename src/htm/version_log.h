/**
 * @file
 * LogTM-style undo log (eager version management).
 *
 * LogTM writes memory in place and saves the old value of every line
 * a transaction writes to a per-thread log in cacheable virtual
 * memory. Commit is then trivial (discard the log); abort walks the
 * log backwards in software, restoring old values.
 *
 * The simulator is timing-only, so entries carry no data -- the log
 * counts the lines saved and prices the three operations:
 *  - append: one store to the log (usually L1-resident),
 *  - commit: constant (reset the log pointer),
 *  - abort:  trap + per-entry restore (two memory operations each).
 *
 * Only the first write of a line in an attempt is logged, as the
 * hardware filters redundant log writes. The conflict detector reports
 * that write (AccessResult::firstWrite), so the log keeps no set of
 * its own.
 */

#ifndef BFGTS_HTM_VERSION_LOG_H
#define BFGTS_HTM_VERSION_LOG_H

#include <cstddef>

#include "sim/stats.h"
#include "sim/types.h"

namespace htm {

/** Cost model of the undo log. */
struct VersionLogConfig {
    /** Cycles to append one entry (store to a hot log page). */
    sim::Cycles appendCost = 4;
    /** Cycles to seal the log at commit (reset pointer, fence). */
    sim::Cycles commitCost = 10;
    /** Trap + abort-handler entry cost (pipeline flush, vector to
     *  the software handler). */
    sim::Cycles abortTrapCost = 1000;
    /** Cycles to restore one logged line (read entry, write back). */
    sim::Cycles restorePerEntry = 40;
};

/**
 * Per-thread undo log.
 *
 * The runner calls append() on the first transactional store to each
 * line in an attempt; the return value is the logging latency to add
 * to the access. commit()/abort() return their cost and reset the
 * log.
 */
class VersionLog
{
  public:
    explicit VersionLog(const VersionLogConfig &config = {})
        : config_(config)
    {
    }

    /**
     * Log the old value of a line before its first store in this
     * attempt.
     * @return Logging cycles.
     */
    sim::Cycles
    append()
    {
        ++entries_;
        appends_.inc();
        if (entries_ > highWater_)
            highWater_ = entries_;
        return config_.appendCost;
    }

    /** Number of live entries (distinct lines logged). */
    std::size_t size() const { return entries_; }

    /** Deepest the log ever got (stat: log memory footprint). */
    std::size_t highWaterMark() const { return highWater_; }

    /** Commit: discard the log. @return commit cycles. */
    sim::Cycles
    commit()
    {
        reset();
        commits_.inc();
        return config_.commitCost;
    }

    /**
     * Abort: walk the log backwards restoring old values.
     * @return trap + restore cycles, proportional to the entries.
     */
    sim::Cycles
    abort()
    {
        const sim::Cycles cost =
            config_.abortTrapCost
            + static_cast<sim::Cycles>(entries_)
                  * config_.restorePerEntry;
        restoredEntries_.inc(entries_);
        aborts_.inc();
        reset();
        return cost;
    }

    const sim::Counter &appends() const { return appends_; }
    const sim::Counter &commits() const { return commits_; }
    const sim::Counter &aborts() const { return aborts_; }
    const sim::Counter &restoredEntries() const
    {
        return restoredEntries_;
    }

  private:
    void reset() { entries_ = 0; }

    VersionLogConfig config_;
    std::size_t entries_ = 0;
    std::size_t highWater_ = 0;
    sim::Counter appends_;
    sim::Counter commits_;
    sim::Counter aborts_;
    sim::Counter restoredEntries_;
};

} // namespace htm

#endif // BFGTS_HTM_VERSION_LOG_H
