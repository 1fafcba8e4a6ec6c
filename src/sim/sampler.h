/**
 * @file
 * Interval time-series sampler.
 *
 * The paper's claims are dynamic -- BFGTS's similarity-weighted
 * confidence reacts to contention phases over time, and the hybrid
 * variant switches behaviour as conflict pressure rises and falls --
 * so end-of-run aggregates are not enough. The Sampler schedules
 * itself on the simulation's event queue every `interval` ticks and
 * snapshots a window of metrics:
 *
 *  - event deltas within the window (commits, aborts, conflicts,
 *    predicted stalls, stall timeouts) and the windowed abort rate;
 *  - instantaneous gauges at the window edge (CPUs running/stalled,
 *    scheduler ready-queue depth, mean prediction confidence, Bloom
 *    filter occupancy, conflict pressure).
 *
 * Windows are aligned to multiples of the interval; the run's tail
 * lands in one final partial window. Windows with no activity are
 * still emitted (zero deltas), so consumers can plot gaps honestly.
 *
 * Output goes three places, all deterministic:
 *  - a `bfgts-ts-v1` JSON Lines stream (one header line, then one
 *    line per window), for offline plotting and trace_analyze.py;
 *  - an in-memory window list summarized into the `--json` run
 *    report (summaryJson());
 *  - optionally, counter tracks in a ChromeTraceSink timeline.
 *
 * Like tracing, sampling is observational only: it adds no simulated
 * cost and cannot perturb results.
 */

#ifndef BFGTS_SIM_SAMPLER_H
#define BFGTS_SIM_SAMPLER_H

#include <cstdint>
#include <functional>
#include <ostream>
#include <vector>

#include "sim/event_queue.h"
#include "sim/types.h"

namespace sim {

class ChromeTraceSink;
class JsonWriter;

/** Cumulative event counts since the start of the run. */
struct SampleCounts {
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t conflicts = 0;
    /** Begin decisions that serialized (StallOn/YieldOn). */
    std::uint64_t predictedStalls = 0;
    std::uint64_t stallTimeouts = 0;
};

/** Instantaneous gauges at the sample tick. */
struct SampleGauges {
    /** CPUs with a dispatched thread (includes stalled ones). */
    int cpusRunning = 0;
    /** CPUs whose running thread is spinning in a begin-stall. */
    int cpusStalled = 0;
    /** Threads waiting in the per-CPU ready queues, summed. */
    int readyQueueDepth = 0;
    /** Mean confidence-table entry (BFGTS managers; 0 otherwise). */
    double meanConfidence = 0.0;
    /** Mean fraction of set bits over live Bloom signatures. */
    double bloomOccupancy = 0.0;
    /** Mean ATS-style conflict pressure over transaction sites. */
    double conflictPressure = 0.0;
    /** Rolling Brier score of stall/go confidence vs conflict
     *  outcome (0 outside --quality runs). */
    double calibrationBrier = 0.0;
};

/** One emitted time-series window. */
struct TimeSeriesWindow {
    std::uint64_t window = 0;
    Tick startTick = 0;
    /** Exclusive; startTick + interval except for the final partial
     *  window, which ends at the run's last finish tick. */
    Tick endTick = 0;
    /** Event deltas within [startTick, endTick). */
    SampleCounts delta;
    /** delta.aborts / (delta.commits + delta.aborts); 0 if idle. */
    double abortRate = 0.0;
    SampleGauges gauges;
};

/** Periodic window sampler; see file comment. */
class Sampler
{
  public:
    struct Config {
        /** Window length in ticks. */
        Tick interval = 10'000;
        /** When set, stream bfgts-ts-v1 JSON Lines here. */
        std::ostream *jsonl = nullptr;
    };

    /** Fills the cumulative counts and current gauges. */
    using SnapshotFn =
        std::function<void(SampleCounts &, SampleGauges &)>;
    /** True while the simulation still has unfinished threads. */
    using ActiveFn = std::function<bool()>;

    explicit Sampler(const Config &config);

    /**
     * Begin sampling: schedules the first window boundary on
     * @p events. Call once, before the event queue runs.
     */
    void start(EventQueue &events, SnapshotFn snapshot,
               ActiveFn active);

    /**
     * Emit the final partial window [last boundary, end_tick) if any
     * activity window remains. Call after the event queue drains,
     * with the run's last finish tick.
     */
    void finish(Tick end_tick);

    /** Also render each window as Chrome counter-track events. */
    void setCounterSink(ChromeTraceSink *sink) { counterSink_ = sink; }

    Tick interval() const { return config_.interval; }

    /** Windows emitted so far (in order). */
    const std::vector<TimeSeriesWindow> &windows() const
    {
        return windows_;
    }

    /**
     * Write the windowed summary as a "timeseries" member of the
     * writer's current object: interval, window count, peak/mean
     * abort rate, peak ready-queue depth and conflict pressure, and
     * peak per-window commit/abort counts. Key order is fixed.
     */
    void summaryJson(JsonWriter &jw) const;

  private:
    /** Window-boundary event body at @p events.curTick(). */
    void fire(EventQueue &events);

    /** Snapshot and emit the window [start, end). */
    void emitWindow(Tick start, Tick end);

    void writeHeader();
    void writeWindow(const TimeSeriesWindow &w);

    Config config_;
    /** Event kind of the window boundaries. */
    EventKind tickKind_ = 0;
    SnapshotFn snapshot_;
    ActiveFn active_;
    ChromeTraceSink *counterSink_ = nullptr;
    std::vector<TimeSeriesWindow> windows_;
    SampleCounts lastCounts_;
    Tick lastBoundary_ = 0;
    bool started_ = false;
    bool finished_ = false;
};

} // namespace sim

#endif // BFGTS_SIM_SAMPLER_H
