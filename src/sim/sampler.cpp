#include "sampler.h"

#include <algorithm>

#include "sim/chrome_trace.h"
#include "sim/event_queue.h"
#include "sim/json.h"
#include "sim/logging.h"

namespace sim {

Sampler::Sampler(const Config &config) : config_(config)
{
    sim_assert(config_.interval >= 1);
}

void
Sampler::start(EventQueue &events, SnapshotFn snapshot,
               ActiveFn active)
{
    sim_assert(!started_);
    started_ = true;
    snapshot_ = std::move(snapshot);
    active_ = std::move(active);
    lastBoundary_ = events.curTick();
    writeHeader();
    tickKind_ = events.addKind(
        [this, &events](std::uint32_t) { fire(events); });
    events.scheduleIn(config_.interval, tickKind_, 0);
}

void
Sampler::fire(EventQueue &events)
{
    if (finished_)
        return;
    // A boundary that lands after the last thread finished belongs
    // to the final partial window, which finish() emits with the
    // true end tick; emitting it here would pad the series past the
    // end of the run.
    if (!active_()) {
        finished_ = true;
        return;
    }
    emitWindow(lastBoundary_, events.curTick());
    lastBoundary_ = events.curTick();
    events.scheduleIn(config_.interval, tickKind_, 0);
}

void
Sampler::finish(Tick end_tick)
{
    if (!started_ || end_tick <= lastBoundary_)
        return;
    finished_ = true;
    emitWindow(lastBoundary_, end_tick);
    lastBoundary_ = end_tick;
}

void
Sampler::emitWindow(Tick start, Tick end)
{
    TimeSeriesWindow w;
    w.window = static_cast<std::uint64_t>(windows_.size());
    w.startTick = start;
    w.endTick = end;

    SampleCounts now;
    snapshot_(now, w.gauges);
    w.delta.commits = now.commits - lastCounts_.commits;
    w.delta.aborts = now.aborts - lastCounts_.aborts;
    w.delta.conflicts = now.conflicts - lastCounts_.conflicts;
    w.delta.predictedStalls =
        now.predictedStalls - lastCounts_.predictedStalls;
    w.delta.stallTimeouts =
        now.stallTimeouts - lastCounts_.stallTimeouts;
    lastCounts_ = now;

    const std::uint64_t attempts = w.delta.commits + w.delta.aborts;
    w.abortRate = attempts == 0
                      ? 0.0
                      : static_cast<double>(w.delta.aborts)
                            / static_cast<double>(attempts);

    windows_.push_back(w);
    writeWindow(w);
    if (counterSink_ != nullptr) {
        counterSink_->counter(end, "commits/win",
                              static_cast<double>(w.delta.commits));
        counterSink_->counter(end, "aborts/win",
                              static_cast<double>(w.delta.aborts));
        counterSink_->counter(end, "abortRate", w.abortRate);
        counterSink_->counter(
            end, "readyQueueDepth",
            static_cast<double>(w.gauges.readyQueueDepth));
        counterSink_->counter(
            end, "cpusStalled",
            static_cast<double>(w.gauges.cpusStalled));
        counterSink_->counter(end, "conflictPressure",
                              w.gauges.conflictPressure);
        counterSink_->counter(end, "bloomOccupancy",
                              w.gauges.bloomOccupancy);
    }
}

void
Sampler::writeHeader()
{
    if (config_.jsonl == nullptr)
        return;
    JsonWriter jw(*config_.jsonl, /*indent=*/0);
    jw.beginObject();
    jw.kv("schema", "bfgts-ts-v1");
    jw.kv("kind", "header");
    jw.kv("interval", static_cast<std::uint64_t>(config_.interval));
    jw.endObject();
    *config_.jsonl << '\n';
}

void
Sampler::writeWindow(const TimeSeriesWindow &w)
{
    if (config_.jsonl == nullptr)
        return;
    JsonWriter jw(*config_.jsonl, /*indent=*/0);
    jw.beginObject();
    jw.kv("window", w.window);
    jw.kv("start", static_cast<std::uint64_t>(w.startTick));
    jw.kv("end", static_cast<std::uint64_t>(w.endTick));
    jw.kv("commits", w.delta.commits);
    jw.kv("aborts", w.delta.aborts);
    jw.kv("conflicts", w.delta.conflicts);
    jw.kv("predictedStalls", w.delta.predictedStalls);
    jw.kv("stallTimeouts", w.delta.stallTimeouts);
    jw.kv("abortRate", w.abortRate);
    jw.kv("cpusRunning", w.gauges.cpusRunning);
    jw.kv("cpusStalled", w.gauges.cpusStalled);
    jw.kv("readyQueueDepth", w.gauges.readyQueueDepth);
    jw.kv("meanConfidence", w.gauges.meanConfidence);
    jw.kv("bloomOccupancy", w.gauges.bloomOccupancy);
    jw.kv("conflictPressure", w.gauges.conflictPressure);
    jw.kv("calibrationBrier", w.gauges.calibrationBrier);
    jw.endObject();
    *config_.jsonl << '\n';
}

void
Sampler::summaryJson(JsonWriter &jw) const
{
    double peak_abort_rate = 0.0;
    double mean_abort_rate = 0.0;
    int peak_ready = 0;
    double peak_pressure = 0.0;
    std::uint64_t peak_commits = 0;
    std::uint64_t peak_aborts = 0;
    for (const TimeSeriesWindow &w : windows_) {
        peak_abort_rate = std::max(peak_abort_rate, w.abortRate);
        mean_abort_rate += w.abortRate;
        peak_ready = std::max(peak_ready, w.gauges.readyQueueDepth);
        peak_pressure =
            std::max(peak_pressure, w.gauges.conflictPressure);
        peak_commits = std::max(peak_commits, w.delta.commits);
        peak_aborts = std::max(peak_aborts, w.delta.aborts);
    }
    if (!windows_.empty())
        mean_abort_rate /= static_cast<double>(windows_.size());

    jw.beginObject("timeseries");
    jw.kv("interval", static_cast<std::uint64_t>(config_.interval));
    jw.kv("windows", static_cast<std::uint64_t>(windows_.size()));
    jw.kv("peakAbortRate", peak_abort_rate);
    jw.kv("meanAbortRate", mean_abort_rate);
    jw.kv("peakReadyQueueDepth", peak_ready);
    jw.kv("peakConflictPressure", peak_pressure);
    jw.kv("peakCommitsPerWindow", peak_commits);
    jw.kv("peakAbortsPerWindow", peak_aborts);
    jw.endObject();
}

} // namespace sim
