/**
 * @file
 * Host-performance profiler: wall-time attribution per subsystem,
 * event-loop throughput, and memory accounting.
 *
 * Everything here measures the *host* (wall nanoseconds, RSS), never
 * the simulated machine, so none of it may influence model behavior.
 * The profiler hangs off SimConfig like the trace sink and sampler:
 * a borrowed pointer that is null in normal runs, in which case every
 * hook collapses to one branch. Results leave through the separate
 * nondeterministic `bfgts-prof-v1` report (docs/observability.md) --
 * they are excluded from the byte-identity gates and from the sweep
 * cache key by construction.
 *
 * Attribution is self-time: a phase stack charges elapsed wall time
 * to the innermost open phase, so nested scopes (Bloom ops inside the
 * CM commit path) stay disjoint and the per-phase shares plus the
 * synthesized "other" bucket sum to 100% of the run loop.
 *
 * The clock is injectable (a plain function pointer) so unit tests
 * and the overhead gate can run attribution against a scripted fake
 * clock; the default reads sim::hostNowNs() from the sanctioned
 * sim/host_clock.h shim.
 */

#ifndef BFGTS_SIM_PROFILER_H
#define BFGTS_SIM_PROFILER_H

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.h"

namespace sim {

class ChromeTraceSink;
class JsonWriter;

class Profiler
{
  public:
    /** Subsystem wall-time buckets (self-time; see file comment). */
    enum Phase : int {
        /** Event dispatch: the loop's skip, merge and pop, and each
         *  handler's work after its last nested phase (see
         *  onEventDispatch(); a push from inside a phase is charged
         *  to that phase). */
        kEventQueue = 0,
        /** Workload generation (next descriptor). */
        kWorkload,
        /** CM begin-time decisions (onTxBegin/arbitrate/conflict). */
        kCmDecide,
        /** CM commit/abort retire paths. */
        kCmCommit,
        /** Bloom signature build/insert/similarity (inside commit). */
        kBloom,
        /** Hardware predictor: predict() + CPU-table broadcasts (a
         *  confidence-write snoop is charged to the writing phase). */
        kPredictor,
        /** OS scheduler model. */
        kOsSched,
        /** Memory-system access path. */
        kMem,
        kNumPhases
    };

    /** Per-structure byte gauges (high-water; ROADMAP item 2). */
    enum Structure : int {
        kConfidenceTables = 0,
        kBloomSignatures,
        kPredictorCaches,
        kStructEventQueue,
        kNumStructures
    };

    static const char *phaseName(int phase);
    static const char *structureName(int structure);

    /** Host-clock reader, nanoseconds. Injectable for tests. */
    using ClockFn = std::uint64_t (*)();

    /** Everything one profiled run measured (plain value; the sweep
     *  engine aggregates these across cells). */
    struct Data {
        std::uint64_t wallNs = 0;
        std::uint64_t events = 0;
        std::uint64_t ticks = 0;
        std::uint64_t peakRssBytes = 0;
        std::array<std::uint64_t, kNumPhases> phaseNs{};
        std::array<std::uint64_t, kNumPhases> phaseCalls{};
        std::array<std::uint64_t, kNumStructures> structBytes{};

        double eventsPerSec() const;
        double wallNsPerCycle() const;
        /** Run-loop time not attributed to any phase (>= 0). */
        std::uint64_t otherNs() const;
        /** phase ns / run-loop ns; pass kNumPhases for "other". */
        double share(int phase) const;

        /** Write this run's profile fields into the writer's current
         *  object (throughput, phases array, memory array). */
        void writeJson(JsonWriter &jw) const;
    };

    /** @param clock  Nanosecond clock; null means sim::hostNowNs. */
    explicit Profiler(ClockFn clock = nullptr);

    /** Stamp the start of the simulation run loop. */
    void beginRun();

    /** Stamp the end of the run loop and record throughput inputs:
     *  events executed by the queue and the final simulated tick.
     *  Also samples peak RSS. */
    void endRun(std::uint64_t events_executed, Tick final_tick);

    /** Open @p phase: elapsed time since the last stamp is charged
     *  to the enclosing phase, then @p phase becomes innermost.
     *  Inline, like exit(): hook sites call these on every event. */
    void
    enter(Phase phase)
    {
        const std::uint64_t now = clock_();
        if (depth_ > 0 && depth_ <= kMaxDepth && now > lastStamp_) {
            data_.phaseNs[static_cast<std::size_t>(
                stack_[depth_ - 1])] += now - lastStamp_;
        }
        if (depth_ < kMaxDepth)
            stack_[static_cast<std::size_t>(depth_)] = phase;
        ++depth_;
        lastStamp_ = now;
        ++data_.phaseCalls[static_cast<std::size_t>(phase)];
    }

    /** Close the innermost phase, charging it the elapsed time. */
    void
    exit()
    {
        if (depth_ == 0)
            return;
        const std::uint64_t now = clock_();
        if (depth_ <= kMaxDepth && now > lastStamp_) {
            data_.phaseNs[static_cast<std::size_t>(
                stack_[depth_ - 1])] += now - lastStamp_;
        }
        --depth_;
        lastStamp_ = now;
    }

    /** Raise the high-water byte gauge for @p structure. */
    void
    recordBytes(Structure structure, std::uint64_t bytes)
    {
        auto &slot = data_.structBytes[static_cast<std::size_t>(structure)];
        if (bytes > slot)
            slot = bytes;
    }

    /** Re-sample getrusage peak RSS (monotonic high-water). */
    void samplePeakRss();

    /**
     * Render host phase totals as Perfetto counter tracks on the
     * model timeline: every kCounterSampleEvents dispatched events
     * the cumulative per-phase milliseconds plus RSS land at the
     * current simulated tick, so model activity and host hotspots
     * share one view.
     */
    void setCounterSink(ChromeTraceSink *sink) { counterSink_ = sink; }

    /**
     * Event-queue hook, once per event just before its handler runs
     * at @p now: the run loop's only per-event call, with one clock
     * read. The time since the last stamp goes to kEventQueue. That
     * is the loop's own work since the previous handler returned,
     * plus that handler's work after its last nested phase closed,
     * which has no phase of its own. A run loop nested inside an open
     * phase leaves the time to that phase.
     */
    void
    onEventDispatch(Tick now)
    {
        if (depth_ == 0) {
            const std::uint64_t stamp = clock_();
            if (stamp > lastStamp_)
                data_.phaseNs[kEventQueue] += stamp - lastStamp_;
            lastStamp_ = stamp;
        }
        ++data_.phaseCalls[kEventQueue];
        if (++eventsSeen_ % kCounterSampleEvents == 0
            && counterSink_ != nullptr) {
            sampleCounters(now);
        }
    }

    /** Snapshot of everything measured so far. */
    const Data &data() const { return data_; }

    /** Full `bfgts-prof-v1` document of kind "run" for one run. */
    void writeReport(std::ostream &os, const std::string &name) const;

    static constexpr std::uint64_t kCounterSampleEvents = 4096;

  private:
    static constexpr int kMaxDepth = 32;

    /** Emit the per-phase and RSS counter tracks at @p now. */
    void sampleCounters(Tick now);

    ClockFn clock_;
    Data data_;
    std::uint64_t runStart_ = 0;
    std::uint64_t lastStamp_ = 0;
    int depth_ = 0;
    std::array<Phase, kMaxDepth> stack_{};
    std::uint64_t eventsSeen_ = 0;
    ChromeTraceSink *counterSink_ = nullptr;
};

/** RAII phase scope; every hook site null-checks the profiler, so
 *  unprofiled runs pay one predictable branch per site. */
class ScopedPhase
{
  public:
    ScopedPhase(Profiler *profiler, Profiler::Phase phase)
        : profiler_(profiler)
    {
        if (profiler_ != nullptr)
            profiler_->enter(phase);
    }

    ~ScopedPhase()
    {
        if (profiler_ != nullptr)
            profiler_->exit();
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    Profiler *profiler_;
};

/** Write one profile's fields as a `bfgts-prof-v1` kind-"run"
 *  document (envelope + Data::writeJson body). */
void writeProfReport(std::ostream &os, const std::string &name,
                     const Profiler::Data &data);

/** min / median / max of @p values (median averages the middle pair
 *  for even counts). Used by the sweep profile aggregation. */
struct MinMedMax {
    double min = 0.0;
    double median = 0.0;
    double max = 0.0;
};
MinMedMax minMedianMax(std::vector<double> values);

// ---- process-global host accounting ---------------------------------
// Every Simulation::run() adds one sample (two host-clock reads per
// *run*, not per event), so bench reports can stamp wall_ns_per_cycle
// and events_per_sec into every row without per-bench wiring. Totals
// are atomics: sweep cells add from worker threads.

struct HostRunTotals {
    std::uint64_t wallNs = 0;
    std::uint64_t events = 0;
    std::uint64_t ticks = 0;
    std::uint64_t runs = 0;

    double eventsPerSec() const;
    double wallNsPerCycle() const;
};

void addHostRunSample(std::uint64_t wall_ns, std::uint64_t events,
                      std::uint64_t ticks);
HostRunTotals hostRunTotals();

} // namespace sim

#endif // BFGTS_SIM_PROFILER_H
