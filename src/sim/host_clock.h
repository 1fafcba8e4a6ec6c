/**
 * @file
 * The sanctioned host wall-clock / host-memory shim.
 *
 * The determinism lint bans wall-clock reads everywhere in src/
 * because simulated behavior must be a pure function of (config,
 * seed). Host-performance profiling (sim/profiler.h) still needs the
 * real clock -- wall time is the thing being measured -- so this one
 * header is the single allowed reader (see WALL_CLOCK_POLICY_FILES in
 * tools/lint/determinism_lint.py). Nothing returned from here may
 * ever feed back into model state; callers emit it only through the
 * nondeterministic bfgts-prof-v1 side channel.
 */

#ifndef BFGTS_SIM_HOST_CLOCK_H
#define BFGTS_SIM_HOST_CLOCK_H

#include <chrono>
#include <cstdint>

#include <sys/resource.h>

namespace sim {

/** Monotonic host time in nanoseconds (arbitrary epoch). */
inline std::uint64_t
hostNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Peak resident-set size of this process in bytes (0 if unknown). */
inline std::uint64_t
hostPeakRssBytes()
{
    struct rusage usage = {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    // Linux reports ru_maxrss in kilobytes.
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024ULL;
}

} // namespace sim

#endif // BFGTS_SIM_HOST_CLOCK_H
