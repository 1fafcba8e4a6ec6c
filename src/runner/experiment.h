/**
 * @file
 * Experiment drivers shared by the benches, tests and examples.
 *
 * The paper's headline metric is speedup over a single core
 * (Fig. 4a): the same total work run on one CPU with one thread
 * under the plain Backoff manager. runStamp() runs one (benchmark,
 * contention manager) cell of the evaluation matrix;
 * runSingleCoreBaseline() produces the denominator.
 */

#ifndef BFGTS_RUNNER_EXPERIMENT_H
#define BFGTS_RUNNER_EXPERIMENT_H

#include <string>

#include "runner/config.h"
#include "runner/results.h"
#include "runner/simulation.h"

namespace runner {

/** Knobs a sweep varies on top of the Table 2 defaults. */
struct RunOptions {
    int numCpus = 16;
    int threadsPerCpu = 4;
    std::uint64_t seed = 1;
    /** 0 = use the workload's default transactions per thread. */
    int txPerThread = 0;
    /** 0 = keep the BFGTS default; else Bloom bits (Fig. 6 sweep). */
    std::uint64_t bloomBits = 0;
    /** 0 = keep the default small-tx similarity-update interval. */
    int smallTxInterval = 0;
    /** Base per-manager tunables (bloomBits/interval layered on top). */
    cm::CmTuning tuning;
    /** Checked simulation mode (--audit); ORed with the BFGTS_AUDIT
     *  environment switch via the SimConfig default. */
    bool audit = false;
};

/** Assemble a full SimConfig for one evaluation cell. */
SimConfig makeConfig(const std::string &workload, cm::CmKind kind,
                     const RunOptions &options = {});

/**
 * Run one (benchmark, manager) cell.
 *
 * @p profiler optionally attaches the host-performance profiler to
 * the run (SimConfig::profiler); @p quality optionally attaches the
 * decision-quality recorder (SimConfig::quality). Both are
 * deliberately NOT RunOptions knobs: RunOptions feeds the sweep
 * cache key, and observers must never perturb cache identity or
 * results.
 */
SimResults runStamp(const std::string &workload, cm::CmKind kind,
                    const RunOptions &options = {},
                    sim::Profiler *profiler = nullptr,
                    sim::QualityRecorder *quality = nullptr);

/**
 * Run the single-core baseline: one CPU, one thread, Backoff, the
 * same total transaction count as the parallel configuration in
 * @p options.
 */
SimResults runSingleCoreBaseline(const std::string &workload,
                                 const RunOptions &options = {},
                                 sim::Profiler *profiler = nullptr,
                                 sim::QualityRecorder *quality
                                 = nullptr);

/** Fig. 4a metric: baseline runtime / parallel runtime. */
double speedupOverOneCore(const SimResults &parallel,
                          const SimResults &baseline);

} // namespace runner

#endif // BFGTS_RUNNER_EXPERIMENT_H
