#include "experiment.h"

#include "sim/logging.h"
#include "workloads/stamp.h"

namespace runner {

SimConfig
makeConfig(const std::string &workload, cm::CmKind kind,
           const RunOptions &options)
{
    SimConfig config;
    config.workload = workload;
    config.cm = kind;
    config.numCpus = options.numCpus;
    config.threadsPerCpu = options.threadsPerCpu;
    config.seed = options.seed;
    config.txPerThreadOverride = options.txPerThread;
    config.tuning = options.tuning;
    // The SimConfig default already reflects BFGTS_AUDIT; --audit can
    // only turn checking on, never below the environment's level.
    config.audit = config.audit || options.audit;
    if (options.bloomBits != 0)
        config.tuning.bfgts.bloom.numBits = options.bloomBits;
    if (options.smallTxInterval != 0)
        config.tuning.bfgts.smallTxInterval = options.smallTxInterval;
    return config;
}

SimResults
runStamp(const std::string &workload, cm::CmKind kind,
         const RunOptions &options, sim::Profiler *profiler,
         sim::QualityRecorder *quality)
{
    SimConfig config = makeConfig(workload, kind, options);
    config.profiler = profiler;
    config.quality = quality;
    Simulation simulation(config);
    return simulation.run();
}

SimResults
runSingleCoreBaseline(const std::string &workload,
                      const RunOptions &options,
                      sim::Profiler *profiler,
                      sim::QualityRecorder *quality)
{
    RunOptions single = options;
    single.numCpus = 1;
    single.threadsPerCpu = 1;
    // Same total work: one thread runs what all parallel threads
    // would have, combined.
    const int per_thread =
        options.txPerThread > 0
            ? options.txPerThread
            : workloads::makeStampWorkload(workload, 1)->txPerThread();
    single.txPerThread =
        per_thread * options.numCpus * options.threadsPerCpu;
    return runStamp(workload, cm::CmKind::Backoff, single, profiler,
                    quality);
}

double
speedupOverOneCore(const SimResults &parallel,
                   const SimResults &baseline)
{
    sim_assert(parallel.runtime > 0);
    return static_cast<double>(baseline.runtime)
         / static_cast<double>(parallel.runtime);
}

} // namespace runner
