#include "config.h"

namespace runner {

std::string
SimConfig::validate() const
{
    const auto bad = [](const char *field, long long value,
                        const std::string &rule) {
        return std::string(field) + " must be " + rule + " (got "
             + std::to_string(value) + ")";
    };
    if (numCpus < 1)
        return bad("numCpus", numCpus, "at least 1");
    if (numCpus > kMaxCpus) {
        return bad("numCpus", numCpus,
                   "at most " + std::to_string(kMaxCpus));
    }
    if (threadsPerCpu < 1)
        return bad("threadsPerCpu", threadsPerCpu, "at least 1");
    // In 64 bits: numThreads() would overflow an int first.
    const long long threads =
        static_cast<long long>(numCpus) * threadsPerCpu;
    if (threads > kMaxThreads) {
        return bad("numCpus * threadsPerCpu", threads,
                   "at most " + std::to_string(kMaxThreads));
    }
    if (txPerThreadOverride < 0) {
        return bad("txPerThreadOverride", txPerThreadOverride,
                   "at least 0");
    }
    const bloom::BloomConfig &bloom = tuning.bfgts.bloom;
    if (bloom.numBits < 64) {
        return bad("bloom.numBits",
                   static_cast<long long>(bloom.numBits),
                   "at least 64");
    }
    if (bloom.numHashes < 1
        || bloom.numHashes > bloom::H3HashFamily::kMaxHashes) {
        return bad("bloom.numHashes", bloom.numHashes,
                   "between 1 and "
                       + std::to_string(bloom::H3HashFamily::kMaxHashes));
    }
    if (bloom.partitioned
        && bloom.numBits % static_cast<std::uint64_t>(bloom.numHashes)
               != 0) {
        return bad("bloom.numBits",
                   static_cast<long long>(bloom.numBits),
                   "a multiple of numHashes when partitioned");
    }
    if (tuning.bfgts.confTableSlots < 0) {
        return bad("confTableSlots", tuning.bfgts.confTableSlots,
                   "at least 0");
    }
    if (tuning.bfgts.smallTxInterval < 0) {
        return bad("smallTxInterval", tuning.bfgts.smallTxInterval,
                   "at least 0");
    }
    return {};
}

} // namespace runner
