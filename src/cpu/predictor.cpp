#include "predictor.h"

#include <algorithm>

#include "sim/logging.h"

namespace cpu {

PredictorSystem::PredictorSystem(const htm::CpuTable &table,
                                 const htm::TxIdSpace &ids,
                                 const PredictorConfig &config)
    : table_(table), ids_(ids), config_(config)
{
    const htm::STxId last = ids_.numStaticTx() - 1;
    lineWrites_.assign(tableLine(last, last) + 1, 0);
    units_.assign(static_cast<std::size_t>(numCpus()),
                  Unit{mem::Cache(config.confCache),
                       std::vector<std::uint64_t>(lineWrites_.size(), 0),
                       0});
}

void
PredictorSystem::broadcastBegin(sim::CpuId cpu)
{
    sim_assert(cpu >= 0 && cpu < numCpus());
    cpuTableUpdates_.inc();
}

void
PredictorSystem::broadcastEnd(sim::CpuId cpu)
{
    sim_assert(cpu >= 0 && cpu < numCpus());
    cpuTableUpdates_.inc();
}

mem::Addr
PredictorSystem::regionBase(sim::CpuId cpu)
{
    // Each CPU's copy of the confidence table lives in its own
    // line-aligned region; 1MB spacing keeps regions disjoint for any
    // realistic table size (max tables in the paper are ~800 bytes).
    return 0x10000000ULL + static_cast<mem::Addr>(cpu) * (1ULL << 20);
}

mem::Addr
PredictorSystem::entryOffset(htm::STxId row, htm::STxId col) const
{
    const auto index = static_cast<mem::Addr>(row)
                         * static_cast<mem::Addr>(ids_.numStaticTx())
                     + static_cast<mem::Addr>(col);
    return index * config_.entryBytes;
}

std::size_t
PredictorSystem::tableLine(htm::STxId row, htm::STxId col) const
{
    return static_cast<std::size_t>(
        mem::lineNumber(entryOffset(row, col)));
}

void
PredictorSystem::onConfidenceWrite(htm::STxId row, htm::STxId col)
{
    // Every cache holding the line refetches it; lookup() and
    // refetches() turn the write count into per-CPU refetches.
    const std::size_t line = tableLine(row, col);
    sim_assert(line < lineWrites_.size());
    ++lineWrites_[line];
    snoopInvalidations_.inc();
}

bool
PredictorSystem::lookup(sim::CpuId self, htm::STxId row, htm::STxId col)
{
    Unit &unit = units_[static_cast<std::size_t>(self)];
    mem::Addr victim = mem::kNoLine;
    if (unit.cache.access(regionBase(self) + entryOffset(row, col),
                          &victim))
        return true;
    if (victim != mem::kNoLine) {
        const auto evicted = static_cast<std::size_t>(
            victim - mem::lineNumber(regionBase(self)));
        unit.settledRefetches +=
            lineWrites_[evicted] - unit.stamps[evicted];
    }
    const std::size_t line = tableLine(row, col);
    unit.stamps[line] = lineWrites_[line];
    return false;
}

PredictResult
PredictorSystem::predict(sim::CpuId self, htm::STxId stx,
                         const ConfidenceFn &read_conf,
                         std::uint32_t threshold)
{
    const int num_cpus = numCpus();
    sim_assert(self >= 0 && self < num_cpus);
    predictions_.inc();

    PredictResult result;
    result.latency = config_.triggerCost;

    // Example 1 scans remote CPU Table entries in ascending CPU
    // order, paying perEntryCost for each, until the first predicted
    // conflict. Only running entries need a lookup; the scan cost is
    // charged once the number of entries scanned is known.
    const sim::CpuId remote = table_.findRunning(
        [&](sim::CpuId cpu, htm::DTxId running) {
            if (cpu == self)
                return false;
            // confidx = CPUTable[i] >> shift_value (paper Example 1).
            const htm::STxId confidx = ids_.staticOf(running);
            result.latency += lookup(self, stx, confidx)
                                  ? config_.confCache.hitLatency
                                  : config_.missLatency;
            const std::uint32_t conf = read_conf(stx, confidx);
            result.maxConfidence = std::max(result.maxConfidence, conf);
            return conf > threshold;
        });
    if (remote == num_cpus) {
        result.latency +=
            static_cast<sim::Cycles>(num_cpus - 1) * config_.perEntryCost;
        return result;
    }
    // Entries 0..remote were scanned, except self's own.
    const auto scanned =
        static_cast<sim::Cycles>(remote + (self > remote ? 1 : 0));
    result.latency += scanned * config_.perEntryCost;
    result.conflictPredicted = true;
    result.waitOn = table_.runningOn(remote);
    conflictsPredicted_.inc();
    return result;
}

const mem::Cache &
PredictorSystem::confCache(sim::CpuId cpu) const
{
    sim_assert(cpu >= 0 && cpu < numCpus());
    return units_[static_cast<std::size_t>(cpu)].cache;
}

std::uint64_t
PredictorSystem::refetches(sim::CpuId cpu) const
{
    sim_assert(cpu >= 0 && cpu < numCpus());
    const Unit &unit = units_[static_cast<std::size_t>(cpu)];
    const mem::Addr base = regionBase(cpu);
    std::uint64_t total = unit.settledRefetches;
    for (std::size_t line = 0; line < lineWrites_.size(); ++line) {
        if (unit.cache.contains(base + line * mem::kLineBytes))
            total += lineWrites_[line] - unit.stamps[line];
    }
    return total;
}

std::uint64_t
PredictorSystem::memoryFootprintBytes() const
{
    const std::uint64_t per_cpu =
        config_.confCache.sizeBytes
        + lineWrites_.size() * sizeof(std::uint64_t);
    return lineWrites_.size() * sizeof(std::uint64_t)
         + units_.size() * per_cpu;
}

} // namespace cpu
