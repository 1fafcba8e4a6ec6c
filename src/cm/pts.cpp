#include "pts.h"

#include <algorithm>

#include "htm/cpu_table.h"
#include "sim/logging.h"
#include "sim/profiler.h"

namespace cm {

PtsManager::PtsManager(const htm::TxIdSpace &ids,
                       const Services &services, const PtsConfig &config)
    : ContentionManager(services), config_(config),
      ids_(ids), proto_(config.bloom)
{
    const auto n = static_cast<std::size_t>(ids.numDynamicTx());
    graph_.assign(n * (n + 1) / 2, 0.0);
    stats_.resize(n);
}

std::size_t
PtsManager::edgeIndex(htm::DTxId a, htm::DTxId b) const
{
    const auto ia = static_cast<std::size_t>(ids_.denseIndex(a));
    const auto ib = static_cast<std::size_t>(ids_.denseIndex(b));
    const std::size_t hi = std::max(ia, ib);
    const std::size_t lo = std::min(ia, ib);
    return hi * (hi + 1) / 2 + lo;
}

double
PtsManager::confidence(htm::DTxId a, htm::DTxId b) const
{
    return graph_[edgeIndex(a, b)];
}

void
PtsManager::bumpConfidence(htm::DTxId a, htm::DTxId b, double delta)
{
    double &conf = graph_[edgeIndex(a, b)];
    conf = std::clamp(conf + delta, 0.0, 255.0);
}

PtsManager::DtxStats &
PtsManager::statsFor(htm::DTxId dtx)
{
    return stats_[static_cast<std::size_t>(ids_.denseIndex(dtx))];
}

BeginDecision
PtsManager::onTxBegin(const TxInfo &tx)
{
    BeginDecision decision;
    decision.cost.sched = config_.scanBaseCost;

    // Consult the running CPUs in CPU order, paying scanPerEntryCost
    // for each, until the first edge over the threshold. The edges
    // before it are at most the threshold, so max_conf is the
    // triggering edge's confidence when one is found.
    const htm::CpuTable &table = *services_.cpuTable;
    double max_conf = 0.0;
    const sim::CpuId cpu = table.findRunning(
        [&](sim::CpuId other, htm::DTxId running) {
            if (other == tx.cpu)
                return false;
            decision.cost.sched += config_.scanPerEntryCost;
            const double conf = confidence(tx.dTx, running);
            max_conf = std::max(max_conf, conf);
            return conf > static_cast<double>(config_.confThreshold);
        });
    decision.confidence = std::clamp(max_conf / 255.0, 0.0, 1.0);
    if (cpu == table.numCpus())
        return decision;
    const htm::DTxId running = table.runningOn(cpu);
    trackSerialization(ids_.staticOf(running), tx.sTx);
    // Decay the consulted edge so repeated serializations eventually
    // let the pair run concurrently again.
    bumpConfidence(tx.dTx, running, -config_.suspendDecay);
    statsFor(tx.dTx).waitedOn.push_back(running);
    decision.waitOn = running;
    decision.action = statsFor(running).avgSize >= config_.smallTxLines
                          ? BeginAction::YieldOn
                          : BeginAction::StallOn;
    return decision;
}

CmCost
PtsManager::onConflictDetected(const TxInfo &tx, const TxInfo &other)
{
    CmCost cost;
    cost.sched = config_.conflictCost;
    if (other.dTx != htm::kNoTx)
        bumpConfidence(tx.dTx, other.dTx, config_.incVal);
    return cost;
}

AbortResponse
PtsManager::onTxAbort(const TxInfo &, const TxInfo &)
{
    AbortResponse resp;
    // The edge was strengthened at conflict detection; the abort
    // only pays bookkeeping.
    resp.cost.sched = config_.conflictCost;
    sim_assert(services_.rng != nullptr);
    resp.backoff = services_.rng->below(
        std::max<sim::Cycles>(1, config_.abortBackoff * 2));
    // An aborted attempt keeps its waitedOn history: the retry will
    // re-run the begin scan and may serialize again.
    return resp;
}

CmCost
PtsManager::onTxCommit(const TxInfo &tx,
                       const std::vector<mem::Addr> &rw_lines)
{
    CmCost cost;
    cost.sched = config_.commitBaseCost;

    DtxStats &stats = statsFor(tx.dTx);
    const auto size = static_cast<double>(rw_lines.size());
    stats.avgSize = stats.avgSize == 0.0 ? size
                                         : 0.5 * (stats.avgSize + size);

    // Encode this commit's read/write set in the dTx's own filter,
    // refilled in place: the holders checked below are other dTxs.
    std::optional<bloom::BloomFilter> &sig = stats.lastBloom;
    if (!sig)
        sig = proto_;
    sig->clear();
    for (mem::Addr line : rw_lines)
        sig->insert(line);
    const sim::Cycles words = (config_.bloom.numBits + 63) / 64;
    cost.sched += words * config_.perWordCycle;

    // Verify every serialization decision taken this execution.
    for (htm::DTxId waited : stats.waitedOn) {
        sim_assert(waited != tx.dTx, "a dTx never waits on itself");
        const DtxStats &holder = statsFor(waited);
        if (!holder.lastBloom)
            continue;
        cost.sched += words * config_.perWordCycle;
        if (sig->intersectionNonEmpty(*holder.lastBloom)) {
            bumpConfidence(tx.dTx, waited, config_.incVal);
        } else {
            bumpConfidence(tx.dTx, waited, -config_.decVal);
        }
    }
    stats.waitedOn.clear();
    return cost;
}

void
PtsManager::profileMemory(sim::Profiler &profiler) const
{
    profiler.recordBytes(sim::Profiler::kConfidenceTables,
                         graph_.size() * sizeof(double));
    // Stored signatures: a filter and its words per committed dTx.
    std::uint64_t signature_bytes = 0;
    for (const DtxStats &stats : stats_) {
        if (stats.lastBloom) {
            signature_bytes +=
                sizeof(bloom::BloomFilter)
                + stats.lastBloom->words().size() * sizeof(std::uint64_t);
        }
    }
    profiler.recordBytes(sim::Profiler::kBloomSignatures,
                         signature_bytes);
}

} // namespace cm
