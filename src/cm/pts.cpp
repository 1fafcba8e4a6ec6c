#include "pts.h"

#include <algorithm>

#include "sim/logging.h"

namespace cm {

PtsManager::PtsManager(int num_cpus, const htm::TxIdSpace &ids,
                       const Services &services,
                       const PtsConfig &config)
    : ContentionManagerBase(num_cpus, services), config_(config),
      ids_(ids)
{
    const auto n = static_cast<std::size_t>(ids.numDynamicTx());
    graph_.assign(n * (n + 1) / 2, 0.0);
    edgeTouched_.assign(n * (n + 1) / 2, 0);
    stats_.resize(n);
    protoSig_ = std::make_unique<bloom::BloomSignature>(config_.bloom);
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
    const std::size_t index = edgeIndex(a, b);
    // Count first-touch like the old hash map counted entries: an
    // edge stays materialized even when later decayed back to zero.
    if (!edgeTouched_[index]) {
        edgeTouched_[index] = 1;
        ++graphEdges_;
    }
    double &conf = graph_[index];
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

    double max_conf = 0.0;
    for (int cpu = 0; cpu < numCpus(); ++cpu) {
        if (cpu == tx.cpu)
            continue;
        const htm::DTxId running = runningOn(cpu);
        if (running == htm::kNoTx)
            continue;
        decision.cost.sched += config_.scanPerEntryCost;
        const double conf = confidence(tx.dTx, running);
        max_conf = std::max(max_conf, conf);
        if (conf > static_cast<double>(config_.confThreshold)) {
            trackSerialization(ids_.staticOf(running), tx.sTx);
            // Decay the consulted edge so repeated serializations
            // eventually let the pair run concurrently again.
            bumpConfidence(tx.dTx, running, -config_.suspendDecay);
            statsFor(tx.dTx).waitedOn.push_back(running);
            decision.waitOn = running;
            decision.confidence = std::clamp(conf / 255.0, 0.0, 1.0);
            decision.action =
                statsFor(running).avgSize >= config_.smallTxLines
                    ? BeginAction::YieldOn
                    : BeginAction::StallOn;
            return decision;
        }
    }
    decision.confidence = std::clamp(max_conf / 255.0, 0.0, 1.0);
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
PtsManager::onTxAbort(const TxInfo &tx, const TxInfo &other)
{
    (void)other;
    trackEnd(tx, false);
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
    trackEnd(tx, true);
    CmCost cost;
    cost.sched = config_.commitBaseCost;

    DtxStats &stats = statsFor(tx.dTx);
    const auto size = static_cast<double>(rw_lines.size());
    stats.avgSize = stats.avgSize == 0.0 ? size
                                         : 0.5 * (stats.avgSize + size);

    // Encode this commit's read/write set in a clone of the empty
    // prototype, which shares the H3 matrix behind a refcount.
    std::unique_ptr<bloom::Signature> sig = protoSig_->clone();
    for (mem::Addr line : rw_lines)
        sig->insert(line);
    const sim::Cycles words = (config_.bloom.numBits + 63) / 64;
    cost.sched += words * config_.perWordCycle;

    // Verify every serialization decision taken this execution.
    for (htm::DTxId waited : stats.waitedOn) {
        DtxStats &holder = statsFor(waited);
        if (!holder.lastBloom)
            continue;
        cost.sched += words * config_.perWordCycle;
        if (sig->intersectsNonEmpty(*holder.lastBloom)) {
            bumpConfidence(tx.dTx, waited, config_.incVal);
        } else {
            bumpConfidence(tx.dTx, waited, -config_.decVal);
        }
    }
    stats.waitedOn.clear();
    stats.lastBloom = std::move(sig);
    return cost;
}

} // namespace cm
