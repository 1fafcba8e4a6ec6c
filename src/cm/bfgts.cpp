#include "bfgts.h"

#include <algorithm>
#include <string>

#include "cpu/predictor.h"
#include "sim/audit.h"
#include "sim/event_queue.h"
#include "sim/logging.h"
#include "sim/profiler.h"
#include "sim/quality.h"

namespace cm {

const char *
bfgtsVariantName(BfgtsVariant variant)
{
    switch (variant) {
      case BfgtsVariant::Sw:
        return "BFGTS-SW";
      case BfgtsVariant::Hw:
        return "BFGTS-HW";
      case BfgtsVariant::HwBackoff:
        return "BFGTS-HW/Backoff";
      case BfgtsVariant::NoOverhead:
        return "BFGTS-NoOverhead";
    }
    return "BFGTS-?";
}

BfgtsManager::BfgtsManager(int num_cpus, const htm::TxIdSpace &ids,
                           const Services &services,
                           const BfgtsConfig &config)
    : ContentionManagerBase(num_cpus, services), config_(config),
      ids_(ids)
{
    const auto slots = static_cast<std::size_t>(numSlots());
    conf_.assign(slots * slots, 0.0);
    pressure_.assign(slots, 0.0);
    stats_.resize(slots * static_cast<std::size_t>(ids.numThreads()));
    for (DtxStats &s : stats_)
        s.similarity = config_.initialSimilarity;
    if (!noOverhead()) {
        protoSig_ =
            std::make_unique<bloom::BloomSignature>(config_.bloom);
    }
    if (usesHardware())
        sim_assert(services_.predictors != nullptr);
}

int
BfgtsManager::numSlots() const
{
    if (config_.confTableSlots <= 0
        || config_.confTableSlots >= ids_.numStaticTx()) {
        return ids_.numStaticTx();
    }
    return config_.confTableSlots;
}

htm::STxId
BfgtsManager::slotOf(htm::STxId stx) const
{
    return stx % numSlots();
}

std::string
BfgtsManager::name() const
{
    return bfgtsVariantName(config_.variant);
}

bool
BfgtsManager::usesHardware() const
{
    return config_.variant == BfgtsVariant::Hw
        || config_.variant == BfgtsVariant::HwBackoff;
}

std::unique_ptr<bloom::Signature>
BfgtsManager::makeSignature() const
{
    if (noOverhead())
        return std::make_unique<bloom::PerfectSignature>();
    // Clone the empty prototype: the clone shares its H3 matrix behind
    // a refcount instead of rebuilding it on every commit.
    return protoSig_->clone();
}

BfgtsManager::DtxStats &
BfgtsManager::statsFor(htm::DTxId dtx)
{
    const auto index =
        static_cast<std::size_t>(slotOf(ids_.staticOf(dtx)))
            * static_cast<std::size_t>(ids_.numThreads())
        + static_cast<std::size_t>(ids_.threadOf(dtx));
    return stats_[index];
}

const BfgtsManager::DtxStats &
BfgtsManager::statsFor(htm::DTxId dtx) const
{
    const auto index =
        static_cast<std::size_t>(slotOf(ids_.staticOf(dtx)))
            * static_cast<std::size_t>(ids_.numThreads())
        + static_cast<std::size_t>(ids_.threadOf(dtx));
    return stats_[index];
}

std::uint32_t
BfgtsManager::confidence(htm::STxId row, htm::STxId col) const
{
    const auto index = static_cast<std::size_t>(slotOf(row))
                         * static_cast<std::size_t>(numSlots())
                     + static_cast<std::size_t>(slotOf(col));
    return static_cast<std::uint32_t>(conf_[index]);
}

double
BfgtsManager::similarityOf(htm::DTxId dtx) const
{
    return statsFor(dtx).similarity;
}

double
BfgtsManager::avgSizeOf(htm::DTxId dtx) const
{
    return statsFor(dtx).avgSize;
}

double
BfgtsManager::pressure(htm::STxId stx) const
{
    return pressure_[static_cast<std::size_t>(slotOf(stx))];
}

double
BfgtsManager::meanConfidence() const
{
    if (conf_.empty())
        return 0.0;
    double sum = 0.0;
    for (double entry : conf_)
        sum += entry;
    return sum / static_cast<double>(conf_.size());
}

double
BfgtsManager::meanBloomOccupancy() const
{
    double sum = 0.0;
    std::size_t live = 0;
    for (const DtxStats &stats : stats_) {
        if (!stats.lastBloom)
            continue;
        const auto *sig = dynamic_cast<const bloom::BloomSignature *>(
            stats.lastBloom.get());
        if (sig == nullptr)
            continue; // perfect signatures have no bit density
        const bloom::BloomFilter &filter = sig->filter();
        sum += static_cast<double>(filter.popCount())
               / static_cast<double>(filter.numBits());
        ++live;
    }
    return live == 0 ? 0.0 : sum / static_cast<double>(live);
}

double
BfgtsManager::meanPressure() const
{
    if (pressure_.empty())
        return 0.0;
    double sum = 0.0;
    for (double p : pressure_)
        sum += p;
    return sum / static_cast<double>(pressure_.size());
}

void
BfgtsManager::writeConfidence(htm::STxId row, htm::STxId col,
                              double delta)
{
    const htm::STxId slot_row = slotOf(row);
    const htm::STxId slot_col = slotOf(col);
    const auto index = static_cast<std::size_t>(slot_row)
                         * static_cast<std::size_t>(numSlots())
                     + static_cast<std::size_t>(slot_col);
    conf_[index] = std::clamp(conf_[index] + delta, 0.0, 255.0);
    confidenceHist_.sample(conf_[index]);
    // The main processor wrote a confidence entry; the predictors'
    // confidence caches snoop the invalidation (and refetch). The
    // physical (aliased) slot is what lives at the cached address.
    // The snoop is one counter bump: cheaper than the two clock reads
    // of a profiler phase around it, so this phase keeps it.
    if (usesHardware())
        services_.predictors->onConfidenceWrite(slot_row, slot_col);
}

void
BfgtsManager::updatePressure(htm::STxId stx, bool conflicted)
{
    double &p = pressure_[static_cast<std::size_t>(slotOf(stx))];
    p = config_.pressureAlpha * p
      + (1.0 - config_.pressureAlpha) * (conflicted ? 1.0 : 0.0);
}

sim::Cycles
BfgtsManager::bloomUpdateCost() const
{
    if (noOverhead())
        return 1;
    const sim::Cycles words = (config_.bloom.numBits + 63) / 64;
    return words * config_.perWordCycle
               * static_cast<sim::Cycles>(config_.bloomPasses)
         + 3 * config_.fyl2xCost + config_.mathTailCost;
}

BeginDecision
BfgtsManager::suspend(const TxInfo &tx, htm::DTxId wait_on,
                      CmCost cost)
{
    // suspendTx(), Example 2. The triggering confidence is read
    // before the decay below so the decision reports the value the
    // stall was actually based on.
    const double trigger_conf =
        static_cast<double>(confidence(tx.sTx, ids_.staticOf(wait_on)))
        / 255.0;
    trackSerialization(ids_.staticOf(wait_on), tx.sTx);
    if (!noOverhead())
        cost.sched += config_.suspendCost;
    else
        cost.sched += 1;

    DtxStats &self = statsFor(tx.dTx);
    const DtxStats &holder = statsFor(wait_on);
    const double sim_avg =
        config_.similarityWeighting
            ? 0.5 * (self.similarity + holder.similarity)
            : 0.5;
    const double decay = config_.decayVal * (1.0 - sim_avg);
    writeConfidence(tx.sTx, ids_.staticOf(wait_on), -decay);
    self.waitingOn = wait_on;

    if (config_.variant == BfgtsVariant::HwBackoff)
        updatePressure(tx.sTx, true); // predicted conflicts add pressure

    BeginDecision decision;
    decision.cost = cost;
    decision.waitOn = wait_on;
    decision.confidence = trigger_conf;
    decision.action = holder.avgSize >= config_.smallTxLines
                          ? BeginAction::YieldOn
                          : BeginAction::StallOn;
    return decision;
}

BeginDecision
BfgtsManager::onTxBegin(const TxInfo &tx)
{
    BeginDecision decision;

    if (config_.variant == BfgtsVariant::HwBackoff) {
        decision.cost.sched += config_.pressureCheckCost;
        if (pressure(tx.sTx) <= config_.pressureThreshold) {
            gatedBegins_.inc();
            return decision; // backoff mode: run immediately
        }
    }

    if (usesHardware()) {
        // The TX_BEGIN instruction triggers the predictor (Example 1
        // runs in hardware).
        auto read_conf = [this](htm::STxId row, htm::STxId col) {
            return confidence(row, col);
        };
        cpu::PredictResult result;
        {
            sim::ScopedPhase prof_phase(services_.profiler,
                                        sim::Profiler::kPredictor);
            result = services_.predictors->predict(
                tx.cpu, tx.sTx, read_conf, config_.confThreshold);
        }
        decision.cost.sched += result.latency;
        if (result.conflictPredicted)
            return suspend(tx, result.waitOn, decision.cost);
        decision.confidence =
            static_cast<double>(result.maxConfidence) / 255.0;
        return decision;
    }

    // Software walk of the CPU Table (BFGTS-SW / NoOverhead).
    if (!noOverhead())
        decision.cost.sched += config_.swScanBase;
    else
        decision.cost.sched += 1;
    std::uint32_t max_conf = 0;
    for (int cpu = 0; cpu < numCpus(); ++cpu) {
        if (cpu == tx.cpu)
            continue;
        if (!noOverhead())
            decision.cost.sched += config_.swScanPerEntry;
        const htm::DTxId running = runningOn(cpu);
        if (running == htm::kNoTx)
            continue;
        const std::uint32_t conf =
            confidence(tx.sTx, ids_.staticOf(running));
        max_conf = std::max(max_conf, conf);
        if (conf > config_.confThreshold)
            return suspend(tx, running, decision.cost);
    }
    decision.confidence = static_cast<double>(max_conf) / 255.0;
    return decision;
}

void
BfgtsManager::onTxStart(const TxInfo &tx)
{
    trackStart(tx);
    if (usesHardware()) {
        sim::ScopedPhase prof_phase(services_.profiler,
                                    sim::Profiler::kPredictor);
        services_.predictors->broadcastBegin(tx.cpu, tx.dTx);
    }
}

CmCost
BfgtsManager::onConflictDetected(const TxInfo &tx, const TxInfo &other)
{
    // txConflict(), Example 3: strengthen the edge in both
    // directions, scaled by the average similarity of the parties.
    CmCost cost;
    cost.sched = noOverhead() ? 1 : config_.conflictCost;
    if (other.dTx != htm::kNoTx) {
        const double sim_avg =
            config_.similarityWeighting
                ? 0.5
                      * (statsFor(tx.dTx).similarity
                         + statsFor(other.dTx).similarity)
                : 0.5;
        const double inc = config_.incVal * sim_avg;
        writeConfidence(tx.sTx, other.sTx, inc);
        writeConfidence(other.sTx, tx.sTx, inc);
    }
    // Hybrid pressure rises on aborts and predicted conflicts only
    // (Section 4.3), not on every NACK.
    return cost;
}

AbortResponse
BfgtsManager::onTxAbort(const TxInfo &tx, const TxInfo &other)
{
    trackEnd(tx, false);
    if (usesHardware()) {
        sim::ScopedPhase prof_phase(services_.profiler,
                                    sim::Profiler::kPredictor);
        services_.predictors->broadcastEnd(tx.cpu);
    }

    (void)other;
    AbortResponse resp;
    // The conflict edge was already strengthened when the conflict
    // was detected (onConflictDetected, fired on the first NACK);
    // the abort only pays rollback bookkeeping and raises the
    // hybrid's pressure on the victim's side.
    resp.cost.sched = noOverhead() ? 1 : config_.conflictCost;
    if (config_.variant == BfgtsVariant::HwBackoff)
        updatePressure(tx.sTx, true);

    sim_assert(services_.rng != nullptr);
    resp.backoff = services_.rng->below(
        std::max<sim::Cycles>(1, config_.abortBackoff * 2));
    return resp;
}

void
BfgtsManager::profileMemory(sim::Profiler &profiler) const
{
    profiler.recordBytes(sim::Profiler::kConfidenceTables,
                         (conf_.size() + pressure_.size())
                             * sizeof(double));
    // Live signatures, approximated from the configured geometry
    // (perfect signatures in the NoOverhead variant are costed the
    // same way; the gauge tracks growth, not exact heap bytes).
    const std::uint64_t per_signature =
        sizeof(bloom::BloomSignature)
        + static_cast<std::uint64_t>(config_.bloom.numBits) / 8;
    std::uint64_t signature_bytes = 0;
    for (const DtxStats &stats : stats_) {
        if (stats.lastBloom)
            signature_bytes += per_signature;
    }
    profiler.recordBytes(sim::Profiler::kBloomSignatures,
                         signature_bytes);
}

void
BfgtsManager::auditCheck(sim::AuditEngine &audit, sim::Tick tick) const
{
    for (std::size_t i = 0; i < conf_.size(); ++i) {
        if (!audit.check(conf_[i] >= 0.0 && conf_[i] <= 255.0,
                         "cm.confidence",
                         [i] {
                             return "confidence entry " + std::to_string(i)
                                  + " escaped the saturating 0..255 range";
                         },
                         tick)) {
            break; // one witness per sweep keeps Collect mode cheap
        }
    }
    for (std::size_t i = 0; i < stats_.size(); ++i) {
        const DtxStats &s = stats_[i];
        audit.check(s.similarity >= 0.0 && s.similarity <= 1.0,
                    "bloom.similarity",
                    [i] {
                        return "similarity EWMA of stats slot "
                             + std::to_string(i) + " escaped [0,1]";
                    },
                    tick);
        audit.check(s.avgSize >= 0.0, "cm.stats",
                    [i] {
                        return "negative average footprint in stats slot "
                             + std::to_string(i);
                    },
                    tick);
        audit.check(s.waitingOn == htm::kNoTx
                        || (ids_.staticOf(s.waitingOn)
                                < ids_.numStaticTx()
                            && ids_.threadOf(s.waitingOn)
                                   < ids_.numThreads()),
                    "cm.stats",
                    [i] {
                        return "stats slot " + std::to_string(i)
                             + " records an out-of-range serialization "
                               "target";
                    },
                    tick);
    }
    for (std::size_t i = 0; i < pressure_.size(); ++i) {
        audit.check(pressure_[i] >= 0.0 && pressure_[i] <= 1.0,
                    "cm.pressure",
                    [i] {
                        return "conflict-pressure EWMA of site "
                             + std::to_string(i) + " escaped [0,1]";
                    },
                    tick);
    }
}

void
BfgtsManager::auditSignature(const TxInfo &tx,
                             const bloom::Signature &n_bloom,
                             const std::vector<mem::Addr> &rw_lines)
{
    sim::AuditEngine &audit = *services_.audit;
    const sim::Tick tick =
        services_.events != nullptr ? services_.events->curTick() : 0;
    const auto dtx = static_cast<std::int64_t>(tx.dTx);
    const auto stx = static_cast<std::int64_t>(tx.sTx);

    const double est = n_bloom.estimateSize();
    audit.check(est >= 0.0, "bloom.estimate",
                "negative Eq. 2 set-size estimate", tick, tx.cpu,
                tx.thread, stx, dtx);
    if (noOverhead()) {
        // Perfect signatures estimate exactly: the count of distinct
        // lines inserted.
        std::vector<mem::Addr> unique(rw_lines);
        std::sort(unique.begin(), unique.end());
        unique.erase(std::unique(unique.begin(), unique.end()),
                     unique.end());
        audit.check(est == static_cast<double>(unique.size()),
                    "bloom.estimate",
                    "perfect signature misestimates its exact set "
                    "size",
                    tick, tx.cpu, tx.thread, stx, dtx);
    }

    // Layout and membership of the Bloom encoding itself: every hash
    // function must map every inserted line to a set bit (a Bloom
    // filter never false-negatives on its own set), and under the
    // partitioned layout (Sanchez et al.) hash function i may only
    // index bank i's bit range.
    if (const auto *sig =
            dynamic_cast<const bloom::BloomSignature *>(&n_bloom)) {
        const bloom::BloomFilter &filter = sig->filter();
        const auto k = static_cast<std::uint64_t>(filter.numHashes());
        const std::uint64_t bank_bits = filter.numBits() / k;
        bool member = true;
        bool in_bank = true;
        for (const mem::Addr line : rw_lines) {
            for (int fn = 0; fn < filter.numHashes(); ++fn) {
                const std::uint64_t bit = filter.bitIndexFor(fn, line);
                member = member
                      && (filter.words()[bit >> 6]
                          & (1ULL << (bit & 63)))
                             != 0;
                if (filter.config().partitioned) {
                    in_bank = in_bank
                           && bit / bank_bits
                                  == static_cast<std::uint64_t>(fn);
                }
            }
        }
        audit.check(member, "bloom.partition",
                    "signature misses a bit of its own inserted set "
                    "(false negative)",
                    tick, tx.cpu, tx.thread, stx, dtx);
        audit.check(in_bank, "bloom.partition",
                    "partitioned layout: a hash function indexed "
                    "outside its bank",
                    tick, tx.cpu, tx.thread, stx, dtx);
    }

    // Eq. 3 intersection estimates are bounded by the smaller of the
    // two Eq. 2 size estimates (monotonicity of the estimator), and
    // the derived Eq. 4 similarity lands in [0,1].
    const DtxStats &self = statsFor(tx.dTx);
    if (self.lastBloom) {
        const double other = self.lastBloom->estimateSize();
        const double inter =
            n_bloom.estimateIntersectionSize(*self.lastBloom);
        const double bound = std::min(est, other) + 1e-9;
        audit.check(inter >= -1e-9 && inter <= bound, "bloom.estimate",
                    "Eq. 3 intersection estimate exceeds the smaller "
                    "set estimate",
                    tick, tx.cpu, tx.thread, stx, dtx);
        const double new_sim = bloom::signatureSimilarity(
            n_bloom, *self.lastBloom, self.avgSize);
        audit.check(new_sim >= 0.0 && new_sim <= 1.0,
                    "bloom.similarity",
                    "Eq. 4 similarity escaped [0,1]", tick, tx.cpu,
                    tx.thread, stx, dtx);
    }
}

CmCost
BfgtsManager::onTxCommit(const TxInfo &tx,
                         const std::vector<mem::Addr> &rw_lines)
{
    trackEnd(tx, true);
    if (usesHardware()) {
        sim::ScopedPhase prof_phase(services_.profiler,
                                    sim::Profiler::kPredictor);
        services_.predictors->broadcastEnd(tx.cpu);
    }

    CmCost cost;
    cost.sched = noOverhead() ? 1 : config_.commitBase;

    DtxStats &self = statsFor(tx.dTx);

    // updateAvgSize().
    const auto size = static_cast<double>(rw_lines.size());
    self.avgSize = self.avgSize == 0.0 ? size
                                       : 0.5 * (self.avgSize + size);

    bool hybrid_gated = false;
    if (config_.variant == BfgtsVariant::HwBackoff) {
        cost.sched += config_.pressureCheckCost;
        updatePressure(tx.sTx, false);
        if (pressure(tx.sTx) <= config_.pressureThreshold
            && self.waitingOn == htm::kNoTx) {
            hybrid_gated = true; // skip the Bloom machinery entirely
        }
    }

    // Small transactions only refresh similarity every
    // smallTxInterval commits (Section 5.3.2).
    bool sim_update_due = true;
    if (self.avgSize < config_.smallTxLines) {
        ++self.commitsSinceSimUpdate;
        if (self.commitsSinceSimUpdate < config_.smallTxInterval) {
            sim_update_due = false;
        } else {
            self.commitsSinceSimUpdate = 0;
        }
    }
    if (hybrid_gated)
        sim_update_due = false;

    const bool need_bloom = sim_update_due
                         || self.waitingOn != htm::kNoTx;
    if (!need_bloom) {
        if (!sim_update_due)
            skippedSimUpdates_.inc();
        return cost;
    }

    // Everything from here on is Bloom signature machinery: build,
    // similarity estimate, serialization check. Self-time phase
    // nesting keeps it disjoint from the enclosing cm_commit bucket.
    sim::ScopedPhase prof_phase(services_.profiler,
                                sim::Profiler::kBloom);

    // readCPUBloomFilter(): encode the just-committed read/write set.
    std::unique_ptr<bloom::Signature> n_bloom = makeSignature();
    for (mem::Addr line : rw_lines)
        n_bloom->insert(line);

    if (services_.audit != nullptr && services_.audit->shouldCheck())
        auditSignature(tx, *n_bloom, rw_lines);

    if (sim_update_due) {
        // updateBloom(), Example 4: newSim via Eqs. 2-4 against the
        // previous execution's filter, then EWMA into the stats.
        cost.sched += bloomUpdateCost();
        if (self.lastBloom) {
            const double new_sim = bloom::signatureSimilarity(
                *n_bloom, *self.lastBloom, self.avgSize);
            similarityHist_.sample(new_sim);
            self.similarity = 0.5 * (self.similarity + new_sim);
            if (services_.quality != nullptr) {
                double occupancy = 0.0;
                const auto *sig =
                    dynamic_cast<const bloom::BloomSignature *>(
                        n_bloom.get());
                if (sig != nullptr) {
                    const bloom::BloomFilter &filter = sig->filter();
                    occupancy =
                        static_cast<double>(filter.popCount())
                        / static_cast<double>(filter.numBits());
                }
                services_.quality->recordEstimate(
                    static_cast<std::int64_t>(tx.dTx), rw_lines,
                    n_bloom->estimateSize(),
                    n_bloom->estimateIntersectionSize(*self.lastBloom),
                    new_sim, occupancy, self.avgSize);
            }
        }
    } else {
        skippedSimUpdates_.inc();
    }

    // checkWasSerialized(): verify the begin-time serialization.
    if (self.waitingOn != htm::kNoTx) {
        const htm::DTxId waited = self.waitingOn;
        self.waitingOn = htm::kNoTx;
        const DtxStats &holder = statsFor(waited);
        if (holder.lastBloom) {
            if (!noOverhead()) {
                const sim::Cycles words =
                    (config_.bloom.numBits + 63) / 64;
                cost.sched += words * config_.perWordCycle;
            }
            const double sim_avg =
                config_.similarityWeighting
                    ? 0.5 * (self.similarity + holder.similarity)
                    : 0.5;
            // "If an intersection is not null the confidence is
            // incremented" -- BFGTS judges this with the Eq. 3
            // estimator rather than a raw bitwise AND: at realistic
            // densities the AND of two signatures almost always has
            // a few chance bits in common, which is exactly the
            // "rudimentary Bloom filter use" the paper criticizes
            // PTS for.
            if (n_bloom->estimateIntersectionSize(*holder.lastBloom)
                >= 1.0) {
                writeConfidence(tx.sTx, ids_.staticOf(waited),
                                config_.incVal * sim_avg);
            } else {
                writeConfidence(tx.sTx, ids_.staticOf(waited),
                                -config_.decayVal * (1.0 - sim_avg));
            }
        }
    }

    if (sim_update_due) {
        self.lastBloom = std::move(n_bloom);
        // The recorder's exact previous set must track the stored
        // signature so Eq. 3/4 ground truth matches what the next
        // estimate is computed against.
        if (services_.quality != nullptr) {
            services_.quality->noteSet(
                static_cast<std::int64_t>(tx.dTx), rw_lines);
        }
    }
    return cost;
}

} // namespace cm
