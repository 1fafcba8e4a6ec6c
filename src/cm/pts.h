/**
 * @file
 * Proactive Transaction Scheduling (Blake et al., MICRO'09).
 *
 * PTS profiles the runtime conflict pattern into a *global* conflict
 * graph keyed by dynamic transaction ID pairs, with edge weights
 * acting as conflict confidences. Before a transaction begins it
 * scans the table of running transactions and serializes behind the
 * first one whose edge confidence exceeds a threshold. At commit it
 * intersects its read/write-set Bloom filter with the saved filters
 * of the transactions it serialized behind: a non-empty intersection
 * means the serialization was justified (strengthen the edge), an
 * empty one means it was too pessimistic (weaken it).
 *
 * Three properties the BFGTS paper criticizes are modeled explicitly:
 *  1. the per-dTxID-pair graph is large and cache-hostile, so the
 *     begin-time scan is expensive (scanPerEntryCost);
 *  2. the scan runs in software on *every* begin;
 *  3. Bloom filter use is rudimentary: fixed size, and confidence
 *     updates use fixed increments -- no similarity weighting.
 */

#ifndef BFGTS_CM_PTS_H
#define BFGTS_CM_PTS_H

#include <cstdint>
#include <optional>
#include <vector>

#include "bloom/bloom_filter.h"
#include "cm/contention_manager.h"

namespace cm {

/** PTS tunables. */
struct PtsConfig {
    /** Fixed ("rudimentary") Bloom filter for commit-time checks. */
    bloom::BloomConfig bloom{.numBits = 1024, .numHashes = 2};
    /** Serialize when edge confidence exceeds this (0..255 scale);
     *  a single conflict (incVal) crosses it. */
    std::uint32_t confThreshold = 40;
    /** Fixed confidence increment on a confirmed/actual conflict. */
    double incVal = 48.0;
    /** Fixed confidence decrement on a disproven serialization. */
    double decVal = 24.0;
    /** Decay applied to the consulted edge at each serialization. */
    double suspendDecay = 12.0;
    /** Holders at least this big (avg lines) are yielded behind. */
    double smallTxLines = 10.0;

    /** Begin-scan fixed cost (graph pointer chasing setup). */
    sim::Cycles scanBaseCost = 120;
    /** Begin-scan cost per running transaction consulted. */
    sim::Cycles scanPerEntryCost = 55;
    /** Commit bookkeeping base cost. */
    sim::Cycles commitBaseCost = 150;
    /** Cycles per 64-bit Bloom word per pass at commit. */
    sim::Cycles perWordCycle = 1;
    /** Abort-path bookkeeping cost. */
    sim::Cycles conflictCost = 60;
    /** Mean random backoff after an abort, cycles. */
    sim::Cycles abortBackoff = 300;
};

/** Conflict-graph-driven proactive scheduler. */
class PtsManager : public ContentionManager
{
  public:
    PtsManager(const htm::TxIdSpace &ids, const Services &services,
               const PtsConfig &config = {});

    std::string name() const override { return "PTS"; }

    BeginDecision onTxBegin(const TxInfo &tx) override;
    CmCost onConflictDetected(const TxInfo &tx,
                              const TxInfo &other) override;
    AbortResponse onTxAbort(const TxInfo &tx,
                            const TxInfo &other) override;
    CmCost onTxCommit(const TxInfo &tx,
                      const std::vector<mem::Addr> &rw_lines) override;

    /** Edge confidence between two dTxIDs (tests). */
    double confidence(htm::DTxId a, htm::DTxId b) const;

    /** Host-profiler byte gauges: the conflict graph and the stored
     *  per-dTxID Bloom filters. */
    void profileMemory(sim::Profiler &profiler) const override;

  private:
    /**
     * Flat index of the symmetric edge (a, b) in the dense
     * lower-triangular confidence matrix over denseIndex space.
     */
    std::size_t edgeIndex(htm::DTxId a, htm::DTxId b) const;

    void bumpConfidence(htm::DTxId a, htm::DTxId b, double delta);

    struct DtxStats {
        double avgSize = 0.0;
        std::vector<htm::DTxId> waitedOn;
        /** Filter of the last commit, refilled in place at each
         *  commit; empty until the first. */
        std::optional<bloom::BloomFilter> lastBloom;
    };

    DtxStats &statsFor(htm::DTxId dtx);

    PtsConfig config_;
    const htm::TxIdSpace &ids_;
    /**
     * Conflict graph: symmetric dTxID-pair -> confidence, stored as a
     * flat lower-triangular matrix over dense dTx indices (the
     * begin-time scan is a plain array read, no hashing). This models
     * the structure the BFGTS paper criticizes as large: n(n+1)/2
     * doubles for n = numDynamicTx(), which is fine at paper scale
     * but will need a sparse/tiered replacement for the big-machine
     * axis (ROADMAP item 2).
     */
    std::vector<double> graph_;
    /** Per-dTx stats, indexed by TxIdSpace::denseIndex(). */
    std::vector<DtxStats> stats_;
    /** Empty filter a dTx's lastBloom is copied from at its first
     *  commit, so every filter shares one H3 matrix. */
    bloom::BloomFilter proto_;
};

} // namespace cm

#endif // BFGTS_CM_PTS_H
