/**
 * @file
 * Bloom Filter Guided Transaction Scheduling (the paper's Section 4).
 *
 * BFGTS keeps three compact software structures (Fig. 3):
 *  - a confidence table indexed by *static* transaction ID pairs
 *    (sTxID x sTxID), 0..255 saturating entries -- small enough to
 *    stay cache-resident and to be cached by the per-CPU hardware
 *    predictor;
 *  - a per-dTxID statistics array: average read/write-set size,
 *    similarity, and the dTxID this transaction last serialized
 *    behind;
 *  - a per-dTxID table of the most recent read/write-set Bloom
 *    filter.
 *
 * Scheduling logic (paper Examples 1-4):
 *  - TX_BEGIN walks the CPU Table and serializes behind the first
 *    running transaction whose confidence exceeds the threshold;
 *    small holders are busy-waited on, large holders are yielded
 *    behind (suspendTx). Each suspend decays the edge by
 *    decayVal*(1-sim) so optimism returns, fastest for dissimilar
 *    (transient-conflict) transactions.
 *  - On abort, confidence between the two parties rises by
 *    incVal*sim: conflicts between self-similar transactions are
 *    learned fast because they will persist.
 *  - On commit, the similarity EWMA is refreshed from the Bloom
 *    estimators (Eqs. 2-4), and any serialization taken this
 *    execution is verified by intersecting Bloom filters.
 *
 * Four variants share this class (paper Section 5.1):
 *  - Sw:          begin-scan runs in software (no accelerator).
 *  - Hw:          begin-scan runs on the PredictorSystem.
 *  - HwBackoff:   Hw, gated by an ATS-style conflict-pressure EWMA;
 *                 below the pressure threshold BFGTS is off and plain
 *                 randomized backoff is used (Section 4.3).
 *  - NoOverhead:  every scheduling operation costs one cycle and
 *                 signatures are perfect (exact sets: a commit's
 *                 sorted, unique lines) -- the paper's upper bound.
 */

#ifndef BFGTS_CM_BFGTS_H
#define BFGTS_CM_BFGTS_H

#include <optional>
#include <vector>

#include "bloom/bloom_filter.h"
#include "cm/contention_manager.h"

namespace cm {

/** Which BFGTS configuration to run (paper Section 5.1). */
enum class BfgtsVariant {
    Sw,
    Hw,
    HwBackoff,
    NoOverhead,
};

/** Printable variant name ("BFGTS-HW" etc.). */
const char *bfgtsVariantName(BfgtsVariant variant);

/** BFGTS tunables; defaults follow the paper where it gives numbers. */
struct BfgtsConfig {
    BfgtsVariant variant = BfgtsVariant::Hw;

    /** Signature geometry for the commit routines (512..8192 bits). */
    bloom::BloomConfig bloom{.numBits = 2048, .numHashes = 4};

    /** Serialize when confidence exceeds this (0..255 scale). One
     *  average-similarity abort (incVal * 0.5) crosses it. */
    std::uint32_t confThreshold = 50;

    /** Confidence increment scale; applied as incVal * sim. */
    double incVal = 96.0;

    /** Confidence decay scale; applied as decayVal * (1 - sim).
     *  Decay fires on every suspend, which recurs while the holder
     *  keeps running, so it must be much smaller than incVal. */
    double decayVal = 12.0;

    /** Initial similarity before any history exists (neutral). */
    double initialSimilarity = 0.5;

    /**
     * The paper's "future work" knob: cap the prediction structures
     * at this many static-transaction slots and alias sTxIDs onto
     * them (slot = sTxID mod slots). 0 = exact, one slot per sTxID.
     * Aliasing bounds the memory of the confidence table and the
     * per-dTxID arrays for programs with many transaction sites, at
     * the cost of prediction cross-talk between aliased sites
     * (bench/ablation_aliasing quantifies it).
     */
    int confTableSlots = 0;

    /**
     * Ablation switch: when false, confidence increments and decays
     * use the neutral similarity 0.5 instead of the learned values
     * (similarity is still tracked, just not fed back). Reduces the
     * learning rule to fixed steps over the compressed table.
     */
    bool similarityWeighting = true;

    /** Holders with avg footprint >= this many lines are yielded
     *  behind instead of busy-waited on (paper: 10 cache lines). */
    double smallTxLines = 10.0;

    /** Small transactions refresh similarity once per this many
     *  commits (paper Section 5.3.2; best setting: 20). */
    int smallTxInterval = 20;

    /** Hybrid: pressure EWMA weight on history ("heavily biases past
     *  history"). */
    double pressureAlpha = 0.95;

    /** Hybrid: BFGTS engages above this pressure (paper: 0.25). */
    double pressureThreshold = 0.25;

    /** Mean random backoff after an abort, cycles. */
    sim::Cycles abortBackoff = 300;

    // ---- cost model (cycles) ----------------------------------------
    /** SW begin scan: fixed part. */
    sim::Cycles swScanBase = 40;
    /** SW begin scan: per CPU Table entry consulted. */
    sim::Cycles swScanPerEntry = 12;
    /** suspendTx() bookkeeping (Example 2). */
    sim::Cycles suspendCost = 30;
    /** txConflict() bookkeeping (Example 3). */
    sim::Cycles conflictCost = 25;
    /** commitTx() fixed bookkeeping (Example 4). */
    sim::Cycles commitBase = 80;
    /** Per 64-bit Bloom word per pass (read/union/popcnt). */
    sim::Cycles perWordCycle = 1;
    /** Passes over the filter words in updateBloom(). */
    int bloomPasses = 5;
    /** fyl2x latency (Table 2: 15 cycles); three calls in calcSim. */
    sim::Cycles fyl2xCost = 15;
    /**

     * Scalar math tail of calcSim / EWMA updates. */
    sim::Cycles mathTailCost = 40;
    /** Hybrid: cost of the conflict-pressure check. */
    sim::Cycles pressureCheckCost = 5;
};

/** The BFGTS contention manager (all four variants). */
class BfgtsManager : public ContentionManager
{
  public:
    /**
     * @param ids       dTxID encode/decode shared with the runner.
     * @param services  CPU Table/scheduler/RNG/predictors. Hw and
     *                  HwBackoff require services.predictors.
     * @param config    Variant and tunables.
     */
    BfgtsManager(const htm::TxIdSpace &ids, const Services &services,
                 const BfgtsConfig &config = {});

    std::string name() const override;

    BeginDecision onTxBegin(const TxInfo &tx) override;
    void onTxStart(const TxInfo &tx) override;
    CmCost onConflictDetected(const TxInfo &tx,
                              const TxInfo &other) override;
    AbortResponse onTxAbort(const TxInfo &tx,
                            const TxInfo &other) override;
    CmCost onTxCommit(const TxInfo &tx,
                      const std::vector<mem::Addr> &rw_lines) override;

    // ---- introspection (tests, stats) --------------------------------

    /** Confidence table entry (0..255). */
    std::uint32_t confidence(htm::STxId row, htm::STxId col) const;

    /** Similarity EWMA of a dTxID. */
    double similarityOf(htm::DTxId dtx) const;

    /** Average footprint (lines) of a dTxID. */
    double avgSizeOf(htm::DTxId dtx) const;

    /** Hybrid conflict pressure of a transaction site. */
    double pressure(htm::STxId stx) const;

    /** Number of begins that skipped prediction (hybrid gating). */
    const sim::Counter &gatedBegins() const { return gatedBegins_; }

    /** Number of commits that skipped the similarity update. */
    const sim::Counter &skippedSimUpdates() const
    {
        return skippedSimUpdates_;
    }

    const BfgtsConfig &config() const { return config_; }

    // ---- reports ------------------------------------------------------

    /**
     * Invariant audit (sim/audit.h) over the prediction structures:
     *  - cm.confidence:   every confidence-table entry stays in the
     *    saturating 0..255 range writeConfidence() clamps to;
     *  - bloom.similarity: every similarity EWMA stays in [0,1];
     *  - cm.stats:        average footprints are non-negative and a
     *    recorded serialization target is a valid dTxID slot;
     *  - cm.pressure:     hybrid conflict-pressure EWMAs stay in
     *    [0,1].
     */
    void auditCheck(sim::AuditEngine &audit,
                    sim::Tick tick) const override;

    /** Host-profiler byte gauges: confidence/pressure tables, the
     *  stored per-dTxID signatures (both grow with sTxID^2 and thread
     *  count; this makes the growth visible) and, for Hw and
     *  HwBackoff, the predictor caches. */
    void profileMemory(sim::Profiler &profiler) const override;

    /** The "bfgts" group: gating, skipped similarity updates and the
     *  similarity and confidence distributions. */
    void visitStatGroups(
        const std::function<void(const sim::StatGroup &)> &visit)
        const override;

    /** Mean confidence-table entry (0..255 scale), mean set-bit
     *  fraction over live Bloom signatures (0 when none exists yet or
     *  signatures are perfect sets) and mean hybrid pressure. */
    void sampleGauges(sim::SampleGauges &gauges) const override;

    // ---- audit mutation-selftest hooks. Never call outside tests.
    /** Corrupt a confidence entry, bypassing the saturating clamp. */
    void
    testCorruptConfidence(htm::STxId row, htm::STxId col, double value)
    {
        conf_[static_cast<std::size_t>(slotOf(row))
                  * static_cast<std::size_t>(numSlots())
              + static_cast<std::size_t>(slotOf(col))] = value;
    }
    /** Corrupt a similarity EWMA out of [0,1]. */
    void
    testCorruptSimilarity(htm::DTxId dtx, double value)
    {
        statsFor(dtx).similarity = value;
    }
    /** Corrupt an average-footprint estimate (negative = broken). */
    void
    testCorruptAvgSize(htm::DTxId dtx, double value)
    {
        statsFor(dtx).avgSize = value;
    }
    /** Corrupt a conflict-pressure EWMA out of [0,1]. */
    void
    testCorruptPressure(htm::STxId stx, double value)
    {
        pressure_[static_cast<std::size_t>(slotOf(stx))] = value;
    }
    /** Run the commit-time signature audit on a crafted Bloom
     *  filter (Bloom variants; requires services.audit). */
    void
    testAuditSignature(const TxInfo &tx, const bloom::BloomFilter &sig,
                       const std::vector<mem::Addr> &rw_lines)
    {
        scratch_ = sig;
        auditSignature(tx, rw_lines, rw_lines);
    }
    /** Run the commit-time signature audit on a crafted perfect
     *  signature (NoOverhead; requires services.audit). */
    void
    testAuditSignature(const TxInfo &tx,
                       const std::vector<mem::Addr> &lines,
                       const std::vector<mem::Addr> &rw_lines)
    {
        auditSignature(tx, lines, rw_lines);
    }

  private:
    /** Number of physical slots backing the prediction structures. */
    int numSlots() const;

    /** Physical slot an sTxID maps to (aliasing, future work). */
    htm::STxId slotOf(htm::STxId stx) const;

    struct DtxStats {
        double avgSize = 0.0;
        double similarity;
        htm::DTxId waitingOn = htm::kNoTx;
        int commitsSinceSimUpdate = 0;
        /** Bloom variants: the filter of the last similarity update;
         *  empty until the first. */
        std::optional<bloom::BloomFilter> lastBloom;
        /** NoOverhead: the lines of the last similarity update. */
        std::optional<std::vector<mem::Addr>> lastLines;
    };

    bool usesHardware() const;
    bool noOverhead() const
    {
        return config_.variant == BfgtsVariant::NoOverhead;
    }

    /** True once @p stats holds a signature (lastBloom/lastLines). */
    static bool
    hasSignature(const DtxStats &stats)
    {
        return stats.lastBloom || stats.lastLines;
    }

    /**
     * Eq. 2 size of this commit's signature: the scratch filter's
     * estimate, or the exact count of @p lines under NoOverhead.
     */
    double signatureSize(const std::vector<mem::Addr> &lines) const;

    /**
     * Eq. 3 overlap of this commit's signature with the one @p stored
     * holds: exact common lines with @p lines under NoOverhead.
     * @pre hasSignature(stored).
     */
    double overlapWith(const std::vector<mem::Addr> &lines,
                       const DtxStats &stored) const;

    DtxStats &statsFor(htm::DTxId dtx);
    const DtxStats &statsFor(htm::DTxId dtx) const;

    /** Saturating confidence update + predictor-cache invalidation. */
    void writeConfidence(htm::STxId row, htm::STxId col, double delta);

    /** suspendTx() (Example 2): returns the final decision. */
    BeginDecision suspend(const TxInfo &tx, htm::DTxId wait_on,
                          CmCost cost);

    /**
     * Commit-time audit of the freshly built signature (scratch_, or
     * @p lines under NoOverhead) for the commit of @p rw_lines:
     * Eq. 2-4 estimator bounds ("bloom.estimate", "bloom.similarity")
     * and the Bloom layout ("bloom.partition"). Caller guarantees
     * services_.audit is attached and checking.
     */
    void auditSignature(const TxInfo &tx,
                        const std::vector<mem::Addr> &lines,
                        const std::vector<mem::Addr> &rw_lines);

    /** Hybrid pressure update. */
    void updatePressure(htm::STxId stx, bool conflicted);

    /** Cycles of the full Bloom similarity update for one commit. */
    sim::Cycles bloomUpdateCost() const;

    BfgtsConfig config_;
    const htm::TxIdSpace &ids_;
    /**
     * Bloom variants: the filter each commit fills. A similarity
     * update swaps it with the dTx's lastBloom, or copies it there at
     * the dTx's first one, so every stored filter shares its H3
     * matrix.
     */
    bloom::BloomFilter scratch_;
    /** Confidence table, numStaticTx^2, row-major, 0..255. */
    std::vector<double> conf_;
    std::vector<DtxStats> stats_;
    std::vector<double> pressure_;
    sim::Counter gatedBegins_;
    sim::Counter skippedSimUpdates_;
    /** Fresh Eq.-4 similarity per update, 20 buckets over [0,1). */
    sim::Histogram similarityHist_ =
        sim::Histogram::makeLinear(0.0, 1.0, 20);
    /** Post-write confidence values, 16 buckets over [0,256). */
    sim::Histogram confidenceHist_ =
        sim::Histogram::makeLinear(0.0, 256.0, 16);
};

} // namespace cm

#endif // BFGTS_CM_BFGTS_H
