/**
 * @file
 * Decision-quality recorder: estimator error, confidence
 * calibration, and stall cost-benefit attribution (bfgts-qual-v1).
 *
 * The paper's mechanism rests on two estimated quantities -- the
 * Eq. 2-4 Bloom similarity estimate and the similarity-weighted
 * conflict confidence -- and this recorder measures both against
 * ground truth:
 *
 *  1. Estimator error. At each similarity computation the CM also
 *     hands over the transaction's true RW-line set; the recorder
 *     keeps the previous exact set per static transaction and
 *     records the signed error of the Eq. 2 set-size estimate, the
 *     Eq. 3 intersection estimate, and the Eq. 4 similarity against
 *     the exact values, bucketed by true set size and by Bloom
 *     occupancy at estimation time.
 *
 *  2. Confidence calibration. Every classified begin decision
 *     (stall or go) carries the conflict confidence the CM consulted,
 *     normalized to [0, 1]. The recorder bins decisions by predicted
 *     confidence and counts empirical conflicts per bin (reliability
 *     table) plus the Brier score over all samples.
 *
 *  3. Cost-benefit attribution. Each outcome is rolled up per
 *     (enemy sTxID, victim sTxID) pair in a bounded deterministic
 *     ledger: wasted-stall cycles (stalled, but the enemy would not
 *     have conflicted) vs saved-abort cycles (stalled and the enemy
 *     did conflict), alongside the TP/FP/FN/predicted-abort counts
 *     the obs-v1 report aggregates globally.
 *
 * Like the audit engine and the profiler, the recorder hangs off
 * SimConfig as a borrowed pointer: every hook site null-checks it,
 * so a run without --quality pays one branch per site, and an
 * attached recorder is purely observational -- it never adds
 * simulated cycles and never perturbs results. All state lives in
 * ordered containers keyed by static transaction IDs, so reports
 * are byte-identical across BFGTS_HASH_SEED values and, in sweep
 * mode, across --jobs counts.
 */

#ifndef BFGTS_SIM_QUALITY_H
#define BFGTS_SIM_QUALITY_H

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "mem/addr.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace sim {

class JsonWriter;

/**
 * Collects decision-quality telemetry for one simulation run.
 *
 * The nested Data struct is a plain value so sweep cells can snapshot
 * it into their result rows (same side-channel pattern as
 * Profiler::Data).
 */
class QualityRecorder {
public:
    /** How a classified begin decision turned out. */
    enum class Outcome {
        /** Stalled, and the enemy's write set did overlap. */
        TruePositive,
        /** Stalled, but no conflict would have occurred. */
        FalsePositive,
        /** Did not stall, and a conflict aborted the attempt. */
        FalseNegative,
        /** Stalled, yet the attempt still aborted afterwards. */
        PredictedAbort,
        /** Did not stall, and the attempt committed cleanly. */
        TrueNegative,
    };

    /** Signed-error statistics for one estimator (Eq. 2, 3, or 4). */
    struct ErrorStats {
        /** Signed-error histogram resolution. */
        static constexpr int kBuckets = 16;
        /** log2 buckets over the true (exact) set size. */
        static constexpr int kSizeBuckets = 8;
        /** Linear buckets over Bloom occupancy in [0, 1]. */
        static constexpr int kOccBuckets = 8;

        /** @p histogram_lo and @p histogram_hi give the nominal
         *  signed-error range [lo, hi). */
        ErrorStats(double histogram_lo, double histogram_hi)
            : signedError(Histogram::makeLinear(histogram_lo,
                                                histogram_hi, kBuckets))
        {
        }

        /** Signed error, clamped into the nominal range. */
        Histogram signedError;
        double sumAbs = 0.0;
        double maxAbs = 0.0;
        /** Samples by true set size, with their |error| totals. */
        Histogram bySize = Histogram::makeLog2(kSizeBuckets);
        std::array<double, kSizeBuckets> sizeSumAbs{};
        /** Samples by Bloom occupancy, with their |error| totals. */
        Histogram byOccupancy = Histogram::makeLinear(0.0, 1.0, kOccBuckets);
        std::array<double, kOccBuckets> occSumAbs{};

        void sample(double signed_error, std::uint64_t true_size,
                    double occupancy);
        std::uint64_t count() const { return signedError.count(); }
        double sumSigned() const { return signedError.sum(); }
        double meanSigned() const { return signedError.mean(); }
        double meanAbs() const;
        void writeJson(JsonWriter &jw) const;
    };

    /** One row of the confidence reliability table. */
    struct CalibrationBin {
        std::uint64_t decisions = 0;
        std::uint64_t stalls = 0;
        std::uint64_t conflicts = 0;
        double sumConfidence = 0.0;
    };

    /** Per-(enemy, victim) outcome and cycle attribution. */
    struct PairStats {
        std::uint64_t truePositives = 0;
        std::uint64_t falsePositives = 0;
        std::uint64_t falseNegatives = 0;
        std::uint64_t predictedAborts = 0;
        /** Stall cycles spent on attempts that had no conflict. */
        Cycles wastedStallCycles = 0;
        /** Attempt cycles an abort would have thrown away (TP). */
        Cycles savedAbortCycles = 0;
        /** Attempt cycles actually thrown away unpredicted (FN). */
        Cycles fnWastedCycles = 0;
        /** Attempt cycles thrown away despite stalling. */
        Cycles predictedAbortWastedCycles = 0;
    };

    /** Plain-value snapshot of everything the recorder measured. */
    struct Data {
        /** Confidence reliability-table resolution (>= 8 per spec). */
        static constexpr int kCalibrationBins = 10;
        /** Pair-ledger bound: deterministic first-seen insertion. */
        static constexpr std::size_t kMaxPairs = 4096;

        /** Eq. 2 set-size estimate, signed lines of error. */
        ErrorStats eq2SetSize{-16.0, 16.0};
        /** Eq. 3 intersection estimate, signed lines of error. */
        ErrorStats eq3Intersection{-16.0, 16.0};
        /** Eq. 4 similarity estimate, signed error in [-1, 1]. */
        ErrorStats eq4Similarity{-1.0, 1.0};
        /** Similarity computations sampled (one per Eq. 2-4 trio). */
        std::uint64_t estimateSamples = 0;

        std::array<CalibrationBin, kCalibrationBins> calibration{};
        double brierSum = 0.0;
        std::uint64_t brierSamples = 0;

        /** Ordered by (enemy sTx, victim sTx); bounded by kMaxPairs. */
        std::map<std::pair<std::int64_t, std::int64_t>, PairStats>
            pairs;
        /** Outcomes not attributed to a pair (ledger full). */
        std::uint64_t droppedEvents = 0;

        /** Global outcome totals (pair-attributed or not). */
        std::uint64_t truePositives = 0;
        std::uint64_t falsePositives = 0;
        std::uint64_t falseNegatives = 0;
        std::uint64_t trueNegatives = 0;
        std::uint64_t predictedAborts = 0;
        Cycles wastedStallCycles = 0;
        Cycles savedAbortCycles = 0;
        Cycles fnWastedCycles = 0;
        Cycles predictedAbortWastedCycles = 0;

        /** Mean squared error of confidence vs conflict outcome. */
        double brierScore() const;
        double calibrationBinLo(int i) const;
        double calibrationBinHi(int i) const;
        /** Body of the bfgts-qual-v1 report (no envelope). */
        void writeJson(JsonWriter &jw) const;
    };

    QualityRecorder() = default;

    /**
     * Optional per-decision JSONL ledger sink (one line per
     * classified outcome). Borrowed; must outlive the recorder.
     */
    void setJsonlSink(std::ostream *jsonl) { jsonl_ = jsonl; }

    /**
     * Record one similarity computation for static transaction
     * @p key. @p rw_lines is the committing attempt's exact RW-line
     * set (sorted, unique); the previous exact set stored via
     * noteSet() is the ground truth for Eq. 3/4. Estimates are the
     * values the CM actually used; @p occupancy is the committing
     * signature's fill fraction and @p avg_size the Eq. 4
     * denominator. Eq. 2 is recorded even when no previous set
     * exists yet.
     */
    void recordEstimate(std::int64_t key,
                        const std::vector<mem::Addr> &rw_lines,
                        double est_size, double est_inter,
                        double est_sim, double occupancy,
                        double avg_size);

    /**
     * Remember @p rw_lines as the exact set behind the signature the
     * CM just stored for @p key (call exactly when the CM refreshes
     * its stored lastBloom, so ground truth tracks the estimate).
     */
    void noteSet(std::int64_t key,
                 const std::vector<mem::Addr> &rw_lines);

    /**
     * Record one classified begin decision. @p confidence is the
     * predicted conflict probability in [0, 1], or negative when the
     * CM consulted no confidence (the sample then skips calibration
     * but still feeds the ledger). @p enemy_stx is negative for
     * outcomes with no enemy (true negatives). @p cycles carries the
     * outcome's cycle attribution: stall cycles for FP, attempt
     * cycles for TP/FN/predicted-abort, zero for TN.
     */
    void recordOutcome(Tick tick, std::int64_t enemy_stx,
                       std::int64_t victim_stx, double confidence,
                       Outcome outcome, Cycles cycles);

    const Data &data() const { return data_; }

private:
    Data data_;
    std::ostream *jsonl_ = nullptr;
    /** Exact RW-line set behind each stored signature. */
    std::map<std::int64_t, std::vector<mem::Addr>> prevSets_;
};

/** Name of an outcome as emitted in the JSONL ledger. */
const char *qualityOutcomeName(QualityRecorder::Outcome outcome);

/**
 * Write a complete single-run bfgts-qual-v1 report: envelope
 * (schema/kind/name/git) around Data::writeJson.
 */
void writeQualReport(std::ostream &os, const std::string &name,
                     const QualityRecorder::Data &data);

} // namespace sim

#endif // BFGTS_SIM_QUALITY_H
