#include "quality.h"

#include <algorithm>
#include <cmath>

#include "sim/json.h"
#include "sim/logging.h"

namespace sim {

void
QualityRecorder::ErrorStats::sample(double signed_error,
                                    std::uint64_t true_size,
                                    double occupancy)
{
    signedError.sample(signed_error);
    const double abs_error = std::abs(signed_error);
    sumAbs += abs_error;
    maxAbs = std::max(maxAbs, abs_error);
    const auto size = static_cast<double>(true_size);
    sizeSumAbs[static_cast<std::size_t>(bySize.bucketOf(size))] +=
        abs_error;
    bySize.sample(size);
    occSumAbs[static_cast<std::size_t>(byOccupancy.bucketOf(occupancy))] +=
        abs_error;
    byOccupancy.sample(occupancy);
}

double
QualityRecorder::ErrorStats::meanAbs() const
{
    if (count() == 0)
        return 0.0;
    return sumAbs / static_cast<double>(count());
}

namespace {

/** Write @p hist's non-empty buckets, each with the mean |error| of
 *  its samples (@p sum_abs per bucket), as a JSON array. */
template <std::size_t N>
void
writeAbsErrorBuckets(JsonWriter &jw, const char *name,
                     const Histogram &hist,
                     const std::array<double, N> &sum_abs)
{
    jw.beginArray(name);
    for (int i = 0; i < hist.numBuckets(); ++i) {
        const std::uint64_t n = hist.bucketCount(i);
        if (n == 0)
            continue;
        jw.beginObject();
        jw.kv("lo", hist.bucketLo(i));
        // +inf in the last log2 bucket's edge serializes as null.
        jw.kv("hi", hist.bucketHi(i));
        jw.kv("n", n);
        jw.kv("meanAbs", sum_abs[static_cast<std::size_t>(i)]
                             / static_cast<double>(n));
        jw.endObject();
    }
    jw.endArray();
}

} // namespace

void
QualityRecorder::ErrorStats::writeJson(JsonWriter &jw) const
{
    jw.kv("count", count());
    jw.kv("meanSigned", meanSigned());
    jw.kv("meanAbs", meanAbs());
    jw.kv("maxAbs", maxAbs);
    jw.beginObject("hist");
    signedError.writeJson(jw);
    jw.endObject();
    writeAbsErrorBuckets(jw, "byTrueSetSize", bySize, sizeSumAbs);
    writeAbsErrorBuckets(jw, "byOccupancy", byOccupancy, occSumAbs);
}

double
QualityRecorder::Data::brierScore() const
{
    if (brierSamples == 0)
        return 0.0;
    return brierSum / static_cast<double>(brierSamples);
}

double
QualityRecorder::Data::calibrationBinLo(int i) const
{
    return static_cast<double>(i)
         / static_cast<double>(kCalibrationBins);
}

double
QualityRecorder::Data::calibrationBinHi(int i) const
{
    return static_cast<double>(i + 1)
         / static_cast<double>(kCalibrationBins);
}

void
QualityRecorder::Data::writeJson(JsonWriter &jw) const
{
    jw.beginObject("estimator");
    jw.kv("samples", estimateSamples);
    jw.beginObject("eq2_set_size");
    eq2SetSize.writeJson(jw);
    jw.endObject();
    jw.beginObject("eq3_intersection");
    eq3Intersection.writeJson(jw);
    jw.endObject();
    jw.beginObject("eq4_similarity");
    eq4Similarity.writeJson(jw);
    jw.endObject();
    jw.endObject();

    jw.beginObject("calibration");
    jw.kv("samples", brierSamples);
    jw.kv("bins", static_cast<std::uint64_t>(kCalibrationBins));
    jw.kv("brierScore", brierScore());
    jw.beginArray("reliability");
    for (int i = 0; i < kCalibrationBins; ++i) {
        const CalibrationBin &bin =
            calibration[static_cast<std::size_t>(i)];
        jw.beginObject();
        jw.kv("lo", calibrationBinLo(i));
        jw.kv("hi", calibrationBinHi(i));
        jw.kv("decisions", bin.decisions);
        jw.kv("stalls", bin.stalls);
        jw.kv("conflicts", bin.conflicts);
        jw.kv("meanConfidence",
              bin.decisions == 0
                  ? 0.0
                  : bin.sumConfidence
                        / static_cast<double>(bin.decisions));
        jw.kv("conflictRate",
              bin.decisions == 0
                  ? 0.0
                  : static_cast<double>(bin.conflicts)
                        / static_cast<double>(bin.decisions));
        jw.endObject();
    }
    jw.endArray();
    jw.endObject();

    jw.beginObject("ledger");
    jw.kv("maxPairs", static_cast<std::uint64_t>(kMaxPairs));
    jw.kv("droppedEvents", droppedEvents);
    jw.beginObject("totals");
    jw.kv("truePositives", truePositives);
    jw.kv("falsePositives", falsePositives);
    jw.kv("falseNegatives", falseNegatives);
    jw.kv("trueNegatives", trueNegatives);
    jw.kv("predictedAborts", predictedAborts);
    jw.kv("wastedStallCycles", wastedStallCycles);
    jw.kv("savedAbortCycles", savedAbortCycles);
    jw.kv("fnWastedCycles", fnWastedCycles);
    jw.kv("predictedAbortWastedCycles", predictedAbortWastedCycles);
    jw.endObject();
    jw.beginArray("pairs");
    for (const auto &[key, stats] : pairs) {
        jw.beginObject();
        jw.kv("enemy", key.first);
        jw.kv("victim", key.second);
        jw.kv("truePositives", stats.truePositives);
        jw.kv("falsePositives", stats.falsePositives);
        jw.kv("falseNegatives", stats.falseNegatives);
        jw.kv("predictedAborts", stats.predictedAborts);
        jw.kv("wastedStallCycles", stats.wastedStallCycles);
        jw.kv("savedAbortCycles", stats.savedAbortCycles);
        jw.kv("fnWastedCycles", stats.fnWastedCycles);
        jw.kv("predictedAbortWastedCycles",
              stats.predictedAbortWastedCycles);
        jw.endObject();
    }
    jw.endArray();
    jw.endObject();
}

void
QualityRecorder::recordEstimate(std::int64_t key,
                                const std::vector<mem::Addr> &rw_lines,
                                double est_size, double est_inter,
                                double est_sim, double occupancy,
                                double avg_size)
{
    ++data_.estimateSamples;
    const auto true_size =
        static_cast<std::uint64_t>(rw_lines.size());
    data_.eq2SetSize.sample(
        est_size - static_cast<double>(true_size), true_size,
        occupancy);

    const auto prev = prevSets_.find(key);
    if (prev == prevSets_.end())
        return;

    // Both sets arrive sorted and unique (the runner canonicalizes
    // rw_lines before the CM sees them).
    const std::size_t exact_inter =
        mem::commonLines(rw_lines, prev->second);
    data_.eq3Intersection.sample(
        est_inter - static_cast<double>(exact_inter), true_size,
        occupancy);

    const double exact_sim =
        avg_size <= 0.0
            ? 0.0
            : std::clamp(static_cast<double>(exact_inter) / avg_size,
                         0.0, 1.0);
    data_.eq4Similarity.sample(est_sim - exact_sim, true_size,
                               occupancy);
}

void
QualityRecorder::noteSet(std::int64_t key,
                         const std::vector<mem::Addr> &rw_lines)
{
    prevSets_[key] = rw_lines;
}

void
QualityRecorder::recordOutcome(Tick tick, std::int64_t enemy_stx,
                               std::int64_t victim_stx,
                               double confidence, Outcome outcome,
                               Cycles cycles)
{
    const bool stalled = outcome == Outcome::TruePositive
                      || outcome == Outcome::FalsePositive
                      || outcome == Outcome::PredictedAbort;
    const bool conflict = outcome == Outcome::TruePositive
                       || outcome == Outcome::FalseNegative
                       || outcome == Outcome::PredictedAbort;

    if (confidence >= 0.0) {
        static const Histogram bins =
            Histogram::makeLinear(0.0, 1.0, Data::kCalibrationBins);
        CalibrationBin &b = data_.calibration[static_cast<std::size_t>(
            bins.bucketOf(confidence))];
        ++b.decisions;
        if (stalled)
            ++b.stalls;
        if (conflict)
            ++b.conflicts;
        b.sumConfidence += confidence;
        const double err = confidence - (conflict ? 1.0 : 0.0);
        data_.brierSum += err * err;
        ++data_.brierSamples;
    }

    PairStats *slot = nullptr;
    if (enemy_stx >= 0) {
        const std::pair<std::int64_t, std::int64_t> key{enemy_stx,
                                                        victim_stx};
        const auto it = data_.pairs.find(key);
        if (it != data_.pairs.end()) {
            slot = &it->second;
        } else if (data_.pairs.size() < Data::kMaxPairs) {
            slot = &data_.pairs[key];
        } else {
            ++data_.droppedEvents;
        }
    }

    switch (outcome) {
    case Outcome::TruePositive:
        ++data_.truePositives;
        data_.savedAbortCycles += cycles;
        if (slot != nullptr) {
            ++slot->truePositives;
            slot->savedAbortCycles += cycles;
        }
        break;
    case Outcome::FalsePositive:
        ++data_.falsePositives;
        data_.wastedStallCycles += cycles;
        if (slot != nullptr) {
            ++slot->falsePositives;
            slot->wastedStallCycles += cycles;
        }
        break;
    case Outcome::FalseNegative:
        ++data_.falseNegatives;
        data_.fnWastedCycles += cycles;
        if (slot != nullptr) {
            ++slot->falseNegatives;
            slot->fnWastedCycles += cycles;
        }
        break;
    case Outcome::PredictedAbort:
        ++data_.predictedAborts;
        data_.predictedAbortWastedCycles += cycles;
        if (slot != nullptr) {
            ++slot->predictedAborts;
            slot->predictedAbortWastedCycles += cycles;
        }
        break;
    case Outcome::TrueNegative:
        ++data_.trueNegatives;
        break;
    }

    if (jsonl_ != nullptr) {
        JsonWriter jw(*jsonl_, /*indent=*/0);
        jw.beginObject();
        jw.kv("tick", static_cast<std::uint64_t>(tick));
        jw.kv("enemy", enemy_stx);
        jw.kv("victim", victim_stx);
        jw.kv("confidence", confidence);
        jw.kv("outcome", qualityOutcomeName(outcome));
        jw.kv("stalled", stalled);
        jw.kv("conflict", conflict);
        jw.kv("cycles", static_cast<std::uint64_t>(cycles));
        jw.endObject();
        *jsonl_ << '\n';
    }
}

const char *
qualityOutcomeName(QualityRecorder::Outcome outcome)
{
    switch (outcome) {
    case QualityRecorder::Outcome::TruePositive:
        return "tp";
    case QualityRecorder::Outcome::FalsePositive:
        return "fp";
    case QualityRecorder::Outcome::FalseNegative:
        return "fn";
    case QualityRecorder::Outcome::PredictedAbort:
        return "predicted_abort";
    case QualityRecorder::Outcome::TrueNegative:
        return "tn";
    }
    return "?";
}

void
writeQualReport(std::ostream &os, const std::string &name,
                const QualityRecorder::Data &data)
{
    JsonWriter jw(os);
    jw.beginObject();
    jw.kv("schema", "bfgts-qual-v1");
    jw.kv("kind", "run");
    jw.kv("name", name);
    jw.kv("git", buildGitDescribe());
    jw.beginObject("run");
    data.writeJson(jw);
    jw.endObject();
    jw.endObject();
    os << "\n";
}

} // namespace sim
