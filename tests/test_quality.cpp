/**
 * @file
 * Tests of the decision-quality recorder (src/sim/quality.h) and the
 * PredictionQuality derived metrics (src/runner/results.h).
 *
 * The unit half is a mutation-style selftest in the audit-engine
 * tradition: synthetic samples drive every calibration bin and every
 * error-histogram bucket, proving each instrument actually populates
 * (a recorder that silently dropped a bucket would pass any
 * aggregate-only check). The integration half asserts the
 * observational contract -- attaching a recorder never changes
 * results, reports are byte-identical across hash seeds and sweep
 * worker counts, and the ledger totals reconcile exactly with the
 * obs-v1 prediction counters and the conflict-edge wasted cycles.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "runner/experiment.h"
#include "runner/results.h"
#include "runner/sweep.h"
#include "sim/det_hash.h"
#include "sim/json.h"
#include "sim/quality.h"

namespace {

using sim::QualityRecorder;

std::vector<mem::Addr>
lines(std::initializer_list<std::uint64_t> raw)
{
    return std::vector<mem::Addr>(raw);
}

// ---- estimator error --------------------------------------------------

TEST(QualityEstimate, FirstSampleRecordsEq2Only)
{
    QualityRecorder recorder;
    recorder.recordEstimate(/*key=*/3, lines({1, 2, 3, 4}),
                            /*est_size=*/5.0, /*est_inter=*/9.0,
                            /*est_sim=*/1.0, /*occupancy=*/0.1,
                            /*avg_size=*/4.0);
    const QualityRecorder::Data &data = recorder.data();
    EXPECT_EQ(data.estimateSamples, 1u);
    EXPECT_EQ(data.eq2SetSize.count(), 1u);
    // No previous exact set for key 3: Eq. 3/4 have no ground truth.
    EXPECT_EQ(data.eq3Intersection.count(), 0u);
    EXPECT_EQ(data.eq4Similarity.count(), 0u);
    // est 5 vs true 4 -> signed error +1.
    EXPECT_DOUBLE_EQ(data.eq2SetSize.sumSigned(), 1.0);
}

TEST(QualityEstimate, ComparesAgainstNotedExactSet)
{
    QualityRecorder recorder;
    recorder.noteSet(7, lines({10, 20, 30, 40}));
    // New set shares exactly {30, 40}: exact intersection 2, exact
    // similarity 2/4 = 0.5.
    recorder.recordEstimate(7, lines({30, 40, 50, 60}),
                            /*est_size=*/4.0, /*est_inter=*/3.0,
                            /*est_sim=*/0.75, /*occupancy=*/0.2,
                            /*avg_size=*/4.0);
    const QualityRecorder::Data &data = recorder.data();
    EXPECT_EQ(data.eq2SetSize.count(), 1u);
    EXPECT_DOUBLE_EQ(data.eq2SetSize.sumSigned(), 0.0);
    ASSERT_EQ(data.eq3Intersection.count(), 1u);
    EXPECT_DOUBLE_EQ(data.eq3Intersection.sumSigned(), 1.0);
    ASSERT_EQ(data.eq4Similarity.count(), 1u);
    EXPECT_DOUBLE_EQ(data.eq4Similarity.sumSigned(), 0.25);
}

TEST(QualityEstimate, NoteSetReplacesGroundTruthPerKey)
{
    QualityRecorder recorder;
    recorder.noteSet(1, lines({1, 2}));
    recorder.noteSet(1, lines({100, 200}));
    // Ground truth must be the *latest* noted set: disjoint from the
    // first one, identical to nothing -> exact intersection 0.
    recorder.recordEstimate(1, lines({1, 2}), 2.0, 0.0, 0.0, 0.1,
                            2.0);
    EXPECT_DOUBLE_EQ(recorder.data().eq3Intersection.sumSigned(), 0.0);
    EXPECT_DOUBLE_EQ(recorder.data().eq4Similarity.sumSigned(), 0.0);

    // Keys are independent: key 2 has no previous set yet.
    recorder.recordEstimate(2, lines({1}), 1.0, 5.0, 1.0, 0.1, 1.0);
    EXPECT_EQ(recorder.data().eq3Intersection.count(), 1u);
}

TEST(QualityEstimate, EverySignedErrorBucketPopulates)
{
    // Mutation-style: sweep the signed error across the nominal
    // range and require every one of the kBuckets cells to fill --
    // this is what makes the histogram trustworthy as a gate.
    QualityRecorder::ErrorStats stats(-16.0, 16.0);
    const double width =
        32.0 / QualityRecorder::ErrorStats::kBuckets;
    for (int i = 0; i < QualityRecorder::ErrorStats::kBuckets; ++i)
        stats.sample(-16.0 + width * (0.5 + i), 8, 0.5);
    for (int i = 0; i < QualityRecorder::ErrorStats::kBuckets; ++i)
        EXPECT_EQ(stats.signedError.bucketCount(i), 1u)
            << "signed-error bucket " << i << " never populated";
    // Out-of-range samples clamp into the edge buckets, never drop.
    stats.sample(-100.0, 8, 0.5);
    stats.sample(+100.0, 8, 0.5);
    EXPECT_EQ(stats.signedError.bucketCount(0), 2u);
    EXPECT_EQ(stats.signedError.bucketCount(
                  QualityRecorder::ErrorStats::kBuckets - 1),
              2u);
}

TEST(QualityEstimate, EverySizeAndOccupancyBucketPopulates)
{
    QualityRecorder::ErrorStats stats(-16.0, 16.0);
    // log2 size buckets: 0 | 1 | 2-3 | 4-7 | ... | 64+.
    for (int i = 0; i < QualityRecorder::ErrorStats::kSizeBuckets;
         ++i) {
        const std::uint64_t size =
            i == 0 ? 0 : (1ULL << (i - 1));
        stats.sample(1.0, size, 0.5);
        EXPECT_EQ(stats.bySize.bucketCount(i), 1u)
            << "size bucket " << i << " never populated";
    }
    // Linear occupancy buckets over [0, 1].
    QualityRecorder::ErrorStats occ(-16.0, 16.0);
    const int num_occ = QualityRecorder::ErrorStats::kOccBuckets;
    for (int i = 0; i < num_occ; ++i) {
        occ.sample(1.0, 8, (0.5 + i) / num_occ);
        EXPECT_EQ(occ.byOccupancy.bucketCount(i), 1u)
            << "occupancy bucket " << i << " never populated";
    }
}

TEST(QualityEstimate, MeanAndMaxTrackAbsoluteError)
{
    QualityRecorder::ErrorStats stats(-16.0, 16.0);
    stats.sample(3.0, 4, 0.1);
    stats.sample(-5.0, 4, 0.1);
    EXPECT_DOUBLE_EQ(stats.meanSigned(), -1.0);
    EXPECT_DOUBLE_EQ(stats.meanAbs(), 4.0);
    EXPECT_DOUBLE_EQ(stats.maxAbs, 5.0);
}

// ---- confidence calibration -------------------------------------------

TEST(QualityCalibration, EveryBinPopulatesAndCountsConflicts)
{
    QualityRecorder recorder;
    const int bins = QualityRecorder::Data::kCalibrationBins;
    static_assert(QualityRecorder::Data::kCalibrationBins >= 8,
                  "spec requires a >=8-bin reliability table");
    for (int i = 0; i < bins; ++i) {
        const double conf = (0.5 + i) / bins;
        // One conflicting and one clean decision per bin.
        recorder.recordOutcome(1, 0, 1, conf,
                               QualityRecorder::Outcome::TruePositive,
                               10);
        recorder.recordOutcome(2, 0, 1, conf,
                               QualityRecorder::Outcome::FalsePositive,
                               10);
    }
    const QualityRecorder::Data &data = recorder.data();
    EXPECT_EQ(data.brierSamples,
              static_cast<std::uint64_t>(2 * bins));
    for (int i = 0; i < bins; ++i) {
        const QualityRecorder::CalibrationBin &bin =
            data.calibration[static_cast<std::size_t>(i)];
        EXPECT_EQ(bin.decisions, 2u)
            << "calibration bin " << i << " never populated";
        EXPECT_EQ(bin.conflicts, 1u);
        EXPECT_EQ(bin.stalls, 2u);
        const double conf = (0.5 + i) / bins;
        EXPECT_DOUBLE_EQ(bin.sumConfidence, 2.0 * conf);
    }
}

TEST(QualityCalibration, BrierScoreIsMeanSquaredError)
{
    QualityRecorder recorder;
    // conf 0.8 on a conflict: (0.8-1)^2 = 0.04.
    recorder.recordOutcome(1, 0, 1, 0.8,
                           QualityRecorder::Outcome::TruePositive, 5);
    // conf 0.3 on a clean commit: (0.3-0)^2 = 0.09.
    recorder.recordOutcome(2, 0, 1, 0.3,
                           QualityRecorder::Outcome::FalsePositive, 5);
    EXPECT_NEAR(recorder.data().brierScore(), (0.04 + 0.09) / 2.0,
                1e-12);
}

TEST(QualityCalibration, NegativeConfidenceSkipsCalibrationOnly)
{
    QualityRecorder recorder;
    recorder.recordOutcome(1, 0, 1, -1.0,
                           QualityRecorder::Outcome::FalseNegative,
                           42);
    const QualityRecorder::Data &data = recorder.data();
    EXPECT_EQ(data.brierSamples, 0u);
    for (const QualityRecorder::CalibrationBin &bin :
         data.calibration)
        EXPECT_EQ(bin.decisions, 0u);
    // The ledger still saw the outcome.
    EXPECT_EQ(data.falseNegatives, 1u);
    EXPECT_EQ(data.fnWastedCycles, 42u);
}

TEST(QualityCalibration, EmptyRecorderHasZeroBrier)
{
    EXPECT_DOUBLE_EQ(QualityRecorder().data().brierScore(), 0.0);
}

// ---- cost-benefit ledger ----------------------------------------------

TEST(QualityLedger, OutcomesRouteCyclesToTheRightAccounts)
{
    QualityRecorder recorder;
    using Outcome = QualityRecorder::Outcome;
    recorder.recordOutcome(1, 0, 1, 0.9, Outcome::TruePositive, 100);
    recorder.recordOutcome(2, 0, 1, 0.1, Outcome::FalsePositive, 20);
    recorder.recordOutcome(3, 2, 1, 0.2, Outcome::FalseNegative, 50);
    recorder.recordOutcome(4, 0, 1, 0.8, Outcome::PredictedAbort, 30);
    recorder.recordOutcome(5, -1, 1, 0.0, Outcome::TrueNegative, 0);

    const QualityRecorder::Data &data = recorder.data();
    EXPECT_EQ(data.truePositives, 1u);
    EXPECT_EQ(data.falsePositives, 1u);
    EXPECT_EQ(data.falseNegatives, 1u);
    EXPECT_EQ(data.predictedAborts, 1u);
    EXPECT_EQ(data.trueNegatives, 1u);
    EXPECT_EQ(data.savedAbortCycles, 100u);
    EXPECT_EQ(data.wastedStallCycles, 20u);
    EXPECT_EQ(data.fnWastedCycles, 50u);
    EXPECT_EQ(data.predictedAbortWastedCycles, 30u);

    // Two enemies -> two pair rows; the TN (enemy -1) joins none.
    ASSERT_EQ(data.pairs.size(), 2u);
    const QualityRecorder::PairStats &versus0 =
        data.pairs.at({0, 1});
    EXPECT_EQ(versus0.truePositives, 1u);
    EXPECT_EQ(versus0.falsePositives, 1u);
    EXPECT_EQ(versus0.predictedAborts, 1u);
    EXPECT_EQ(versus0.savedAbortCycles, 100u);
    EXPECT_EQ(versus0.wastedStallCycles, 20u);
    EXPECT_EQ(versus0.predictedAbortWastedCycles, 30u);
    const QualityRecorder::PairStats &versus2 =
        data.pairs.at({2, 1});
    EXPECT_EQ(versus2.falseNegatives, 1u);
    EXPECT_EQ(versus2.fnWastedCycles, 50u);
}

TEST(QualityLedger, PairTableIsBoundedFirstSeen)
{
    QualityRecorder recorder;
    using Outcome = QualityRecorder::Outcome;
    const auto max_pairs =
        static_cast<std::int64_t>(QualityRecorder::Data::kMaxPairs);
    for (std::int64_t enemy = 0; enemy < max_pairs + 5; ++enemy)
        recorder.recordOutcome(1, enemy, 0, 0.5,
                               Outcome::TruePositive, 1);
    const QualityRecorder::Data &data = recorder.data();
    EXPECT_EQ(data.pairs.size(), QualityRecorder::Data::kMaxPairs);
    EXPECT_EQ(data.droppedEvents, 5u);
    // Global totals keep counting past the bound...
    EXPECT_EQ(data.truePositives,
              static_cast<std::uint64_t>(max_pairs + 5));
    // ...and an already-admitted pair still updates when full.
    recorder.recordOutcome(2, 0, 0, 0.5, Outcome::TruePositive, 1);
    EXPECT_EQ(recorder.data().pairs.at({0, 0}).truePositives, 2u);
    EXPECT_EQ(recorder.data().droppedEvents, 5u);
}

TEST(QualityLedger, JsonlSinkGetsOneLinePerOutcome)
{
    std::ostringstream jsonl;
    QualityRecorder recorder;
    recorder.setJsonlSink(&jsonl);
    recorder.recordOutcome(17, 3, 4, 0.5,
                           QualityRecorder::Outcome::TruePositive,
                           99);
    recorder.recordOutcome(18, -1, 4, -1.0,
                           QualityRecorder::Outcome::TrueNegative, 0);
    const std::string out = jsonl.str();
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
    EXPECT_NE(out.find("\"tick\":17"), std::string::npos);
    EXPECT_NE(out.find("\"outcome\":\"tp\""), std::string::npos);
    EXPECT_NE(out.find("\"outcome\":\"tn\""), std::string::npos);
    EXPECT_NE(out.find("\"conflict\":true"), std::string::npos);
    EXPECT_NE(out.find("\"stalled\":false"), std::string::npos);
}

TEST(QualityLedger, RunReportIsSchemaShaped)
{
    QualityRecorder recorder;
    recorder.recordOutcome(1, 0, 1, 0.5,
                           QualityRecorder::Outcome::TruePositive, 7);
    std::ostringstream os;
    sim::writeQualReport(os, "unit", recorder.data());
    const std::string report = os.str();
    EXPECT_NE(report.find("\"schema\": \"bfgts-qual-v1\""),
              std::string::npos);
    EXPECT_NE(report.find("\"kind\": \"run\""), std::string::npos);
    EXPECT_NE(report.find("\"estimator\""), std::string::npos);
    EXPECT_NE(report.find("\"reliability\""), std::string::npos);
    EXPECT_NE(report.find("\"brierScore\""), std::string::npos);
    EXPECT_NE(report.find("\"ledger\""), std::string::npos);
}

// ---- PredictionQuality derived metrics (runner/results.h) -------------

TEST(PredictionQualityMetrics, ZeroDenominatorsAreZeroNotNan)
{
    const runner::PredictionQuality empty;
    EXPECT_DOUBLE_EQ(empty.precision(), 0.0);
    EXPECT_DOUBLE_EQ(empty.recall(), 0.0);
    EXPECT_DOUBLE_EQ(empty.f1(), 0.0);
    EXPECT_DOUBLE_EQ(empty.accuracy(), 0.0);

    // Classified attempts but zero TP: precision and recall both hit
    // 0/x or x/0 paths, and f1's 0/0 harmonic mean must stay 0.
    runner::PredictionQuality no_tp;
    no_tp.falsePositives = 2;
    no_tp.falseNegatives = 3;
    EXPECT_DOUBLE_EQ(no_tp.precision(), 0.0);
    EXPECT_DOUBLE_EQ(no_tp.recall(), 0.0);
    EXPECT_DOUBLE_EQ(no_tp.f1(), 0.0);
    EXPECT_DOUBLE_EQ(no_tp.accuracy(), 0.0);

    // Only FP: recall's denominator is zero while precision's is not.
    runner::PredictionQuality only_fp;
    only_fp.falsePositives = 4;
    EXPECT_DOUBLE_EQ(only_fp.precision(), 0.0);
    EXPECT_DOUBLE_EQ(only_fp.recall(), 0.0);
    EXPECT_DOUBLE_EQ(only_fp.f1(), 0.0);

    // Only FN: precision's denominator is zero while recall's is not.
    runner::PredictionQuality only_fn;
    only_fn.falseNegatives = 4;
    EXPECT_DOUBLE_EQ(only_fn.precision(), 0.0);
    EXPECT_DOUBLE_EQ(only_fn.recall(), 0.0);
    EXPECT_DOUBLE_EQ(only_fn.f1(), 0.0);
}

TEST(PredictionQualityMetrics, DerivedValuesMatchDefinitions)
{
    runner::PredictionQuality q;
    q.truePositives = 6;
    q.falsePositives = 2;
    q.falseNegatives = 3;
    q.trueNegatives = 9;
    EXPECT_DOUBLE_EQ(q.precision(), 6.0 / 8.0);
    EXPECT_DOUBLE_EQ(q.recall(), 6.0 / 9.0);
    const double p = 6.0 / 8.0;
    const double r = 6.0 / 9.0;
    EXPECT_DOUBLE_EQ(q.f1(), 2.0 * p * r / (p + r));
    EXPECT_DOUBLE_EQ(q.accuracy(), 15.0 / 20.0);
}

// ---- integration: quality is observational ----------------------------

runner::RunOptions
smallOptions()
{
    runner::RunOptions options;
    options.numCpus = 4;
    options.threadsPerCpu = 2;
    options.txPerThread = 8;
    return options;
}

std::string
resultsString(const runner::SimResults &results)
{
    std::ostringstream os;
    runner::writeSweepResults(os, results);
    return os.str();
}

std::string
qualReportString(const QualityRecorder &recorder)
{
    std::ostringstream os;
    sim::writeQualReport(os, "unit", recorder.data());
    return os.str();
}

TEST(QualityIntegrationTest, RecordedRunLeavesResultsIdentical)
{
    const runner::RunOptions options = smallOptions();
    const runner::SimResults plain =
        runner::runStamp("Intruder", cm::CmKind::BfgtsHw, options);

    QualityRecorder recorder;
    const runner::SimResults recorded = runner::runStamp(
        "Intruder", cm::CmKind::BfgtsHw, options, nullptr, &recorder);
    EXPECT_EQ(resultsString(plain), resultsString(recorded));

    // The recorder actually measured the run it rode along on.
    const QualityRecorder::Data &data = recorder.data();
    EXPECT_GT(data.estimateSamples, 0u);
    EXPECT_GT(data.brierSamples, 0u);
    EXPECT_FALSE(data.pairs.empty());
}

TEST(QualityIntegrationTest, EstimatorErrorsArePinned)
{
    // Intruder 16x4 at 5 tx/thread (its first 4 Eq. 2-4 estimates)
    // and at the default length (all 582). Perfect signatures
    // estimate every value exactly; the Bloom errors under BFGTS-HW
    // are pinned, so a change to the signature build, the stored
    // filters or the recorder's exact intersection shows here.
    struct Pin {
        std::uint64_t count;
        const char *sumSigned;
        const char *sumAbs;
    };
    const struct {
        int txPerThread; // 0: the workload's default length
        std::uint64_t samples;
        Pin eq2, eq3, eq4;
    } runs[] = {
        {5, 4, {4, "0.3859238967884764", "0.3859238967884764"},
         {4, "0.05537879070844731", "0.11024995659269798"},
         {4, "0.005537879070844742", "0.011024995659269787"}},
        {0, 582, {582, "0.5574656280104673", "29.062040719955093"},
         {582, "17.590069866340556", "20.186994604274098"},
         {582, "2.610526921148011", "3.1583189183898903"}},
    };
    for (const auto &run : runs) {
        SCOPED_TRACE("tx/thread " + std::to_string(run.txPerThread));
        runner::RunOptions options;
        options.txPerThread = run.txPerThread;

        QualityRecorder exact;
        runner::runStamp("Intruder", cm::CmKind::BfgtsNoOverhead,
                         options, nullptr, &exact);
        for (const QualityRecorder::ErrorStats *stats :
             {&exact.data().eq2SetSize, &exact.data().eq3Intersection,
              &exact.data().eq4Similarity}) {
            EXPECT_GT(stats->count(), 0u);
            EXPECT_EQ(stats->maxAbs, 0.0);
        }

        QualityRecorder bloom;
        runner::runStamp("Intruder", cm::CmKind::BfgtsHw, options,
                         nullptr, &bloom);
        const QualityRecorder::Data &data = bloom.data();
        EXPECT_EQ(data.estimateSamples, run.samples);
        const std::pair<const QualityRecorder::ErrorStats &, Pin>
            cases[] = {{data.eq2SetSize, run.eq2},
                       {data.eq3Intersection, run.eq3},
                       {data.eq4Similarity, run.eq4}};
        for (const auto &[stats, pin] : cases) {
            EXPECT_EQ(stats.count(), pin.count);
            EXPECT_EQ(sim::jsonNumber(stats.sumSigned()), pin.sumSigned);
            EXPECT_EQ(sim::jsonNumber(stats.sumAbs), pin.sumAbs);
        }
    }
}

TEST(QualityIntegrationTest, LedgerReconcilesWithObsCounters)
{
    // The same invariants tools/quality_analyze.py enforces across
    // report files, checked in-process: the ledger's outcome totals
    // are exactly the obs-v1 prediction counters, and the FN +
    // predicted-abort wasted cycles are exactly the conflict-edge
    // wasted cycles (every abort is one of the two).
    QualityRecorder recorder;
    const runner::SimResults results = runner::runStamp(
        "Intruder", cm::CmKind::BfgtsHw, smallOptions(), nullptr,
        &recorder);
    const QualityRecorder::Data &data = recorder.data();
    EXPECT_EQ(data.truePositives, results.prediction.truePositives);
    EXPECT_EQ(data.falsePositives, results.prediction.falsePositives);
    EXPECT_EQ(data.falseNegatives, results.prediction.falseNegatives);
    EXPECT_EQ(data.trueNegatives, results.prediction.trueNegatives);
    EXPECT_EQ(data.predictedAborts, results.prediction.predictedAborts);

    sim::Cycles edge_wasted = 0;
    for (const auto &[edge, stats] : results.abortEdges)
        edge_wasted += stats.wastedCycles;
    EXPECT_EQ(data.fnWastedCycles + data.predictedAbortWastedCycles,
              edge_wasted);
}

class QualityDeterminismTest : public ::testing::Test
{
  protected:
    void TearDown() override { sim::setHashSeed(0); }
};

TEST_F(QualityDeterminismTest, QualReportIsHashSeedInvariant)
{
    const auto report_for = [](std::uint64_t hash_seed) {
        sim::setHashSeed(hash_seed);
        QualityRecorder recorder;
        std::ostringstream jsonl;
        recorder.setJsonlSink(&jsonl);
        runner::runStamp("Intruder", cm::CmKind::BfgtsHw,
                         smallOptions(), nullptr, &recorder);
        return std::pair<std::string, std::string>(
            qualReportString(recorder), jsonl.str());
    };
    const auto a = report_for(0x0123456789abcdefULL);
    const auto b = report_for(0xfedcba9876543210ULL);
    EXPECT_EQ(a.first, b.first)
        << "quality report depends on hash-container order";
    EXPECT_EQ(a.second, b.second)
        << "JSONL ledger depends on hash-container order";
    EXPECT_FALSE(a.first.empty());
    EXPECT_FALSE(a.second.empty());
}

std::vector<runner::SweepCell>
qualityMatrix()
{
    std::vector<runner::SweepCell> cells;
    for (const char *workload : {"Intruder", "Genome"}) {
        runner::SweepCell cell;
        cell.workload = workload;
        cell.cm = cm::CmKind::BfgtsHw;
        cell.options = smallOptions();
        cells.push_back(cell);
    }
    return cells;
}

TEST(QualitySweepTest, QualityReportIndependentOfWorkerCount)
{
    const auto report_for = [](int jobs) {
        runner::SweepOptions options;
        options.quality = true;
        options.jobs = jobs;
        runner::SweepRunner sweep(options);
        const auto results = sweep.run(qualityMatrix());
        for (const runner::SweepCellResult &result : results) {
            EXPECT_TRUE(result.ok);
            EXPECT_TRUE(result.quality.has_value());
        }
        std::ostringstream os;
        sweep.writeQualityReport(os, "unit-sweep");
        return os.str();
    };
    const std::string serial = report_for(1);
    const std::string parallel = report_for(8);
    EXPECT_EQ(serial, parallel);
    EXPECT_NE(serial.find("\"schema\": \"bfgts-qual-v1\""),
              std::string::npos);
    EXPECT_NE(serial.find("\"kind\": \"sweep\""), std::string::npos);
    EXPECT_NE(serial.find("\"qualityCells\": 2"), std::string::npos);
    EXPECT_NE(serial.find("\"aggregate\""), std::string::npos);
}

class QualitySweepCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // One directory per test and process: ctest -j runs the
        // discovered cases of this fixture concurrently.
        cacheDir_ = std::filesystem::temp_directory_path()
                  / ("bfgts_quality_cache_"
                     + std::string(::testing::UnitTest::GetInstance()
                                       ->current_test_info()
                                       ->name())
                     + "_" + std::to_string(::getpid()));
        std::filesystem::remove_all(cacheDir_);
    }

    void TearDown() override { std::filesystem::remove_all(cacheDir_); }

    std::filesystem::path cacheDir_;
};

TEST_F(QualitySweepCacheTest, QualitySkipsCacheReadsButNotWrites)
{
    // Cold quality-less pass fills the cache.
    runner::SweepOptions cold;
    cold.cacheDir = cacheDir_.string();
    runner::SweepRunner first(cold);
    const auto plain = first.run(qualityMatrix());
    ASSERT_EQ(first.stats().executed, 2);

    // Warm quality pass: the cache could answer every cell, but
    // quality data must be complete, so each cell executes anyway --
    // with byte-identical results.
    runner::SweepOptions warm = cold;
    warm.quality = true;
    runner::SweepRunner second(warm);
    const auto recorded = second.run(qualityMatrix());
    EXPECT_EQ(second.stats().executed, 2);
    EXPECT_EQ(second.stats().cacheHits, 0);
    ASSERT_EQ(recorded.size(), plain.size());
    for (std::size_t i = 0; i < recorded.size(); ++i) {
        EXPECT_FALSE(recorded[i].fromCache);
        EXPECT_TRUE(recorded[i].quality.has_value());
        EXPECT_EQ(resultsString(recorded[i].results),
                  resultsString(plain[i].results));
    }

    // The sweep report itself must not change under --quality.
    std::ostringstream plain_report, quality_report;
    first.writeReport(plain_report, "unit-sweep");
    second.writeReport(quality_report, "unit-sweep");
    EXPECT_EQ(plain_report.str(), quality_report.str());
}

} // namespace
