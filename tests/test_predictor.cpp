/**
 * @file
 * Unit tests for the hardware scheduling accelerator: the CPU Table
 * every unit walks, Example 1's lookup algorithm, confidence-cache
 * timing and refetch counting, plus a differential test against the
 * N-table, N-snoop reference model the shared-table predictor
 * replaces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cpu/predictor.h"
#include "htm/cpu_table.h"
#include "sim/random.h"

namespace {

using cpu::PredictorConfig;
using cpu::PredictorSystem;
using cpu::PredictResult;

class PredictorTest : public ::testing::Test
{
  protected:
    PredictorTest() : ids_(4, 16), table_(4), predictors_(table_, ids_)
    {
    }

    /** @p dtx starts on @p cpu: the CPU Table, then the broadcast. */
    void
    begin(sim::CpuId cpu, htm::DTxId dtx)
    {
        table_.start(cpu, dtx);
        predictors_.broadcastBegin(cpu);
    }

    /** The transaction on @p cpu ends. */
    void
    end(sim::CpuId cpu)
    {
        table_.end(cpu, table_.runningOn(cpu));
        predictors_.broadcastEnd(cpu);
    }

    /** Confidence reader backed by a small matrix. */
    cpu::ConfidenceFn
    reader()
    {
        return [this](htm::STxId row, htm::STxId col) {
            return conf_[row][col];
        };
    }

    htm::TxIdSpace ids_;
    htm::CpuTable table_;
    PredictorSystem predictors_;
    std::uint32_t conf_[4][4] = {};
};

TEST_F(PredictorTest, CpuTablesStartEmpty)
{
    for (int owner = 0; owner < 4; ++owner)
        EXPECT_EQ(table_.runningOn(owner), htm::kNoTx);
}

TEST_F(PredictorTest, BroadcastBeginUpdatesAllPredictors)
{
    conf_[1][2] = 100;
    const htm::DTxId dtx = ids_.make(5, 2);
    begin(1, dtx);
    EXPECT_EQ(predictors_.cpuTableUpdates().value(), 1u);
    // Every other CPU's predictor sees the new entry.
    for (int viewer : {0, 2, 3})
        EXPECT_EQ(predictors_.predict(viewer, 1, reader(), 50).waitOn,
                  dtx);
}

TEST_F(PredictorTest, BroadcastEndClearsEntry)
{
    conf_[1][1] = 100;
    begin(2, ids_.make(1, 1));
    end(2);
    EXPECT_EQ(table_.runningOn(2), htm::kNoTx);
    EXPECT_FALSE(
        predictors_.predict(0, 1, reader(), 50).conflictPredicted);
    EXPECT_EQ(predictors_.cpuTableUpdates().value(), 2u);
}

TEST_F(PredictorTest, NoRunningTxPredictsNoConflict)
{
    PredictResult result = predictors_.predict(0, 1, reader(), 50);
    EXPECT_FALSE(result.conflictPredicted);
    EXPECT_EQ(result.waitOn, htm::kNoTx);
    EXPECT_GT(result.latency, 0u);
}

TEST_F(PredictorTest, PredictsConflictAboveThreshold)
{
    conf_[1][2] = 100;
    const htm::DTxId running = ids_.make(7, 2);
    begin(3, running);
    PredictResult result = predictors_.predict(0, 1, reader(), 50);
    EXPECT_TRUE(result.conflictPredicted);
    EXPECT_EQ(result.waitOn, running);
}

TEST_F(PredictorTest, ThresholdIsStrict)
{
    conf_[1][2] = 50;
    begin(3, ids_.make(7, 2));
    // conf == threshold does NOT trigger (Example 1: conf > threshold).
    EXPECT_FALSE(
        predictors_.predict(0, 1, reader(), 50).conflictPredicted);
    conf_[1][2] = 51;
    EXPECT_TRUE(
        predictors_.predict(0, 1, reader(), 50).conflictPredicted);
}

TEST_F(PredictorTest, OwnCpuIsSkipped)
{
    conf_[1][1] = 255;
    begin(0, ids_.make(0, 1));
    // Predicting on CPU 0 must not serialize against itself.
    EXPECT_FALSE(
        predictors_.predict(0, 1, reader(), 50).conflictPredicted);
}

TEST_F(PredictorTest, ReturnsFirstConflictingCpu)
{
    conf_[0][1] = 200;
    conf_[0][2] = 200;
    const htm::DTxId first = ids_.make(1, 1);
    const htm::DTxId second = ids_.make(2, 2);
    begin(1, first);
    begin(2, second);
    PredictResult result = predictors_.predict(0, 0, reader(), 50);
    EXPECT_TRUE(result.conflictPredicted);
    EXPECT_EQ(result.waitOn, first); // scan order: CPU 1 before 2
}

TEST_F(PredictorTest, LowConfidenceTxIsIgnored)
{
    conf_[0][1] = 10;
    conf_[0][3] = 90;
    begin(1, ids_.make(1, 1));
    begin(2, ids_.make(2, 3));
    PredictResult result = predictors_.predict(0, 0, reader(), 50);
    EXPECT_TRUE(result.conflictPredicted);
    EXPECT_EQ(ids_.staticOf(result.waitOn), 3);
}

TEST_F(PredictorTest, FirstLookupMissesThenHits)
{
    conf_[1][2] = 10; // below threshold: full scan happens
    begin(3, ids_.make(7, 2));
    PredictResult cold = predictors_.predict(0, 1, reader(), 50);
    PredictResult warm = predictors_.predict(0, 1, reader(), 50);
    EXPECT_GT(cold.latency, warm.latency);
    EXPECT_EQ(predictors_.confCache(0).misses().value(), 1u);
    EXPECT_EQ(predictors_.confCache(0).hits().value(), 1u);
}

TEST_F(PredictorTest, ConfidenceWriteInvalidatesButRefetches)
{
    conf_[1][2] = 10;
    begin(3, ids_.make(7, 2));
    predictors_.predict(0, 1, reader(), 50); // warm the cache
    predictors_.onConfidenceWrite(1, 2);
    EXPECT_EQ(predictors_.refetches(0), 1u);
    // Thanks to refetch-on-invalidate, the next predict still hits.
    predictors_.predict(0, 1, reader(), 50);
    EXPECT_EQ(predictors_.confCache(0).misses().value(), 1u);
    EXPECT_EQ(predictors_.confCache(0).hits().value(), 1u);
}

TEST_F(PredictorTest, RefetchCountsWritesWhileLineResident)
{
    conf_[1][2] = 10;
    begin(3, ids_.make(7, 2));
    predictors_.onConfidenceWrite(1, 2); // nobody holds the line yet
    predictors_.predict(0, 1, reader(), 50);
    for (int i = 0; i < 3; ++i)
        predictors_.onConfidenceWrite(1, 2);
    // Only CPU 0 holds the line; each write refetches it once.
    EXPECT_EQ(predictors_.refetches(0), 3u);
    EXPECT_EQ(predictors_.refetches(1), 0u);
    EXPECT_EQ(predictors_.snoopInvalidations().value(), 4u);
    EXPECT_TRUE(predictors_.predict(0, 1, reader(), 50).latency
                < PredictorConfig{}.missLatency);
}

TEST(PredictorRefetch, RefetchesSettleWhenTheLineIsEvicted)
{
    // A one-line cache and one entry per line: every lookup of a
    // different entry evicts the previous one.
    PredictorConfig config;
    config.confCache = {.sizeBytes = 64, .associativity = 1,
                        .hitLatency = 1};
    config.entryBytes = 64;
    const htm::TxIdSpace ids(4, 4);
    htm::CpuTable table(2);
    PredictorSystem predictors(table, ids, config);
    const auto read = [](htm::STxId, htm::STxId) { return 0u; };

    table.start(1, ids.make(1, 2));
    predictors.predict(0, 1, read, 50); // installs confidence[1][2]
    predictors.onConfidenceWrite(1, 2);
    predictors.onConfidenceWrite(1, 2);
    EXPECT_EQ(predictors.refetches(0), 2u);

    table.end(1, ids.make(1, 2));
    table.start(1, ids.make(1, 3));
    predictors.predict(0, 1, read, 50); // evicts confidence[1][2]
    predictors.onConfidenceWrite(1, 2); // no longer resident
    EXPECT_EQ(predictors.refetches(0), 2u);
    predictors.onConfidenceWrite(1, 3);
    EXPECT_EQ(predictors.refetches(0), 3u);
}

TEST_F(PredictorTest, LatencyScalesWithEntriesScanned)
{
    // Empty table: latency = trigger + 3 entries * perEntry.
    PredictorConfig config;
    PredictResult result = predictors_.predict(0, 0, reader(), 50);
    EXPECT_EQ(result.latency,
              config.triggerCost + 3 * config.perEntryCost);
}

TEST_F(PredictorTest, PredictionCountersTrack)
{
    conf_[0][1] = 100;
    predictors_.predict(0, 0, reader(), 50);
    begin(1, ids_.make(1, 1));
    predictors_.predict(0, 0, reader(), 50);
    EXPECT_EQ(predictors_.predictions().value(), 2u);
    EXPECT_EQ(predictors_.conflictsPredicted().value(), 1u);
}

TEST_F(PredictorTest, DistinctCpusHaveDistinctCaches)
{
    conf_[1][2] = 10;
    begin(3, ids_.make(7, 2));
    predictors_.predict(0, 1, reader(), 50);
    // CPU 1's cache is still cold.
    EXPECT_EQ(predictors_.confCache(1).misses().value(), 0u);
    predictors_.predict(1, 1, reader(), 50);
    EXPECT_EQ(predictors_.confCache(1).misses().value(), 1u);
}

// ---- differential test against the N-table reference ---------------

/**
 * The predictor as first modeled, kept as the oracle: every CPU has
 * its own CPU Table, written by every broadcast; every confidence
 * write snoops all N caches with a tag search and counts a refetch
 * where the line is resident; the scan charges perEntryCost per
 * remote entry it visits.
 */
class ReferencePredictor
{
  public:
    ReferencePredictor(int num_cpus, const htm::TxIdSpace &ids,
                       const PredictorConfig &config)
        : ids_(ids), config_(config),
          units_(static_cast<std::size_t>(num_cpus),
                 Unit{std::vector<htm::DTxId>(
                          static_cast<std::size_t>(num_cpus),
                          htm::kNoTx),
                      mem::Cache(config.confCache), 0})
    {
    }

    void
    broadcastBegin(sim::CpuId cpu, htm::DTxId dtx)
    {
        for (Unit &unit : units_)
            unit.cpuTable[static_cast<std::size_t>(cpu)] = dtx;
        ++cpuTableUpdates;
    }

    void
    broadcastEnd(sim::CpuId cpu)
    {
        broadcastBegin(cpu, htm::kNoTx);
    }

    void
    onConfidenceWrite(htm::STxId row, htm::STxId col)
    {
        for (std::size_t cpu = 0; cpu < units_.size(); ++cpu) {
            Unit &unit = units_[cpu];
            if (unit.cache.contains(
                    confAddr(static_cast<sim::CpuId>(cpu), row, col)))
                ++unit.refetches;
        }
        ++snoopInvalidations;
    }

    PredictResult
    predict(sim::CpuId self, htm::STxId stx,
            const cpu::ConfidenceFn &read_conf, std::uint32_t threshold)
    {
        Unit &unit = units_[static_cast<std::size_t>(self)];
        PredictResult result;
        result.latency = config_.triggerCost;
        const auto num_cpus = static_cast<sim::CpuId>(units_.size());
        for (sim::CpuId remote = 0; remote < num_cpus; ++remote) {
            if (remote == self)
                continue;
            result.latency += config_.perEntryCost;
            const htm::DTxId running =
                unit.cpuTable[static_cast<std::size_t>(remote)];
            if (running == htm::kNoTx)
                continue;
            const htm::STxId confidx = ids_.staticOf(running);
            const bool hit =
                unit.cache.access(confAddr(self, stx, confidx));
            result.latency += hit ? unit.cache.hitLatency()
                                  : config_.missLatency;
            const std::uint32_t conf = read_conf(stx, confidx);
            result.maxConfidence = std::max(result.maxConfidence, conf);
            if (conf > threshold) {
                result.conflictPredicted = true;
                result.waitOn = running;
                return result;
            }
        }
        return result;
    }

    const mem::Cache &
    confCache(sim::CpuId cpu) const
    {
        return units_[static_cast<std::size_t>(cpu)].cache;
    }

    std::uint64_t
    refetches(sim::CpuId cpu) const
    {
        return units_[static_cast<std::size_t>(cpu)].refetches;
    }

    std::uint64_t snoopInvalidations = 0;
    std::uint64_t cpuTableUpdates = 0;

  private:
    struct Unit {
        std::vector<htm::DTxId> cpuTable;
        mem::Cache cache;
        std::uint64_t refetches;
    };

    mem::Addr
    confAddr(sim::CpuId cpu, htm::STxId row, htm::STxId col) const
    {
        const mem::Addr base = 0x10000000ULL
                             + static_cast<mem::Addr>(cpu) * (1ULL << 20);
        const auto index =
            static_cast<mem::Addr>(row)
                * static_cast<mem::Addr>(ids_.numStaticTx())
            + static_cast<mem::Addr>(col);
        return base + index * config_.entryBytes;
    }

    const htm::TxIdSpace &ids_;
    PredictorConfig config_;
    std::vector<Unit> units_;
};

struct Geometry {
    const char *name;
    int staticTx;
    PredictorConfig config;
};

void
expectSameCounters(const PredictorSystem &fast,
                   const ReferencePredictor &ref, int cpus)
{
    for (int cpu = 0; cpu < cpus; ++cpu) {
        SCOPED_TRACE("cpu " + std::to_string(cpu));
        ASSERT_EQ(fast.confCache(cpu).hits().value(),
                  ref.confCache(cpu).hits().value());
        ASSERT_EQ(fast.confCache(cpu).misses().value(),
                  ref.confCache(cpu).misses().value());
        ASSERT_EQ(fast.refetches(cpu), ref.refetches(cpu));
    }
    ASSERT_EQ(fast.snoopInvalidations().value(), ref.snoopInvalidations);
    ASSERT_EQ(fast.cpuTableUpdates().value(), ref.cpuTableUpdates);
}

/** Drive both models through one random begin/end/write/predict run. */
void
runDifferential(int cpus, const Geometry &geometry, std::uint64_t seed)
{
    const int threads = 2 * cpus;
    const htm::TxIdSpace ids(geometry.staticTx, threads);
    htm::CpuTable table(cpus);
    PredictorSystem fast(table, ids, geometry.config);
    ReferencePredictor ref(cpus, ids, geometry.config);
    sim::Rng rng(seed);

    const auto sites = static_cast<std::uint64_t>(geometry.staticTx);
    std::vector<std::uint32_t> conf(sites * sites);
    for (std::uint32_t &value : conf)
        value = static_cast<std::uint32_t>(rng.below(256));
    const cpu::ConfidenceFn read = [&](htm::STxId row, htm::STxId col) {
        return conf[static_cast<std::size_t>(row) * sites
                    + static_cast<std::size_t>(col)];
    };
    std::uint64_t conflicts = 0;

    for (int step = 0; step < 6000; ++step) {
        const auto cpu = static_cast<sim::CpuId>(
            rng.below(static_cast<std::uint64_t>(cpus)));
        const auto stx = static_cast<htm::STxId>(rng.below(sites));
        switch (rng.below(6)) {
        case 0: // a transaction begins or ends on cpu
            if (table.runningOn(cpu) != htm::kNoTx) {
                table.end(cpu, table.runningOn(cpu));
                fast.broadcastEnd(cpu);
                ref.broadcastEnd(cpu);
            } else {
                const htm::DTxId dtx = ids.make(
                    static_cast<sim::ThreadId>(
                        rng.below(static_cast<std::uint64_t>(threads))),
                    stx);
                table.start(cpu, dtx);
                fast.broadcastBegin(cpu);
                ref.broadcastBegin(cpu, dtx);
            }
            break;
        case 1:
        case 2: { // the runtime writes a confidence entry
            const auto col = static_cast<htm::STxId>(rng.below(sites));
            conf[static_cast<std::size_t>(stx) * sites
                 + static_cast<std::size_t>(col)] =
                static_cast<std::uint32_t>(rng.below(256));
            fast.onConfidenceWrite(stx, col);
            ref.onConfidenceWrite(stx, col);
            break;
        }
        default: { // TX_BEGIN on cpu
            const auto threshold =
                static_cast<std::uint32_t>(rng.below(256));
            const PredictResult got = fast.predict(cpu, stx, read,
                                                   threshold);
            const PredictResult want = ref.predict(cpu, stx, read,
                                                   threshold);
            ASSERT_EQ(got.conflictPredicted, want.conflictPredicted)
                << "step " << step;
            ASSERT_EQ(got.waitOn, want.waitOn) << "step " << step;
            ASSERT_EQ(got.latency, want.latency) << "step " << step;
            ASSERT_EQ(got.maxConfidence, want.maxConfidence)
                << "step " << step;
            conflicts += got.conflictPredicted ? 1 : 0;
            break;
        }
        }
        if (step % 500 == 0) {
            SCOPED_TRACE("step " + std::to_string(step));
            expectSameCounters(fast, ref, cpus);
        }
    }
    expectSameCounters(fast, ref, cpus);
    // The run exercised both outcomes of Example 1.
    if (cpus > 1) {
        EXPECT_GT(conflicts, 0u);
    }
    EXPECT_GT(fast.predictions().value(), conflicts);
}

TEST(PredictorDifferential, MatchesTheNTableReference)
{
    Geometry paper{"Table 2 cache, table fits", 8, {}};
    // A 2-way, 4-line cache under an 18-line table (8-byte entries):
    // lines are evicted constantly, so settled credit matters.
    Geometry spill{"4-line cache, table spills", 12, {}};
    spill.config.confCache = {.sizeBytes = 4 * mem::kLineBytes,
                              .associativity = 2, .hitLatency = 2};
    spill.config.entryBytes = 8;
    spill.config.missLatency = 20;
    spill.config.perEntryCost = 3;
    // The Table 2 cache under a 100-line table.
    Geometry large{"Table 2 cache, table spills", 40, {}};

    std::uint64_t seed = 1;
    for (const Geometry &geometry : {paper, spill, large}) {
        for (int cpus : {1, 4, 64, 130}) {
            SCOPED_TRACE(std::string(geometry.name) + ", "
                         + std::to_string(cpus) + " CPUs");
            runDifferential(cpus, geometry, seed++);
            if (HasFatalFailure())
                return;
        }
    }
}

} // namespace
