/**
 * @file
 * Tests for the extension features: partitioned Bloom filters,
 * BFGTS confidence-table aliasing (the paper's future work),
 * dynamic ATS threshold tuning, and the SPLASH2-like workloads.
 */

#include <gtest/gtest.h>

#include "bloom/estimate.h"
#include "cm/ats.h"
#include "cm/bfgts.h"
#include "cm_test_util.h"
#include "runner/experiment.h"
#include "runner/simulation.h"
#include "sim/random.h"
#include "workloads/splash2.h"

namespace {

// ---- partitioned Bloom filters -----------------------------------------

TEST(PartitionedBloom, NoFalseNegatives)
{
    bloom::BloomFilter filter(
        bloom::BloomConfig{.numBits = 2048, .numHashes = 4, .seed = 1,
                           .partitioned = true});
    sim::Rng rng(7);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 100; ++i)
        keys.push_back(rng.next());
    for (std::uint64_t key : keys)
        filter.insert(key);
    for (std::uint64_t key : keys)
        ASSERT_TRUE(filter.mayContain(key));
}

TEST(PartitionedBloom, EachInsertSetsAtMostOneBitPerBank)
{
    bloom::BloomConfig config{.numBits = 1024, .numHashes = 4,
                              .seed = 2, .partitioned = true};
    bloom::BloomFilter filter(config);
    filter.insert(12345);
    // 4 banks of 256 bits: count the set bits per bank.
    const auto &words = filter.words();
    for (int bank = 0; bank < 4; ++bank) {
        int bits = 0;
        for (int w = 0; w < 4; ++w) { // 256 bits = 4 words per bank
            bits += __builtin_popcountll(
                words[static_cast<std::size_t>(bank * 4 + w)]);
        }
        EXPECT_EQ(bits, 1) << "bank " << bank;
    }
}

TEST(PartitionedBloom, EstimatorsStillTrackSetSize)
{
    bloom::BloomFilter filter(
        bloom::BloomConfig{.numBits = 4096, .numHashes = 4, .seed = 3,
                           .partitioned = true});
    sim::Rng rng(9);
    for (int i = 0; i < 100; ++i)
        filter.insert(rng.next());
    EXPECT_NEAR(bloom::estimateSetSize(filter), 100.0, 15.0);
}

TEST(PartitionedBloom, IncompatibleWithUnpartitioned)
{
    bloom::BloomFilter flat(
        bloom::BloomConfig{.numBits = 512, .numHashes = 4, .seed = 1});
    bloom::BloomFilter banked(
        bloom::BloomConfig{.numBits = 512, .numHashes = 4, .seed = 1,
                           .partitioned = true});
    EXPECT_FALSE(flat.compatibleWith(banked));
}

TEST(PartitionedBloomDeath, BitsMustDivideByBanks)
{
    EXPECT_DEATH(bloom::BloomFilter(bloom::BloomConfig{
                     .numBits = 1000, .numHashes = 3, .seed = 1,
                     .partitioned = true}),
                 "assertion");
}

// ---- BFGTS aliasing (paper future work) ---------------------------------

class AliasingTest : public ::testing::Test
{
  protected:
    cm::BfgtsManager
    makeManager(int slots)
    {
        cm::BfgtsConfig config;
        config.variant = cm::BfgtsVariant::Sw;
        config.confTableSlots = slots;
        return cm::BfgtsManager(machine_.ids, machine_.services(),
                                config);
    }

    cmtest::Machine machine_; // 4 sites, 8 threads
};

TEST_F(AliasingTest, AliasedSitesShareConfidence)
{
    cm::BfgtsManager manager = makeManager(2);
    // Sites 0 and 2 alias to slot 0; 1 and 3 to slot 1.
    manager.onConflictDetected(machine_.tx(0, 0), machine_.tx(1, 1));
    EXPECT_EQ(manager.confidence(0, 1), manager.confidence(2, 3));
    EXPECT_EQ(manager.confidence(0, 1), manager.confidence(2, 1));
}

TEST_F(AliasingTest, ExactModeKeepsSitesSeparate)
{
    cm::BfgtsManager manager = makeManager(0);
    manager.onConflictDetected(machine_.tx(0, 0), machine_.tx(1, 1));
    EXPECT_GT(manager.confidence(0, 1), 0u);
    EXPECT_EQ(manager.confidence(2, 3), 0u);
}

TEST_F(AliasingTest, SlotCountAboveSiteCountIsExact)
{
    cm::BfgtsManager manager = makeManager(64);
    manager.onConflictDetected(machine_.tx(0, 0), machine_.tx(1, 1));
    EXPECT_EQ(manager.confidence(2, 3), 0u);
}

TEST_F(AliasingTest, StatsAliasPerSlotAndThread)
{
    cm::BfgtsManager manager = makeManager(2);
    std::vector<mem::Addr> lines;
    for (mem::Addr line = 0; line < 20; ++line)
        lines.push_back(line);
    // Thread 0 site 0 and thread 0 site 2 share a stats slot...
    manager.onTxCommit(machine_.tx(0, 0), lines);
    EXPECT_DOUBLE_EQ(manager.avgSizeOf(machine_.tx(0, 2).dTx), 20.0);
    // ...but thread 1's slot is untouched.
    EXPECT_DOUBLE_EQ(manager.avgSizeOf(machine_.tx(1, 0).dTx), 0.0);
}

TEST_F(AliasingTest, AliasedFullRunCompletes)
{
    runner::RunOptions options;
    options.txPerThread = 8;
    options.tuning.bfgts.confTableSlots = 1;
    const runner::SimResults r =
        runner::runStamp("Genome", cm::CmKind::BfgtsHw, options);
    EXPECT_EQ(r.commits, 64u * 8u);
}

// ---- dynamic ATS ---------------------------------------------------------

TEST(DynamicAts, ThresholdMovesUnderTuning)
{
    runner::RunOptions options;
    options.txPerThread = 40;
    options.tuning.ats.dynamicThreshold = true;
    options.tuning.ats.tuningWindow = 64;
    runner::SimConfig config =
        runner::makeConfig("Intruder", cm::CmKind::Ats, options);
    runner::Simulation simulation(config);
    simulation.run();
    auto &manager = dynamic_cast<cm::AtsManager &>(
        simulation.manager());
    EXPECT_NE(manager.threshold(), 0.5); // it moved
    EXPECT_GE(manager.threshold(), 0.1);
    EXPECT_LE(manager.threshold(), 0.9);
}

TEST(DynamicAts, FixedThresholdStaysPut)
{
    runner::RunOptions options;
    options.txPerThread = 20;
    runner::SimConfig config =
        runner::makeConfig("Intruder", cm::CmKind::Ats, options);
    runner::Simulation simulation(config);
    simulation.run();
    auto &manager = dynamic_cast<cm::AtsManager &>(
        simulation.manager());
    EXPECT_DOUBLE_EQ(manager.threshold(), 0.5);
}

// ---- SPLASH2-like workloads ----------------------------------------------

TEST(Splash2, ThreeBenchmarksBuild)
{
    const auto names = workloads::splash2BenchmarkNames();
    ASSERT_EQ(names.size(), 3u);
    for (const std::string &name : names) {
        auto workload = workloads::makeSplash2Workload(name, 64);
        ASSERT_NE(workload, nullptr);
        EXPECT_EQ(workload->name(), name);
    }
}

TEST(Splash2Death, UnknownNameIsFatal)
{
    EXPECT_DEATH((void)workloads::makeSplash2Workload("Fmm", 4),
                 "unknown");
}

TEST(Splash2, LowContentionByConstruction)
{
    runner::SimConfig config;
    config.cm = cm::CmKind::Backoff;
    config.txPerThreadOverride = 20;
    config.workloadFactory = [](int threads) {
        return workloads::makeSplash2Workload("Barnes", threads);
    };
    runner::Simulation simulation(config);
    const runner::SimResults r = simulation.run();
    EXPECT_LT(r.contentionRate, 0.02);
}

TEST(Splash2, NearLinearScalingForEveryManager)
{
    // 16 CPUs should give > 10x on Ocean under any manager.
    for (cm::CmKind kind :
         {cm::CmKind::Backoff, cm::CmKind::BfgtsHw}) {
        runner::SimConfig parallel;
        parallel.cm = kind;
        parallel.txPerThreadOverride = 10;
        parallel.workloadFactory = [](int threads) {
            return workloads::makeSplash2Workload("Ocean", threads);
        };
        runner::Simulation parallel_sim(parallel);
        const runner::SimResults p = parallel_sim.run();

        runner::SimConfig serial = parallel;
        serial.numCpus = 1;
        serial.threadsPerCpu = 1;
        serial.cm = cm::CmKind::Backoff;
        serial.txPerThreadOverride = 10 * 64;
        runner::Simulation serial_sim(serial);
        const runner::SimResults s = serial_sim.run();

        EXPECT_GT(static_cast<double>(s.runtime)
                      / static_cast<double>(p.runtime),
                  10.0)
            << cm::cmKindName(kind);
    }
}

} // namespace

// ---- signature-mode detection, end to end --------------------------------

TEST(SignatureModeIntegration, FullRunCompletesAndIsDeterministic)
{
    auto run_once = [] {
        runner::RunOptions options;
        options.txPerThread = 8;
        runner::SimConfig config = runner::makeConfig(
            "Genome", cm::CmKind::BfgtsHw, options);
        config.conflict.detectionMode =
            htm::DetectionMode::Signature;
        config.conflict.signature.numBits = 1024;
        runner::Simulation simulation(config);
        return simulation.run();
    };
    const runner::SimResults a = run_once();
    const runner::SimResults b = run_once();
    EXPECT_EQ(a.commits, 64u * 8u);
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.aborts, b.aborts);
}

TEST(SignatureModeIntegration, SmallSignaturesHurtLargeFootprints)
{
    // Labyrinth's huge transactions saturate small signatures; the
    // exact detector must beat a 256-bit one clearly.
    runner::RunOptions options;
    options.txPerThread = 6;
    runner::SimConfig exact = runner::makeConfig(
        "Labyrinth", cm::CmKind::Backoff, options);
    runner::SimConfig tiny = exact;
    tiny.conflict.detectionMode = htm::DetectionMode::Signature;
    tiny.conflict.signature.numBits = 256;
    runner::Simulation exact_sim(exact);
    runner::Simulation tiny_sim(tiny);
    const runner::SimResults exact_r = exact_sim.run();
    const runner::SimResults tiny_r = tiny_sim.run();
    EXPECT_GT(tiny_r.runtime, exact_r.runtime * 2);
    EXPECT_GT(tiny_r.contentionRate, exact_r.contentionRate);
}

// ---- custom manager factory ----------------------------------------------

TEST(ManagerFactory, CustomManagerIsUsed)
{
    runner::RunOptions options;
    options.txPerThread = 4;
    runner::SimConfig config =
        runner::makeConfig("Ssca2", cm::CmKind::BfgtsHw, options);
    config.managerFactory = [](const htm::TxIdSpace &,
                               const cm::Services &services) {
        return std::make_unique<cm::BackoffManager>(services);
    };
    runner::Simulation simulation(config);
    const runner::SimResults r = simulation.run();
    EXPECT_EQ(r.cm, "Backoff"); // the factory's manager, not BfgtsHw
    EXPECT_EQ(r.commits, 64u * 4u);
}
