/**
 * @file
 * Randomized property tests: the conflict detector against a
 * reference model, the workload generator against its structural
 * invariants, and whole simulations across random small
 * configurations. The Bloom word loops are fuzzed against the seed's
 * scalar kernels in test_differential.cpp (SignatureFuzz).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bloom/bloom_filter.h"
#include "htm/conflict_detector.h"
#include "htm/tx_id.h"
#include "runner/simulation.h"
#include "runner/sweep.h"
#include "sim/audit.h"
#include "sim/random.h"
#include "workloads/generator.h"
#include "workloads/splash2.h"
#include "workloads/stamp.h"

namespace {

/**
 * Reference ownership model: per line, the writer and the readers in
 * registration order, maintained with naive exact logic. The order
 * matters: the runner arbitrates, notifies and aborts holders in the
 * order the detector reports them, so every simulated number depends
 * on it. In Signature mode each transaction also keeps its own
 * read/write Bloom filters of the detector's geometry.
 */
struct ReferenceModel {
    struct Line {
        int writer = -1;
        std::vector<int> readers;
    };
    std::map<mem::Addr, Line> lines;
    std::vector<bloom::BloomFilter> readSigs;
    std::vector<bloom::BloomFilter> writeSigs;

    ReferenceModel(int tx_count, const bloom::BloomConfig &signature)
        : readSigs(static_cast<std::size_t>(tx_count),
                   bloom::BloomFilter(signature)),
          writeSigs(readSigs)
    {
    }

    /** Exact holders an access by @p tx meets, in report order: the
     *  writer, then (on a write) the other readers oldest first. */
    std::vector<int>
    conflicts(int tx, mem::Addr line, bool write) const
    {
        std::vector<int> result;
        auto it = lines.find(line);
        if (it == lines.end())
            return result;
        const Line &held = it->second;
        if (held.writer >= 0 && held.writer != tx)
            result.push_back(held.writer);
        if (write) {
            for (int reader : held.readers) {
                if (reader != tx && reader != held.writer)
                    result.push_back(reader);
            }
        }
        return result;
    }

    /** Transactions whose signatures hit, in the order of their
     *  dTxIDs @p dtx (indexed by transaction). */
    std::vector<int>
    signatureConflicts(int tx, mem::Addr line, bool write,
                       const std::vector<htm::DTxId> &dtx) const
    {
        std::vector<int> result;
        for (int other = 0; other < static_cast<int>(readSigs.size());
             ++other) {
            const auto o = static_cast<std::size_t>(other);
            if (other != tx
                && (writeSigs[o].mayContain(line)
                    || (write && readSigs[o].mayContain(line)))) {
                result.push_back(other);
            }
        }
        std::sort(result.begin(), result.end(), [&](int a, int b) {
            return dtx[static_cast<std::size_t>(a)]
                 < dtx[static_cast<std::size_t>(b)];
        });
        return result;
    }

    /** Record a conflict-free access; @return whether it is the
     *  line's first write by @p tx since its last removal. */
    bool
    record(int tx, mem::Addr line, bool write)
    {
        Line &held = lines[line];
        const auto t = static_cast<std::size_t>(tx);
        if (write) {
            writeSigs[t].insert(line);
            const bool first = held.writer != tx;
            held.writer = tx;
            return first;
        }
        readSigs[t].insert(line);
        if (std::find(held.readers.begin(), held.readers.end(), tx)
            == held.readers.end()) {
            held.readers.push_back(tx);
        }
        return false;
    }

    void
    remove(int tx)
    {
        for (auto it = lines.begin(); it != lines.end();) {
            Line &held = it->second;
            if (held.writer == tx)
                held.writer = -1;
            // Stable erase: the other readers keep their order.
            held.readers.erase(std::remove(held.readers.begin(),
                                           held.readers.end(), tx),
                               held.readers.end());
            if (held.writer < 0 && held.readers.empty())
                it = lines.erase(it);
            else
                ++it;
        }
        readSigs[static_cast<std::size_t>(tx)].clear();
        writeSigs[static_cast<std::size_t>(tx)].clear();
    }
};

struct DetectorFuzzParams {
    htm::ConflictPolicy policy;
    int txCount = 6;
    /** Lines [0, hotLines) take hotFraction of the accesses; the rest
     *  spread over [hotLines, hotLines + coldLines). */
    mem::Addr hotLines = 12;
    mem::Addr coldLines = 0;
    double hotFraction = 1.0;
    double writeFraction = 0.4;
    double removeChance = 0.05;
    int ops = 4000;
    std::uint64_t seed = 2024;
    /**
     * Transaction sites. With more than one, transaction i runs on
     * thread i with dTxID TxIdSpace::make(i, site), the site drawn at
     * the start and again at each restart, so dTxID order differs from
     * thread order. With one, the dTxID is the thread.
     */
    int sites = 1;
};

/**
 * Drive the detector and the reference with the same random accesses
 * and commits/aborts, and after every op require the exact ordered
 * holders, the first-write flag, the registry's line count, the
 * conflict and false-conflict counts and a clean detector audit.
 * @return The most lines the registry ever held.
 */
std::size_t
fuzzDetector(const DetectorFuzzParams &params)
{
    const bool signature =
        params.policy.detectionMode == htm::DetectionMode::Signature;
    htm::ConflictDetector detector(params.policy);
    ReferenceModel reference(params.txCount, params.policy.signature);
    std::vector<htm::TxState> txs(
        static_cast<std::size_t>(params.txCount));
    std::vector<const htm::TxState *> active;
    std::vector<htm::DTxId> dtx(static_cast<std::size_t>(params.txCount));
    const htm::TxIdSpace ids(params.sites, params.txCount);
    sim::Rng rng(params.seed);
    const auto assign_dtx = [&](int i) {
        htm::TxState &tx = txs[static_cast<std::size_t>(i)];
        tx.dTxId = params.sites == 1
                     ? i
                     : ids.make(i, static_cast<htm::STxId>(rng.below(
                                       static_cast<std::uint64_t>(
                                           params.sites))));
        dtx[static_cast<std::size_t>(i)] = tx.dTxId;
    };
    for (int i = 0; i < params.txCount; ++i) {
        htm::TxState &tx = txs[static_cast<std::size_t>(i)];
        assign_dtx(i);
        tx.thread = i;
        tx.timestamp = static_cast<std::uint64_t>(i) + 1;
        tx.active = true;
        active.push_back(&tx);
    }

    sim::AuditEngine audit;
    audit.setEnabled(true);
    audit.setMode(sim::AuditEngine::Mode::Collect);
    std::uint64_t conflicts = 0;
    std::uint64_t false_conflicts = 0;
    std::size_t max_owned = 0;
    for (int op = 0; op < params.ops; ++op) {
        const int tx = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(params.txCount)));
        htm::TxState &state = txs[static_cast<std::size_t>(tx)];
        if (rng.chance(params.removeChance)) {
            // Commit/abort: release isolation and start fresh.
            detector.removeTx(state);
            reference.remove(tx);
            state.resetAttempt();
            assign_dtx(tx);
            state.active = true;
        } else {
            const mem::Addr line =
                rng.chance(params.hotFraction)
                    ? rng.below(params.hotLines)
                    : params.hotLines + rng.below(params.coldLines);
            const bool write = rng.chance(params.writeFraction);
            const std::vector<int> exact =
                reference.conflicts(tx, line, write);
            std::vector<int> expected = exact;
            if (signature) {
                expected =
                    reference.signatureConflicts(tx, line, write, dtx);
                for (int holder : expected) {
                    if (std::find(exact.begin(), exact.end(), holder)
                        == exact.end()) {
                        ++false_conflicts;
                    }
                }
            }
            const htm::AccessResult result =
                detector.access(state, line, write);
            std::vector<int> reported;
            for (const htm::TxState *holder : result.conflicts)
                reported.push_back(holder->thread);
            EXPECT_EQ(reported, expected) << "op " << op;
            if (expected.empty()) {
                EXPECT_EQ(result.firstWrite,
                          reference.record(tx, line, write))
                    << "op " << op;
            } else {
                ++conflicts;
                EXPECT_FALSE(result.firstWrite) << "op " << op;
            }
        }
        EXPECT_EQ(detector.ownedLines(), reference.lines.size())
            << "op " << op;
        EXPECT_EQ(detector.conflictsDetected().value(), conflicts)
            << "op " << op;
        EXPECT_EQ(detector.falseConflicts().value(), false_conflicts)
            << "op " << op;
        detector.auditCheck(audit, active, static_cast<sim::Tick>(op));
        EXPECT_EQ(audit.violationCount(), 0u) << "op " << op;
        if (::testing::Test::HasFailure())
            return max_owned;
        max_owned = std::max(max_owned, detector.ownedLines());
    }
    return max_owned;
}

TEST(ConflictDetectorFuzz, MatchesReferenceModel)
{
    fuzzDetector(DetectorFuzzParams{});
}

TEST(ConflictDetectorFuzz, MatchesReferenceModelAtScale)
{
    // 64 transactions: a few hot lines collect long reader lists that
    // commits and aborts cut in the middle, and thousands of cold
    // lines make the registry grow from its 256 slots several times.
    DetectorFuzzParams params;
    params.txCount = 64;
    params.hotLines = 16;
    params.coldLines = 1 << 16;
    params.hotFraction = 0.3;
    params.writeFraction = 0.25;
    params.removeChance = 0.02;
    params.ops = 12000;
    params.seed = 64;
    EXPECT_GT(fuzzDetector(params), 1024u);
}

TEST(ConflictDetectorFuzz, SignatureModeMatchesReferenceModel)
{
    // Small signatures alias often, so false conflicts (on lines the
    // registry never holds) mix with real ones.
    DetectorFuzzParams params;
    params.policy.detectionMode = htm::DetectionMode::Signature;
    params.policy.signature.numBits = 1024;
    params.policy.signature.numHashes = 2;
    params.txCount = 16;
    params.hotLines = 16;
    params.coldLines = 1 << 12;
    params.hotFraction = 0.3;
    params.writeFraction = 0.25;
    params.removeChance = 0.03;
    params.ops = 8000;
    params.seed = 7;
    fuzzDetector(params);
}

TEST(ConflictDetectorFuzz, SignatureModeReportsHoldersInDTxIdOrder)
{
    // dTxIDs put the site above the thread, so holders sorted by dTxID
    // are not in thread order, and a restart on a new site moves a
    // thread within that order. Partitioned banks of 400 bits (not a
    // power of two) take the whole-word, % reduced hash lanes.
    DetectorFuzzParams params;
    params.policy.detectionMode = htm::DetectionMode::Signature;
    params.policy.signature.numBits = 1200;
    params.policy.signature.numHashes = 3;
    params.policy.signature.partitioned = true;
    params.txCount = 12;
    params.sites = 5;
    params.hotLines = 16;
    params.coldLines = 1 << 12;
    params.hotFraction = 0.3;
    params.writeFraction = 0.3;
    params.removeChance = 0.03;
    params.ops = 8000;
    params.seed = 25;
    fuzzDetector(params);
}

TEST(GeneratorFuzz, DescriptorsAlwaysWellFormed)
{
    sim::Rng meta_rng(77);
    for (int trial = 0; trial < 25; ++trial) {
        workloads::SyntheticParams params;
        params.name = "fuzz";
        params.txPerThread = 5;
        const int groups = 1 + static_cast<int>(meta_rng.below(3));
        for (int g = 0; g < groups; ++g)
            params.hotGroupLines.push_back(
                8 + meta_rng.below(512));
        const int sites = 1 + static_cast<int>(meta_rng.below(5));
        for (int s = 0; s < sites; ++s) {
            workloads::SiteParams site;
            site.weight = 0.5 + meta_rng.uniform() * 2.0;
            site.meanAccesses =
                4 + static_cast<int>(meta_rng.below(60));
            site.accessJitter = static_cast<int>(
                meta_rng.below(static_cast<std::uint64_t>(
                    site.meanAccesses)));
            site.similarity = meta_rng.uniform();
            site.writeFraction = meta_rng.uniform();
            if (meta_rng.chance(0.7)) {
                workloads::HotGroupRef ref;
                ref.group =
                    static_cast<int>(meta_rng.below(groups));
                ref.frac = meta_rng.uniform() * 0.8;
                ref.writeFraction = meta_rng.uniform();
                ref.stickyFrac = meta_rng.uniform();
                ref.stickyPoolLines = 1 + meta_rng.below(64);
                site.hotGroups.push_back(ref);
            }
            params.sites.push_back(site);
        }
        workloads::SyntheticWorkload workload(params, 8);
        sim::Rng rng(trial);
        for (int i = 0; i < 40; ++i) {
            const int thread =
                static_cast<int>(rng.below(8));
            const workloads::TxDescriptor desc =
                workload.next(thread, rng);
            ASSERT_GE(desc.sTx, 0);
            ASSERT_LT(desc.sTx, sites);
            ASSERT_FALSE(desc.accesses.empty());
            for (const auto &access : desc.accesses) {
                // Addresses live in a known region.
                ASSERT_GE(access.addr, 0x1'0000'0000ULL);
            }
        }
    }
}

TEST(SimulationFuzz, RandomSmallConfigsComplete)
{
    sim::Rng meta_rng(31337);
    const auto stamp = workloads::stampBenchmarkNames();
    const auto managers = cm::extendedCmKinds();
    for (int trial = 0; trial < 12; ++trial) {
        runner::SimConfig config;
        config.workload = stamp[meta_rng.below(stamp.size())];
        config.cm = managers[meta_rng.below(managers.size())];
        config.numCpus = 1 + static_cast<int>(meta_rng.below(16));
        config.threadsPerCpu =
            1 + static_cast<int>(meta_rng.below(4));
        config.seed = meta_rng.next();
        config.txPerThreadOverride = 4;
        runner::Simulation simulation(config);
        const runner::SimResults r = simulation.run();
        ASSERT_EQ(r.commits,
                  static_cast<std::uint64_t>(config.numThreads())
                      * 4u)
            << r.workload << "/" << r.cm << " cpus="
            << config.numCpus;
        // Accounting identity: buckets + idle == machine capacity.
        ASSERT_EQ(r.breakdown.total(),
                  static_cast<sim::Cycles>(config.numCpus)
                      * r.runtime);
    }
}

TEST(SweepFuzz, RandomMatrixMatchesDirectRunsAndWarmCache)
{
    // A random small evaluation matrix must come back from the sweep
    // engine bit-equal to direct runStamp() calls, independent of
    // worker count and completion order -- and a warm second sweep
    // must reproduce it from the cache without executing anything.
    sim::Rng meta_rng(0xBF675);
    const auto stamp = workloads::stampBenchmarkNames();
    const auto managers = cm::allCmKinds();

    std::vector<runner::SweepCell> cells;
    for (int i = 0; i < 10; ++i) {
        runner::SweepCell cell;
        cell.workload = stamp[meta_rng.below(stamp.size())];
        cell.cm = managers[meta_rng.below(managers.size())];
        cell.options.numCpus =
            1 + static_cast<int>(meta_rng.below(8));
        cell.options.threadsPerCpu =
            1 + static_cast<int>(meta_rng.below(3));
        cell.options.seed = meta_rng.next();
        cell.options.txPerThread = 4;
        cells.push_back(cell);
    }

    const auto digest = [](const runner::SimResults &r) {
        std::ostringstream os;
        runner::writeSweepResults(os, r);
        return os.str();
    };
    std::vector<std::string> expected;
    for (const runner::SweepCell &cell : cells)
        expected.push_back(digest(
            runner::runStamp(cell.workload, cell.cm, cell.options)));

    const std::string cache_dir =
        ::testing::TempDir() + "/sweep_fuzz_cache";
    std::filesystem::remove_all(cache_dir);
    runner::SweepOptions options;
    options.jobs = 4;
    options.cacheDir = cache_dir;

    for (int round = 0; round < 2; ++round) {
        runner::SweepRunner sweep(options);
        const auto results = sweep.run(cells);
        ASSERT_EQ(results.size(), cells.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            ASSERT_TRUE(results[i].ok) << results[i].error;
            EXPECT_EQ(digest(results[i].results), expected[i])
                << "round " << round << " cell " << i;
            EXPECT_EQ(results[i].fromCache, round == 1)
                << "round " << round << " cell " << i;
        }
        if (round == 1) {
            EXPECT_EQ(sweep.stats().executed, 0);
            EXPECT_EQ(sweep.stats().cacheHits,
                      static_cast<int>(cells.size()));
        }
    }
    std::filesystem::remove_all(cache_dir);
}

} // namespace
