/**
 * @file
 * Randomized property tests: the conflict detector against a
 * reference model, the workload generator against its structural
 * invariants, whole simulations across random small configurations,
 * and the scalar-vs-fast signature kernel differential across random
 * filter geometries (SignatureFuzz).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/estimate.h"
#include "bloom/signature_ops.h"
#include "htm/conflict_detector.h"
#include "runner/farm.h"
#include "runner/simulation.h"
#include "runner/sweep.h"
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

    /** Transactions whose signatures hit, in dTxID order. */
    std::vector<int>
    signatureConflicts(int tx, mem::Addr line, bool write) const
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
};

/**
 * Drive the detector and the reference with the same random accesses
 * and commits/aborts, and after every op require the exact ordered
 * holders, the first-write flag, the registry's line count, the
 * false-conflict count and a consistent registry.
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
    std::vector<htm::TxState *> active;
    for (int i = 0; i < params.txCount; ++i) {
        htm::TxState &tx = txs[static_cast<std::size_t>(i)];
        tx.dTxId = i;
        tx.thread = i;
        tx.timestamp = static_cast<std::uint64_t>(i) + 1;
        tx.active = true;
        active.push_back(&tx);
    }

    sim::Rng rng(params.seed);
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
                expected = reference.signatureConflicts(tx, line, write);
                for (int holder : expected) {
                    if (std::find(exact.begin(), exact.end(), holder)
                        == exact.end()) {
                        ++false_conflicts;
                    }
                }
            }
            const htm::AccessResult result =
                detector.access(state, line, write, 0);
            std::vector<int> reported;
            for (const htm::TxState *holder : result.conflicts)
                reported.push_back(holder->dTxId);
            EXPECT_EQ(reported, expected) << "op " << op;
            if (expected.empty()) {
                EXPECT_EQ(result.resolution, htm::Resolution::Proceed)
                    << "op " << op;
                EXPECT_EQ(result.firstWrite,
                          reference.record(tx, line, write))
                    << "op " << op;
            } else {
                EXPECT_NE(result.resolution, htm::Resolution::Proceed)
                    << "op " << op;
                EXPECT_FALSE(result.firstWrite) << "op " << op;
            }
        }
        EXPECT_EQ(detector.ownedLines(), reference.lines.size())
            << "op " << op;
        EXPECT_EQ(detector.falseConflicts().value(), false_conflicts)
            << "op " << op;
        EXPECT_TRUE(detector.consistentWith(active)) << "op " << op;
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

TEST(FarmFuzz, MergedShardRunsMatchDirectSweepForAnyShardCount)
{
    // For a random small matrix, running every shard separately and
    // merging the partial reports must reproduce the direct sweep
    // report byte-for-byte -- for any shard count, including more
    // shards than cells (some partials come back empty).
    sim::Rng meta_rng(0xFA431);
    const auto stamp = workloads::stampBenchmarkNames();
    const auto managers = cm::allCmKinds();

    std::vector<runner::SweepCell> cells;
    for (int i = 0; i < 9; ++i) {
        runner::SweepCell cell;
        cell.workload = stamp[meta_rng.below(stamp.size())];
        cell.cm = managers[meta_rng.below(managers.size())];
        cell.options.numCpus =
            1 + static_cast<int>(meta_rng.below(6));
        cell.options.threadsPerCpu =
            1 + static_cast<int>(meta_rng.below(3));
        cell.options.seed = meta_rng.next();
        cell.options.txPerThread = 4;
        cells.push_back(cell);
    }

    const std::string base_dir =
        ::testing::TempDir() + "/farm_fuzz";
    std::filesystem::remove_all(base_dir);
    std::filesystem::create_directories(base_dir);
    runner::SweepOptions sweep_options;
    sweep_options.jobs = 4;
    sweep_options.cacheDir = base_dir + "/cache";

    runner::SweepRunner direct(sweep_options);
    direct.run(cells);
    std::ostringstream direct_report;
    direct.writeReport(direct_report, "farm-fuzz");

    for (const int shard_count : {1, 3, 5, 16}) {
        std::vector<std::string> partial_paths;
        for (int shard = 0; shard < shard_count; ++shard) {
            runner::FarmOptions farm_options;
            farm_options.sweep = sweep_options;
            farm_options.shardIndex = shard;
            farm_options.shardCount = shard_count;
            runner::Farm farm(farm_options);
            const auto results = farm.run(cells);
            for (const runner::SweepCellResult &result : results)
                ASSERT_TRUE(result.ok) << result.error;
            const std::string path =
                base_dir + "/partial-" + std::to_string(shard_count)
                + "-" + std::to_string(shard) + ".json";
            std::ofstream os(path);
            farm.writeReport(os, "farm-fuzz");
            partial_paths.push_back(path);
        }
        std::ostringstream merged;
        std::string error;
        ASSERT_TRUE(runner::mergeSweepReports(partial_paths, merged,
                                              &error))
            << error;
        EXPECT_EQ(merged.str(), direct_report.str())
            << "shard count " << shard_count;
    }
    std::filesystem::remove_all(base_dir);
}

TEST(FarmFuzz, SequentialStealWorkersMergeWithEmptyPartials)
{
    // A steal worker arriving at a drained queue claims nothing; its
    // empty partial must still merge cleanly with the worker that
    // took everything, reproducing the direct report.
    std::vector<runner::SweepCell> cells;
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        runner::SweepCell cell;
        cell.workload = "Intruder";
        cell.cm = cm::CmKind::BfgtsHw;
        cell.options.numCpus = 2;
        cell.options.threadsPerCpu = 2;
        cell.options.seed = seed;
        cell.options.txPerThread = 4;
        cells.push_back(cell);
    }

    const std::string base_dir =
        ::testing::TempDir() + "/farm_fuzz_steal";
    std::filesystem::remove_all(base_dir);
    std::filesystem::create_directories(base_dir);

    runner::SweepOptions sweep_options;
    sweep_options.jobs = 8; // one batch swallows the whole queue
    sweep_options.cacheDir = base_dir + "/cache";
    runner::SweepRunner direct(sweep_options);
    direct.run(cells);
    std::ostringstream direct_report;
    direct.writeReport(direct_report, "farm-fuzz");

    std::vector<std::string> partial_paths;
    for (int worker = 0; worker < 2; ++worker) {
        runner::FarmOptions farm_options;
        farm_options.sweep = sweep_options;
        farm_options.stealDir = base_dir + "/queue";
        runner::Farm farm(farm_options);
        farm.run(cells);
        if (worker == 0)
            EXPECT_EQ(farm.claimed().size(), cells.size());
        else
            EXPECT_TRUE(farm.claimed().empty());
        const std::string path =
            base_dir + "/worker-" + std::to_string(worker) + ".json";
        std::ofstream os(path);
        farm.writeReport(os, "farm-fuzz");
        partial_paths.push_back(path);
    }
    std::ostringstream merged;
    std::string error;
    ASSERT_TRUE(
        runner::mergeSweepReports(partial_paths, merged, &error))
        << error;
    EXPECT_EQ(merged.str(), direct_report.str());
    std::filesystem::remove_all(base_dir);
}

/** Compare every SignatureOps kernel on two word ranges. */
void
expectKernelsAgree(const std::vector<std::uint64_t> &a,
                   const std::vector<std::uint64_t> &b,
                   const std::string &what)
{
    const bloom::SignatureOps &scalar = bloom::scalarSignatureOps();
    const bloom::SignatureOps &fast = bloom::simdSignatureOps();
    const std::size_t n = a.size();
    ASSERT_EQ(b.size(), n) << what;

    EXPECT_EQ(scalar.popcountWords(a.data(), n),
              fast.popcountWords(a.data(), n))
        << what;
    EXPECT_EQ(scalar.andAny(a.data(), b.data(), n),
              fast.andAny(a.data(), b.data(), n))
        << what;
    EXPECT_EQ(scalar.andPopcount(a.data(), b.data(), n),
              fast.andPopcount(a.data(), b.data(), n))
        << what;
    const bloom::UnionCounts uc =
        scalar.unionCounts(a.data(), b.data(), n);
    const bloom::UnionCounts uf =
        fast.unionCounts(a.data(), b.data(), n);
    EXPECT_EQ(uc.popA, uf.popA) << what;
    EXPECT_EQ(uc.popB, uf.popB) << what;
    EXPECT_EQ(uc.popUnion, uf.popUnion) << what;

    std::vector<std::uint64_t> or_scalar = a;
    std::vector<std::uint64_t> or_fast = a;
    scalar.orWords(or_scalar.data(), b.data(), n);
    fast.orWords(or_fast.data(), b.data(), n);
    EXPECT_EQ(or_scalar, or_fast) << what;

    std::vector<std::uint64_t> and_scalar = a;
    std::vector<std::uint64_t> and_fast = a;
    scalar.andWords(and_scalar.data(), b.data(), n);
    fast.andWords(and_fast.data(), b.data(), n);
    EXPECT_EQ(and_scalar, and_fast) << what;
}

TEST(SignatureFuzz, KernelsAgreeOnRandomFilterGeometries)
{
    // Random (m, k, partitioned) geometries with random key sets,
    // exercised through real BloomFilter inserts so the word patterns
    // are exactly what the simulator produces. Both kernel families
    // must agree on every op -- the static differential oracle.
    sim::Rng rng(0x516fa22ULL);
    for (int round = 0; round < 60; ++round) {
        const int k = 1 + static_cast<int>(rng.below(8));
        // m: between 1 and 64 words, divisible by k when partitioned.
        const bool partitioned = rng.chance(0.5);
        std::uint64_t m = 64 * (1 + rng.below(64));
        if (partitioned)
            m -= m % static_cast<std::uint64_t>(64 * k);
        if (m == 0)
            m = static_cast<std::uint64_t>(64 * k);

        bloom::BloomConfig config;
        config.numBits = m;
        config.numHashes = k;
        config.partitioned = partitioned;
        config.seed = rng.next();

        bloom::BloomFilter a(config), b(config);
        const int inserts = static_cast<int>(rng.below(300));
        for (int i = 0; i < inserts; ++i) {
            const std::uint64_t key = rng.next();
            if (rng.chance(0.6))
                a.insert(key);
            if (rng.chance(0.6))
                b.insert(key);
        }
        expectKernelsAgree(a.words(), b.words(),
                           "round " + std::to_string(round) + " m="
                               + std::to_string(m)
                               + " k=" + std::to_string(k));
    }
}

TEST(SignatureFuzz, KernelsAgreeOnSaturationAndEmptyEdges)
{
    // Degenerate inputs: all-zero words (empty filter), all-one words
    // (saturated filter), and single-word ranges. Saturation feeds
    // the Eq. 2 t == m branch, empties the t == 0 branch; both must
    // be reached through identical integer popcounts.
    for (const std::size_t n : {std::size_t{1}, std::size_t{3},
                                std::size_t{4}, std::size_t{5},
                                std::size_t{32}}) {
        const std::vector<std::uint64_t> zeros(n, 0);
        const std::vector<std::uint64_t> ones(n, ~0ULL);
        expectKernelsAgree(zeros, zeros, "empty/empty");
        expectKernelsAgree(zeros, ones, "empty/saturated");
        expectKernelsAgree(ones, zeros, "saturated/empty");
        expectKernelsAgree(ones, ones, "saturated/saturated");

        // The estimators on those popcounts: 0 at t=0, m at t=m.
        const std::uint64_t m = 64 * n;
        const bloom::SignatureOps &fast = bloom::simdSignatureOps();
        const std::uint64_t t_empty =
            fast.popcountWords(zeros.data(), n);
        const std::uint64_t t_full = fast.popcountWords(ones.data(), n);
        EXPECT_EQ(bloom::estimateSetSize(t_empty, m, 4), 0.0);
        EXPECT_EQ(bloom::estimateSetSize(t_full, m, 4),
                  static_cast<double>(m));
    }
}

} // namespace
