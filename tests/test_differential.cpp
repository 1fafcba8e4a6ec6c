/**
 * @file
 * Differential tests: the production Bloom word loops against the
 * seed's scalar kernels.
 *
 * BloomFilter (popCount, unionWith, intersectWith,
 * intersectionNonEmpty) and estimateIntersectionSize each run one
 * plain loop over the filter's 64-bit words. The oracle below keeps
 * the seed implementation's shape: one word at a time, the union and
 * the intersection materialized in their own buffers, every popcount
 * a separate pass. Both sides must agree exactly -- integers, bits
 * and booleans, and the Eq. 2-3 doubles compared with ==, never a
 * tolerance, because identical popcounts feed identical formulas.
 *
 * DifferentialTest feeds raw word ranges of every length from 1 to 40
 * words at fixed fill densities, and real inserts at the paper's
 * filter sizes. SignatureFuzz feeds real inserts over random
 * (m, k, partitioned) geometries, and the all-zero and all-one edges.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/estimate.h"
#include "sim/random.h"

namespace {

using Words = std::vector<std::uint64_t>;

// ---------------------------------------------------------------------
// The seed's scalar kernels, kept here as the reference.
// ---------------------------------------------------------------------

std::uint64_t
seedPopcount(const Words &words)
{
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < words.size(); ++i)
        count += static_cast<std::uint64_t>(std::popcount(words[i]));
    return count;
}

Words
seedOr(const Words &a, const Words &b)
{
    Words result = a;
    for (std::size_t i = 0; i < result.size(); ++i)
        result[i] |= b[i];
    return result;
}

Words
seedAnd(const Words &a, const Words &b)
{
    Words result = a;
    for (std::size_t i = 0; i < result.size(); ++i)
        result[i] &= b[i];
    return result;
}

bool
seedAndAny(const Words &a, const Words &b)
{
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] & b[i])
            return true;
    }
    return false;
}

/** Eq. 3 the seed's way: materialize the union, three popcounts. */
double
seedIntersectionEstimate(const Words &a, const Words &b,
                         std::uint64_t num_bits, int num_hashes)
{
    const Words u = seedOr(a, b);
    const double est =
        bloom::estimateSetSize(seedPopcount(a), num_bits, num_hashes)
        + bloom::estimateSetSize(seedPopcount(b), num_bits, num_hashes)
        - bloom::estimateSetSize(seedPopcount(u), num_bits, num_hashes);
    return std::max(est, 0.0);
}

// ---------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------

/** Random word range with a controllable fill density. */
Words
randomWords(sim::Rng &rng, std::size_t n, int density_pct)
{
    Words words(n, 0);
    for (auto &word : words) {
        if (density_pct >= 100) {
            word = ~0ULL;
            continue;
        }
        for (int bit = 0; bit < 64; ++bit) {
            if (rng.below(100) < static_cast<std::uint64_t>(density_pct))
                word |= 1ULL << bit;
        }
    }
    return words;
}

/** A filter of 64 * words.size() bits whose raw words are @p words. */
bloom::BloomFilter
filterHolding(const Words &words)
{
    bloom::BloomFilter filter(
        bloom::BloomConfig{.numBits = 64 * words.size(), .numHashes = 4});
    for (std::uint64_t bit = 0; bit < filter.numBits(); ++bit) {
        if ((words[bit >> 6] >> (bit & 63)) & 1)
            filter.testSetBit(bit);
    }
    return filter;
}

/** Every production word loop on @p a and @p b equals the oracle. */
void
expectLoopsMatchOracle(const bloom::BloomFilter &a,
                       const bloom::BloomFilter &b,
                       const std::string &what)
{
    const Words &wa = a.words();
    const Words &wb = b.words();
    ASSERT_EQ(wb.size(), wa.size()) << what;

    EXPECT_EQ(a.popCount(), seedPopcount(wa)) << what;
    EXPECT_EQ(b.popCount(), seedPopcount(wb)) << what;
    EXPECT_EQ(a.intersectionNonEmpty(b), seedAndAny(wa, wb)) << what;
    EXPECT_EQ(a.unionWith(b).words(), seedOr(wa, wb)) << what;
    EXPECT_EQ(a.intersectWith(b).words(), seedAnd(wa, wb)) << what;
    // Bit-exact doubles: EXPECT_EQ, not EXPECT_NEAR.
    EXPECT_EQ(bloom::estimateSetSize(a),
              bloom::estimateSetSize(seedPopcount(wa), a.numBits(),
                                     a.numHashes()))
        << what;
    EXPECT_EQ(bloom::estimateIntersectionSize(a, b),
              seedIntersectionEstimate(wa, wb, a.numBits(),
                                       a.numHashes()))
        << what;
}

TEST(DifferentialTest, OpsAgreeOnRandomSequences)
{
    sim::Rng rng(0xd1ffe7e57ULL);
    // Every length from one word to 40, so no loop bound is special.
    for (std::size_t n = 1; n <= 40; ++n) {
        for (int density : {0, 1, 10, 50, 90, 100}) {
            const Words a = randomWords(rng, n, density);
            const Words b = randomWords(rng, n, 100 - density);
            expectLoopsMatchOracle(filterHolding(a), filterHolding(b),
                                   "n=" + std::to_string(n) + " density="
                                       + std::to_string(density));
        }
    }
}

TEST(DifferentialTest, EstimatorsAreBitIdenticalAcrossImpls)
{
    // The paper's filter sizes in both layouts, filled by real
    // inserts with a partial overlap.
    sim::Rng rng(0xe57137a7e5ULL);
    for (const auto &[bits, hashes, partitioned] :
         std::vector<std::tuple<std::uint64_t, int, bool>>{
             {512, 2, false},
             {2048, 4, false},
             {2048, 4, true},
             {8192, 8, true}}) {
        bloom::BloomConfig config;
        config.numBits = bits;
        config.numHashes = hashes;
        config.partitioned = partitioned;

        bloom::BloomFilter a(config), b(config);
        for (int i = 0; i < 200; ++i) {
            const std::uint64_t key = rng.next();
            if (i % 3 != 0)
                a.insert(key);
            if (i % 2 == 0)
                b.insert(key);
        }
        expectLoopsMatchOracle(a, b,
                               "m=" + std::to_string(bits)
                                   + " k=" + std::to_string(hashes));
    }
}

TEST(SignatureFuzz, KernelsAgreeOnRandomFilterGeometries)
{
    // Random (m, k, partitioned) geometries with random key sets,
    // exercised through real BloomFilter inserts so the word patterns
    // are exactly what the simulator produces.
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
        expectLoopsMatchOracle(a, b,
                               "round " + std::to_string(round) + " m="
                                   + std::to_string(m)
                                   + " k=" + std::to_string(k));
    }
}

TEST(SignatureFuzz, KernelsAgreeOnSaturationAndEmptyEdges)
{
    // Degenerate inputs: all-zero words (empty filter), all-one words
    // (saturated filter), and single-word ranges. Saturation feeds
    // the Eq. 2 t == m branch, empties the t == 0 branch.
    for (const std::size_t n : {std::size_t{1}, std::size_t{3},
                                std::size_t{4}, std::size_t{5},
                                std::size_t{32}}) {
        const bloom::BloomFilter empty = filterHolding(Words(n, 0));
        const bloom::BloomFilter full = filterHolding(Words(n, ~0ULL));
        expectLoopsMatchOracle(empty, empty, "empty/empty");
        expectLoopsMatchOracle(empty, full, "empty/saturated");
        expectLoopsMatchOracle(full, empty, "saturated/empty");
        expectLoopsMatchOracle(full, full, "saturated/saturated");

        EXPECT_EQ(bloom::estimateSetSize(empty), 0.0);
        EXPECT_EQ(bloom::estimateSetSize(full),
                  static_cast<double>(64 * n));
    }
}

} // namespace
