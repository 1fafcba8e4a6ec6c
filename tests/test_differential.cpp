/**
 * @file
 * Differential tests: the production Bloom word loops against the
 * seed's scalar kernels.
 *
 * BloomFilter (popCount, intersectionNonEmpty) and
 * estimateIntersectionSize each run one plain loop over the filter's
 * 64-bit words. The oracle below keeps the seed implementation's
 * shape: one word at a time, the union materialized in its own
 * buffer, every popcount a separate pass. Both sides must agree
 * exactly -- integers, bits and booleans, and the Eq. 2-3 doubles
 * compared with ==, never a tolerance, because identical popcounts
 * feed identical formulas.
 *
 * DifferentialTest feeds raw word ranges of every length from 1 to 40
 * words at fixed fill densities, and real inserts at the paper's
 * filter sizes. SignatureFuzz feeds real inserts over random
 * (m, k, partitioned) geometries, and the all-zero and all-one edges.
 * It also checks the H3 bit positions, which the production family
 * computes for all k functions at once from lane-packed rows, against
 * the seed's per-function walk and % reduction.
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

/**
 * The seed's H3 family: a 64-row matrix per function, drawn
 * function-major from the family seed, and one walk over the key's set
 * bits per function, reduced with %.
 */
class SeedH3
{
  public:
    SeedH3(int num_hashes, std::uint64_t num_buckets, std::uint64_t seed)
        : numBuckets_(num_buckets),
          rows_(static_cast<std::size_t>(num_hashes) * 64)
    {
        std::uint64_t sm = seed ^ 0x8e1f0cafe5a5a5a5ULL;
        for (auto &row : rows_)
            row = sim::splitmix64(sm);
    }

    std::uint64_t
    hash(int fn, std::uint64_t key) const
    {
        const std::uint64_t *rows =
            rows_.data() + static_cast<std::size_t>(fn) * 64;
        std::uint64_t acc = 0;
        for (std::uint64_t k = key; k != 0; k &= k - 1)
            acc ^= rows[__builtin_ctzll(k)];
        return acc % numBuckets_;
    }

  private:
    std::uint64_t numBuckets_;
    Words rows_;
};

/** The seed's bit index of function @p fn: bank fn owns bits
 *  [fn * m/k, (fn+1) * m/k) in the partitioned layout. */
std::uint64_t
seedBitIndex(const SeedH3 &h3, const bloom::BloomConfig &config, int fn,
             std::uint64_t key)
{
    if (!config.partitioned)
        return h3.hash(fn, key);
    const std::uint64_t bank_bits =
        config.numBits / static_cast<std::uint64_t>(config.numHashes);
    return static_cast<std::uint64_t>(fn) * bank_bits + h3.hash(fn, key);
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

TEST(SignatureFuzz, PositionsMatchTheSeedHash)
{
    // Power-of-two bucket counts pack several functions' lanes into a
    // word (two words at k = 8 and m = 8192, and for m = 1024 or 2048
    // once k passes 6 or 5); 1000 bits, and its banks, take whole-word
    // lanes reduced with %.
    sim::Rng rng(0x4a5b1e5ULL);
    int geometries = 0;
    for (const std::uint64_t m : {64, 512, 1000, 1024, 2048, 8192}) {
        for (int k = 1; k <= 8; ++k) {
            for (const bool partitioned : {false, true}) {
                const auto kk = static_cast<std::uint64_t>(k);
                if (partitioned && (m % kk != 0 || m / kk < 2))
                    continue;
                bloom::BloomConfig config;
                config.numBits = m;
                config.numHashes = k;
                config.partitioned = partitioned;
                config.seed = rng.next();
                const SeedH3 h3(k, partitioned ? m / kk : m, config.seed);
                const std::string what =
                    "m=" + std::to_string(m) + " k=" + std::to_string(k)
                    + (partitioned ? " partitioned" : "");

                bloom::BloomFilter inserted(config);
                Words expected(inserted.words().size(), 0);
                Words through_positions(expected.size(), 0);
                bloom::BloomFilter::Positions pos{};
                for (int i = 0; i < 300; ++i) {
                    // Line-number-like keys, full-width keys and the
                    // all-zero and all-one edges.
                    const std::uint64_t key =
                        i == 0   ? 0
                        : i == 1 ? ~0ULL
                        : i % 2 == 0
                            ? (1ULL << 26) + rng.below(1ULL << 22)
                            : rng.next();
                    inserted.positions(key, pos);
                    for (int fn = 0; fn < k; ++fn) {
                        const std::uint64_t bit =
                            seedBitIndex(h3, config, fn, key);
                        ASSERT_EQ(pos[static_cast<std::size_t>(fn)], bit)
                            << what << " fn=" << fn << " key=" << key;
                        expected[bit >> 6] |= 1ULL << (bit & 63);
                    }
                    bloom::BloomFilter::setPositions(
                        through_positions.data(), pos, k);
                    inserted.insert(key);
                    ASSERT_TRUE(inserted.mayContain(key)) << what;
                }
                EXPECT_EQ(inserted.words(), expected) << what;
                EXPECT_EQ(through_positions, expected) << what;
                ++geometries;
            }
        }
    }
    EXPECT_EQ(geometries, 48 + 25);
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
