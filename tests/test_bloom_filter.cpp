/**
 * @file
 * Unit and property tests for the Bloom filter and its H3 hash family.
 */

#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "bloom/bloom_filter.h"
#include "bloom/estimate.h"
#include "bloom/hash.h"
#include "sim/random.h"

namespace {

using bloom::BloomConfig;
using bloom::BloomFilter;

/** Bits set in both filters (the popcount of their AND). */
std::uint64_t
sharedBits(const BloomFilter &a, const BloomFilter &b)
{
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < a.words().size(); ++i)
        count += static_cast<std::uint64_t>(
            std::popcount(a.words()[i] & b.words()[i]));
    return count;
}

TEST(H3Hash, DeterministicPerSeed)
{
    bloom::H3HashFamily a(4, 1024, 1), b(4, 1024, 1), c(4, 1024, 2);
    int diff = 0;
    for (std::uint64_t key = 1; key < 200; ++key) {
        for (int fn = 0; fn < 4; ++fn) {
            ASSERT_EQ(a.hash(fn, key), b.hash(fn, key));
            diff += a.hash(fn, key) != c.hash(fn, key) ? 1 : 0;
        }
    }
    EXPECT_GT(diff, 600); // different seed => mostly different hashes
}

TEST(H3Hash, StaysInRange)
{
    bloom::H3HashFamily h(3, 977, 5); // non power of two
    sim::Rng rng(1);
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t key = rng.next();
        for (int fn = 0; fn < 3; ++fn)
            ASSERT_LT(h.hash(fn, key), 977u);
    }
}

TEST(H3Hash, ZeroKeyHashesToZeroXor)
{
    // H3 of the all-zero key XORs no rows: always bucket 0.
    bloom::H3HashFamily h(2, 64, 9);
    EXPECT_EQ(h.hash(0, 0), 0u);
    EXPECT_EQ(h.hash(1, 0), 0u);
}

TEST(H3Hash, FunctionsAreIndependent)
{
    bloom::H3HashFamily h(2, 4096, 9);
    int same = 0;
    for (std::uint64_t key = 1; key < 1000; ++key)
        same += h.hash(0, key) == h.hash(1, key) ? 1 : 0;
    EXPECT_LT(same, 10);
}

TEST(BloomFilter, NoFalseNegatives)
{
    BloomFilter filter(BloomConfig{.numBits = 1024, .numHashes = 4,
                                   .seed = 1});
    sim::Rng rng(3);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 80; ++i)
        keys.push_back(rng.next());
    for (std::uint64_t key : keys)
        filter.insert(key);
    for (std::uint64_t key : keys)
        EXPECT_TRUE(filter.mayContain(key));
}

TEST(BloomFilter, FalsePositiveRateIsBounded)
{
    BloomFilter filter(BloomConfig{.numBits = 2048, .numHashes = 4,
                                   .seed = 7});
    sim::Rng rng(4);
    for (int i = 0; i < 100; ++i)
        filter.insert(rng.next());
    // Theoretical FPR for n=100, m=2048, k=4 is ~0.2%; allow slack.
    int false_positives = 0;
    constexpr int kProbes = 20000;
    for (int i = 0; i < kProbes; ++i)
        false_positives += filter.mayContain(rng.next()) ? 1 : 0;
    EXPECT_LT(false_positives, kProbes / 50); // < 2%
}

TEST(BloomFilter, ClearEmptiesEverything)
{
    BloomFilter filter{};
    filter.insert(1);
    filter.insert(2);
    EXPECT_GT(filter.popCount(), 0u);
    filter.clear();
    EXPECT_EQ(filter.popCount(), 0u);
    EXPECT_TRUE(filter.empty());
}

TEST(BloomFilter, PopCountGrowsWithInsertions)
{
    BloomFilter filter(BloomConfig{.numBits = 4096, .numHashes = 4,
                                   .seed = 2});
    std::uint64_t prev = 0;
    for (std::uint64_t key = 1; key <= 50; ++key) {
        filter.insert(key * 0x9e3779b9ULL);
        EXPECT_GE(filter.popCount(), prev);
        prev = filter.popCount();
    }
    // 50 keys x 4 hashes sets at most 200 bits, and with m=4096
    // collisions are rare, so we expect close to 200.
    EXPECT_GT(prev, 150u);
    EXPECT_LE(prev, 200u);
}

TEST(BloomFilter, IntersectionOfDisjointIsUsuallyEmpty)
{
    BloomConfig config{.numBits = 4096, .numHashes = 4, .seed = 8};
    BloomFilter a(config), b(config);
    for (std::uint64_t key = 0; key < 20; ++key) {
        a.insert(0x1000 + key);
        b.insert(0x9000 + key);
    }
    // With ~80 bits set per side in 4096, a few chance shared bits
    // are possible; the intersection must stay near-empty, far below
    // either side's population.
    EXPECT_LE(sharedBits(a, b), 6u);
    EXPECT_LT(sharedBits(a, b), a.popCount() / 4);
}

TEST(BloomFilter, IntersectionNeverMissesRealOverlap)
{
    BloomConfig config{.numBits = 512, .numHashes = 4, .seed = 9};
    BloomFilter a(config), b(config);
    a.insert(42);
    b.insert(42);
    b.insert(77);
    EXPECT_TRUE(a.intersectionNonEmpty(b));
    EXPECT_GT(sharedBits(a, b), 0u);
}

TEST(BloomFilter, CompatibilityRequiresIdenticalConfig)
{
    BloomFilter a(BloomConfig{.numBits = 512, .numHashes = 4,
                              .seed = 1});
    BloomFilter b(BloomConfig{.numBits = 512, .numHashes = 4,
                              .seed = 1});
    BloomFilter c(BloomConfig{.numBits = 512, .numHashes = 4,
                              .seed = 2});
    BloomFilter d(BloomConfig{.numBits = 1024, .numHashes = 4,
                              .seed = 1});
    EXPECT_TRUE(a.compatibleWith(b));
    EXPECT_FALSE(a.compatibleWith(c));
    EXPECT_FALSE(a.compatibleWith(d));
}

TEST(BloomFilterDeath, IncompatibleIntersectionPanics)
{
    BloomFilter a(BloomConfig{.numBits = 512, .numHashes = 4,
                              .seed = 1});
    BloomFilter b(BloomConfig{.numBits = 1024, .numHashes = 4,
                              .seed = 1});
    EXPECT_DEATH(a.intersectionNonEmpty(b), "assertion");
}

// ---- the filter as a read/write-set signature ----------------------
// BFGTS and PTS hold their signatures as BloomFilter values and copy
// each stored one from a prototype, so copies must hash alike and own
// their words.

TEST(BloomSignature, BasicRoundTrip)
{
    BloomFilter a{};
    EXPECT_TRUE(a.empty());
    a.insert(123);
    EXPECT_FALSE(a.empty());
    EXPECT_NEAR(bloom::estimateSetSize(a), 1.0, 0.1);
    a.clear();
    EXPECT_TRUE(a.empty());
}

TEST(BloomSignature, CloneIsIndependent)
{
    BloomFilter a{};
    a.insert(1);
    const BloomFilter copy = a;
    a.insert(2);
    EXPECT_LT(copy.popCount(), a.popCount());
}

TEST(BloomSignature, CloneOfEmptyPrototypeMatchesFreshSignature)
{
    // A copy of the empty prototype must build the same filter a
    // fresh one would, and filling it must leave the prototype empty.
    // The managers' default configs (cm/bfgts.h, cm/pts.h), then a
    // partitioned geometry.
    const BloomConfig configs[] = {
        {.numBits = 2048, .numHashes = 4},
        {.numBits = 1024, .numHashes = 2},
        {.numBits = 2048, .numHashes = 4, .partitioned = true},
    };
    for (const BloomConfig &config : configs) {
        const BloomFilter prototype(config);
        BloomFilter copy = prototype;
        BloomFilter fresh(config);
        sim::Rng rng(config.numBits + config.numHashes);
        for (int i = 0; i < 100; ++i) {
            const std::uint64_t key = rng.next();
            copy.insert(key);
            fresh.insert(key);
        }
        EXPECT_EQ(copy.words(), fresh.words());
        EXPECT_TRUE(prototype.empty());
    }
}

/** Sweep the paper's filter sizes: basic invariants hold at each. */
class BloomSizeSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BloomSizeSweep, InvariantsAcrossSizes)
{
    const std::uint64_t bits = GetParam();
    BloomFilter filter(BloomConfig{.numBits = bits, .numHashes = 4,
                                   .seed = 11});
    sim::Rng rng(bits);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 64; ++i)
        keys.push_back(rng.next());
    for (std::uint64_t key : keys)
        filter.insert(key);
    for (std::uint64_t key : keys)
        ASSERT_TRUE(filter.mayContain(key));
    EXPECT_LE(filter.popCount(), bits);
    EXPECT_LE(filter.popCount(), 64u * 4u);
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, BloomSizeSweep,
                         ::testing::Values(512, 1024, 2048, 4096,
                                           8192));

} // namespace
