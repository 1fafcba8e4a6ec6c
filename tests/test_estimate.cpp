/**
 * @file
 * Property tests for the paper's Eqs. 2-4: set-size estimation,
 * intersection estimation and similarity from Bloom filters, checked
 * against perfect signatures (exact sorted line sets, intersected by
 * mem::commonLines) where the two meet.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "bloom/estimate.h"
#include "mem/addr.h"
#include "sim/random.h"

namespace {

using bloom::BloomConfig;
using bloom::BloomFilter;

TEST(Estimate, EmptyFilterEstimatesZero)
{
    BloomFilter filter{};
    EXPECT_DOUBLE_EQ(bloom::estimateSetSize(filter), 0.0);
}

TEST(Estimate, SaturatedFilterReturnsCeiling)
{
    EXPECT_DOUBLE_EQ(bloom::estimateSetSize(512, 512, 4), 512.0);
}

TEST(Estimate, RawOverloadWithNoBitsSetEstimatesZero)
{
    EXPECT_DOUBLE_EQ(bloom::estimateSetSize(0, 1024, 4), 0.0);
}

TEST(Estimate, SaturatedLiveFilterReturnsCeiling)
{
    // Drive a real filter to full saturation: the live-filter path
    // must hit the same t == m ceiling as the raw overload instead of
    // evaluating ln(0).
    BloomFilter filter(BloomConfig{.numBits = 64, .numHashes = 4,
                                   .seed = 13});
    sim::Rng rng(14);
    while (filter.popCount() < filter.numBits())
        filter.insert(rng.next());
    const double est = bloom::estimateSetSize(filter);
    EXPECT_DOUBLE_EQ(est, static_cast<double>(filter.numBits()));
    EXPECT_TRUE(std::isfinite(est));
}

TEST(Estimate, NearlySaturatedFilterIsFiniteAndLarge)
{
    // One bit shy of saturation is the worst-conditioned finite input
    // to Eq. 2: the estimate must stay finite, positive, and can
    // legitimately exceed the t == m ceiling of m (the ceiling is a
    // saturation convention, not an upper bound of the estimator).
    const double almost = bloom::estimateSetSize(511, 512, 4);
    EXPECT_TRUE(std::isfinite(almost));
    EXPECT_GT(almost, bloom::estimateSetSize(510, 512, 4));
}

TEST(Estimate, IntersectionOfSaturatedFiltersIsNonNegativeAndFinite)
{
    BloomConfig config{.numBits = 64, .numHashes = 4, .seed = 15};
    BloomFilter a(config), b(config);
    sim::Rng rng(16);
    while (a.popCount() < a.numBits())
        a.insert(rng.next());
    while (b.popCount() < b.numBits())
        b.insert(rng.next());
    const double inter = bloom::estimateIntersectionSize(a, b);
    EXPECT_TRUE(std::isfinite(inter));
    EXPECT_GE(inter, 0.0);
    // Saturated similarity still clamps to the unit interval even
    // with a tiny Eq. 4 denominator.
    const double sim = bloom::similarity(a, b, 1.0);
    EXPECT_GE(sim, 0.0);
    EXPECT_LE(sim, 1.0);
}

TEST(Estimate, SingleKeyEstimatesAboutOne)
{
    BloomFilter filter(BloomConfig{.numBits = 1024, .numHashes = 4,
                                   .seed = 1});
    filter.insert(1234567);
    EXPECT_NEAR(bloom::estimateSetSize(filter), 1.0, 0.1);
}

TEST(Estimate, MonotonicInBitsSet)
{
    double prev = 0.0;
    for (std::uint64_t t = 0; t <= 1000; t += 50) {
        double est = bloom::estimateSetSize(t, 1024, 4);
        EXPECT_GE(est, prev);
        prev = est;
    }
}

/** Eq. 2 accuracy across (set size, filter size) combinations. */
class SetSizeAccuracy
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>>
{
};

TEST_P(SetSizeAccuracy, EstimateWithinTenPercent)
{
    const int n = std::get<0>(GetParam());
    const std::uint64_t bits = std::get<1>(GetParam());
    BloomFilter filter(BloomConfig{.numBits = bits, .numHashes = 4,
                                   .seed = 17});
    sim::Rng rng(static_cast<std::uint64_t>(n) * bits);
    for (int i = 0; i < n; ++i)
        filter.insert(rng.next());
    const double est = bloom::estimateSetSize(filter);
    // 10% relative + small absolute slack for tiny sets.
    EXPECT_NEAR(est, n, 0.10 * n + 2.0)
        << "n=" << n << " bits=" << bits;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SetSizeAccuracy,
    ::testing::Combine(::testing::Values(4, 16, 64, 128, 256),
                       ::testing::Values(512, 2048, 8192)));

TEST(Estimate, IntersectionOfIdenticalSetsIsSetSize)
{
    BloomConfig config{.numBits = 2048, .numHashes = 4, .seed = 2};
    BloomFilter a(config), b(config);
    sim::Rng rng(5);
    for (int i = 0; i < 50; ++i) {
        std::uint64_t key = rng.next();
        a.insert(key);
        b.insert(key);
    }
    EXPECT_NEAR(bloom::estimateIntersectionSize(a, b), 50.0, 7.0);
}

TEST(Estimate, IntersectionOfDisjointSetsIsNearZero)
{
    BloomConfig config{.numBits = 4096, .numHashes = 4, .seed = 3};
    BloomFilter a(config), b(config);
    for (std::uint64_t key = 0; key < 60; ++key) {
        a.insert(0x100000 + key);
        b.insert(0x900000 + key);
    }
    EXPECT_NEAR(bloom::estimateIntersectionSize(a, b), 0.0, 5.0);
}

TEST(Estimate, IntersectionIsNeverNegative)
{
    BloomConfig config{.numBits = 512, .numHashes = 2, .seed = 4};
    sim::Rng rng(6);
    for (int trial = 0; trial < 20; ++trial) {
        BloomFilter a(config), b(config);
        for (int i = 0; i < 10; ++i) {
            a.insert(rng.next());
            b.insert(rng.next());
        }
        EXPECT_GE(bloom::estimateIntersectionSize(a, b), 0.0);
    }
}

/** Eq. 3 accuracy for partially overlapping sets. */
class IntersectionAccuracy : public ::testing::TestWithParam<int>
{
};

TEST_P(IntersectionAccuracy, TracksTrueOverlap)
{
    const int overlap = GetParam();
    constexpr int kSetSize = 64;
    BloomConfig config{.numBits = 4096, .numHashes = 4, .seed = 7};
    BloomFilter a(config), b(config);
    sim::Rng rng(static_cast<std::uint64_t>(overlap) + 100);
    std::vector<std::uint64_t> shared;
    for (int i = 0; i < overlap; ++i)
        shared.push_back(rng.next());
    for (std::uint64_t key : shared) {
        a.insert(key);
        b.insert(key);
    }
    for (int i = overlap; i < kSetSize; ++i) {
        a.insert(rng.next());
        b.insert(rng.next());
    }
    EXPECT_NEAR(bloom::estimateIntersectionSize(a, b), overlap,
                0.2 * kSetSize);
}

INSTANTIATE_TEST_SUITE_P(OverlapSweep, IntersectionAccuracy,
                         ::testing::Values(0, 8, 16, 32, 48, 64));

TEST(Similarity, IdenticalSetsHaveSimilarityNearOne)
{
    BloomConfig config{.numBits = 2048, .numHashes = 4, .seed = 8};
    BloomFilter a(config), b(config);
    for (std::uint64_t key = 0; key < 40; ++key) {
        a.insert(key * 31 + 7);
        b.insert(key * 31 + 7);
    }
    EXPECT_NEAR(bloom::similarity(a, b, 40.0), 1.0, 0.15);
}

TEST(Similarity, DisjointSetsHaveSimilarityNearZero)
{
    BloomConfig config{.numBits = 4096, .numHashes = 4, .seed = 9};
    BloomFilter a(config), b(config);
    for (std::uint64_t key = 0; key < 40; ++key) {
        a.insert(0x1111000 + key);
        b.insert(0x9999000 + key);
    }
    EXPECT_NEAR(bloom::similarity(a, b, 40.0), 0.0, 0.1);
}

TEST(Similarity, AlwaysClampedToUnitInterval)
{
    BloomConfig config{.numBits = 512, .numHashes = 2, .seed = 10};
    sim::Rng rng(11);
    for (int trial = 0; trial < 30; ++trial) {
        BloomFilter a(config), b(config);
        int n = static_cast<int>(rng.below(100)) + 1;
        for (int i = 0; i < n; ++i) {
            std::uint64_t key = rng.next();
            a.insert(key);
            if (rng.chance(0.5))
                b.insert(key);
            else
                b.insert(rng.next());
        }
        double sim = bloom::similarity(a, b, static_cast<double>(n));
        EXPECT_GE(sim, 0.0);
        EXPECT_LE(sim, 1.0);
    }
}

TEST(Similarity, ZeroAvgSizeGivesZero)
{
    BloomFilter a{}, b{};
    a.insert(1);
    b.insert(1);
    EXPECT_DOUBLE_EQ(bloom::similarity(a, b, 0.0), 0.0);
}

TEST(Similarity, ExactSimilarityClamps)
{
    EXPECT_DOUBLE_EQ(bloom::exactSimilarity(5.0, 10.0), 0.5);
    EXPECT_DOUBLE_EQ(bloom::exactSimilarity(15.0, 10.0), 1.0);
    EXPECT_DOUBLE_EQ(bloom::exactSimilarity(-1.0, 10.0), 0.0);
    EXPECT_DOUBLE_EQ(bloom::exactSimilarity(1.0, 0.0), 0.0);
}

/**
 * The headline property of Section 3.2: half-overlapping consecutive
 * executions measure similarity ~0.5 across every paper filter size.
 */
class SimilaritySizeSweep
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SimilaritySizeSweep, HalfOverlapMeasuresAboutHalf)
{
    BloomConfig config{.numBits = GetParam(), .numHashes = 4,
                       .seed = 12};
    BloomFilter a(config), b(config);
    constexpr int kSetSize = 48;
    sim::Rng rng(GetParam());
    for (int i = 0; i < kSetSize / 2; ++i) {
        std::uint64_t key = rng.next();
        a.insert(key);
        b.insert(key);
    }
    for (int i = kSetSize / 2; i < kSetSize; ++i) {
        a.insert(rng.next());
        b.insert(rng.next());
    }
    EXPECT_NEAR(bloom::similarity(a, b, kSetSize), 0.5, 0.2);
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, SimilaritySizeSweep,
                         ::testing::Values(512, 1024, 2048, 4096,
                                           8192));

// ---- perfect signatures: a commit's sorted, unique lines ------------

TEST(PerfectSignature, ExactSizeAndIntersection)
{
    std::vector<mem::Addr> a, b;
    for (mem::Addr line = 0; line < 20; ++line)
        a.push_back(line);
    for (mem::Addr line = 10; line < 30; ++line)
        b.push_back(line);
    EXPECT_EQ(mem::commonLines(a, b), 10u);
    EXPECT_EQ(mem::commonLines(b, a), 10u);
    // The limit turns the count into the is-it-non-empty test.
    EXPECT_EQ(mem::commonLines(a, b, 1), 1u);
}

TEST(PerfectSignature, DisjointSetsDoNotIntersect)
{
    const std::vector<mem::Addr> odd = {1, 3, 5}, even = {2, 4, 6};
    EXPECT_EQ(mem::commonLines(odd, even), 0u);
    EXPECT_EQ(mem::commonLines(odd, even, 1), 0u);
    EXPECT_EQ(mem::commonLines(odd, {}), 0u);
}

TEST(SignatureSimilarity, AgreesAcrossImplementations)
{
    // The same half-overlapping sets as Bloom filters and as perfect
    // signatures: the Bloom Eq. 4 estimate must approximate the exact
    // similarity BFGTS-NoOverhead computes.
    BloomFilter bloom_new, bloom_old;
    std::vector<mem::Addr> exact_new, exact_old;
    sim::Rng rng(21);
    constexpr int kSize = 60;
    for (int i = 0; i < kSize; ++i) {
        const std::uint64_t key = rng.next();
        const std::uint64_t old_key = i < kSize / 2 ? key : rng.next();
        bloom_new.insert(key);
        exact_new.push_back(key);
        bloom_old.insert(old_key);
        exact_old.push_back(old_key);
    }
    std::sort(exact_new.begin(), exact_new.end());
    std::sort(exact_old.begin(), exact_old.end());
    const double exact = bloom::exactSimilarity(
        static_cast<double>(mem::commonLines(exact_new, exact_old)),
        kSize);
    const double approx = bloom::similarity(bloom_new, bloom_old, kSize);
    EXPECT_NEAR(exact, 0.5, 0.05);
    EXPECT_NEAR(approx, exact, 0.2);
}

TEST(SignatureSimilarity, PerfectIdenticalIsOne)
{
    std::vector<mem::Addr> a;
    for (mem::Addr line = 0; line < 25; ++line)
        a.push_back(line);
    EXPECT_DOUBLE_EQ(bloom::exactSimilarity(
                         static_cast<double>(mem::commonLines(a, a)), 25.0),
                     1.0);
}

} // namespace
