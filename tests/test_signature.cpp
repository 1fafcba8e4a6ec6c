/**
 * @file
 * Tests for the polymorphic signature layer (Bloom vs perfect), and
 * the property that the Bloom implementation approximates the
 * perfect one.
 */

#include <gtest/gtest.h>

#include "bloom/signature.h"
#include "sim/random.h"

namespace {

using bloom::BloomSignature;
using bloom::PerfectSignature;
using bloom::Signature;

TEST(PerfectSignature, ExactSizeAndIntersection)
{
    PerfectSignature a, b;
    for (std::uint64_t key = 0; key < 20; ++key)
        a.insert(key);
    for (std::uint64_t key = 10; key < 30; ++key)
        b.insert(key);
    EXPECT_DOUBLE_EQ(a.estimateSize(), 20.0);
    EXPECT_DOUBLE_EQ(a.estimateIntersectionSize(b), 10.0);
    EXPECT_TRUE(a.intersectsNonEmpty(b));
}

TEST(PerfectSignature, DisjointSetsDoNotIntersect)
{
    PerfectSignature a, b;
    a.insert(1);
    b.insert(2);
    EXPECT_FALSE(a.intersectsNonEmpty(b));
    EXPECT_DOUBLE_EQ(a.estimateIntersectionSize(b), 0.0);
}

TEST(PerfectSignature, ClearAndEmpty)
{
    PerfectSignature a;
    EXPECT_TRUE(a.empty());
    a.insert(5);
    EXPECT_FALSE(a.empty());
    a.clear();
    EXPECT_TRUE(a.empty());
    EXPECT_DOUBLE_EQ(a.estimateSize(), 0.0);
}

TEST(PerfectSignature, DuplicateInsertsAreIdempotent)
{
    PerfectSignature a;
    a.insert(5);
    a.insert(5);
    EXPECT_DOUBLE_EQ(a.estimateSize(), 1.0);
}

TEST(PerfectSignature, CloneIsDeepCopy)
{
    PerfectSignature a;
    a.insert(1);
    auto clone = a.clone();
    a.insert(2);
    EXPECT_DOUBLE_EQ(clone->estimateSize(), 1.0);
    EXPECT_DOUBLE_EQ(a.estimateSize(), 2.0);
}

TEST(BloomSignature, BasicRoundTrip)
{
    BloomSignature a;
    EXPECT_TRUE(a.empty());
    a.insert(123);
    EXPECT_FALSE(a.empty());
    EXPECT_NEAR(a.estimateSize(), 1.0, 0.1);
    a.clear();
    EXPECT_TRUE(a.empty());
}

TEST(BloomSignature, CloneIsIndependent)
{
    BloomSignature a;
    a.insert(1);
    auto clone = a.clone();
    a.insert(2);
    EXPECT_LT(clone->estimateSize(), a.estimateSize());
}

TEST(BloomSignature, CloneOfEmptyPrototypeMatchesFreshSignature)
{
    // BFGTS and PTS encode every commit in a clone of one empty
    // prototype; it must build the same filter a fresh signature would.
    // Their default configs (cm/bfgts.h, cm/pts.h), then a partitioned
    // geometry.
    const bloom::BloomConfig configs[] = {
        {.numBits = 2048, .numHashes = 4},
        {.numBits = 1024, .numHashes = 2},
        {.numBits = 2048, .numHashes = 4, .partitioned = true},
    };
    for (const bloom::BloomConfig &config : configs) {
        const BloomSignature prototype(config);
        const std::unique_ptr<Signature> clone = prototype.clone();
        BloomSignature fresh(config);
        BloomSignature other(config);
        sim::Rng rng(config.numBits + config.numHashes);
        for (int i = 0; i < 100; ++i) {
            const std::uint64_t key = rng.next();
            clone->insert(key);
            fresh.insert(key);
            if (i % 2 == 0)
                other.insert(key);
            else
                other.insert(rng.next());
        }
        const auto &cloned = dynamic_cast<const BloomSignature &>(*clone);
        EXPECT_EQ(cloned.filter().words(), fresh.filter().words());
        EXPECT_EQ(clone->estimateSize(), fresh.estimateSize());
        EXPECT_EQ(clone->estimateIntersectionSize(other),
                  fresh.estimateIntersectionSize(other));
        EXPECT_TRUE(prototype.empty());
    }
}

TEST(BloomSignatureDeath, MixingImplementationsPanics)
{
    BloomSignature a;
    PerfectSignature b;
    a.insert(1);
    b.insert(1);
    EXPECT_DEATH(a.intersectsNonEmpty(b), "non-Bloom");
    EXPECT_DEATH(b.estimateIntersectionSize(a), "non-perfect");
}

TEST(SignatureSimilarity, AgreesAcrossImplementations)
{
    // Build the same half-overlapping sets in both implementations;
    // the Bloom similarity must approximate the exact one.
    BloomSignature bloom_new, bloom_old;
    PerfectSignature exact_new, exact_old;
    sim::Rng rng(21);
    constexpr int kSize = 60;
    for (int i = 0; i < kSize; ++i) {
        std::uint64_t key = rng.next();
        bloom_new.insert(key);
        exact_new.insert(key);
        if (i < kSize / 2) {
            bloom_old.insert(key);
            exact_old.insert(key);
        } else {
            std::uint64_t other = rng.next();
            bloom_old.insert(other);
            exact_old.insert(other);
        }
    }
    const double exact = bloom::signatureSimilarity(exact_new,
                                                    exact_old, kSize);
    const double approx = bloom::signatureSimilarity(bloom_new,
                                                     bloom_old, kSize);
    EXPECT_NEAR(exact, 0.5, 0.05);
    EXPECT_NEAR(approx, exact, 0.2);
}

TEST(SignatureSimilarity, PerfectIdenticalIsOne)
{
    PerfectSignature a, b;
    for (std::uint64_t key = 0; key < 25; ++key) {
        a.insert(key);
        b.insert(key);
    }
    EXPECT_DOUBLE_EQ(bloom::signatureSimilarity(a, b, 25.0), 1.0);
}

} // namespace
