/**
 * @file
 * Bloom filter with the set-algebra operations BFGTS needs.
 *
 * Beyond the classic insert/query, this filter supports the operations
 * the paper builds its similarity metric on (Section 3.2, after
 * Michael et al.'s distributed-join work):
 *  - popCount()           t, the number of set bits
 *  - unionWith()          bitwise OR of two compatible filters
 *  - intersectWith()      bitwise AND (approximate intersection)
 *  - estimateSetSize()    Eq. 2: S^-1(t) = ln(1-t/m) / (k ln(1-1/m))
 *
 * Two filters are compatible (unionable/intersectable) iff they were
 * built with the same bit count, hash count and hash seed.
 */

#ifndef BFGTS_BLOOM_BLOOM_FILTER_H
#define BFGTS_BLOOM_BLOOM_FILTER_H

#include <cstdint>
#include <vector>

#include "bloom/hash.h"

namespace bloom {

/** Configuration shared by compatible Bloom filters. */
struct BloomConfig {
    /** Filter size in bits (m). Paper sweeps 512..8192. */
    std::uint64_t numBits = 2048;
    /** Number of hash functions (k). */
    int numHashes = 4;
    /** Seed of the shared hash family. */
    std::uint64_t seed = 0xb100f17e5eedULL;
    /**
     * Partitioned ("parallel") layout, after Sanchez et al.
     * (MICRO'07): the m bits are split into k banks of m/k bits and
     * hash function i indexes only bank i. Hardware-friendlier (k
     * small SRAMs, one port each) at slightly worse false-positive
     * rates than the unpartitioned layout. numBits must be divisible
     * by numHashes when set.
     */
    bool partitioned = false;

    bool
    operator==(const BloomConfig &o) const
    {
        return numBits == o.numBits && numHashes == o.numHashes
            && seed == o.seed && partitioned == o.partitioned;
    }
};

/**
 * A plain (non-partitioned) Bloom filter over 64-bit keys.
 *
 * The hash family is shared via a const reference-counted pointer so
 * that copying filters (the runtime stores one per dTxID) does not
 * duplicate the H3 matrices.
 */
class BloomFilter
{
  public:
    /** Build an empty filter for @p config. */
    explicit BloomFilter(const BloomConfig &config = BloomConfig{});

    /** Insert @p key. */
    void insert(std::uint64_t key);

    /** @return false if @p key was definitely never inserted. */
    bool mayContain(std::uint64_t key) const;

    /** Remove all elements. */
    void clear();

    /** Number of set bits (t in Eq. 2). */
    std::uint64_t popCount() const;

    /** Number of keys inserted (exact bookkeeping, for tests/stats). */
    std::uint64_t numInserted() const { return numInserted_; }

    /** True if no bit is set. */
    bool empty() const { return popCount() == 0; }

    /** Filter size in bits (m). */
    std::uint64_t numBits() const { return config_.numBits; }

    /** Number of hash functions (k). */
    int numHashes() const { return config_.numHashes; }

    const BloomConfig &config() const { return config_; }

    /** True if @p other can be unioned/intersected with this filter. */
    bool compatibleWith(const BloomFilter &other) const;

    /** Bitwise-OR @p other into this filter. @pre compatibleWith. */
    void unionInPlace(const BloomFilter &other);

    /** @return a new filter = this OR other. @pre compatibleWith. */
    BloomFilter unionWith(const BloomFilter &other) const;

    /** @return a new filter = this AND other. @pre compatibleWith. */
    BloomFilter intersectWith(const BloomFilter &other) const;

    /**
     * True if the bitwise AND of the two filters has any bit set.
     * This is the paper's intersectBlooms() commit-time test; it can
     * report a spurious overlap (false positive) but never misses a
     * real one.
     */
    bool intersectionNonEmpty(const BloomFilter &other) const;

    /** Raw words, for the Eq. 3 estimator, the audit and tests. */
    const std::vector<std::uint64_t> &words() const { return words_; }

    /**
     * Bit index hash function @p fn maps @p key to (bank-aware in the
     * partitioned layout). Exposed so the audit engine can validate
     * the partitioned-layout no-false-negative property per bank.
     */
    std::uint64_t bitIndexFor(int fn, std::uint64_t key) const;

    /** Test-only: set one raw bit (word-loop differential tests). */
    void testSetBit(std::uint64_t bit);

    /** Test-only: clear one raw bit (audit mutation selftests). */
    void testClearBit(std::uint64_t bit);

  private:
    BloomConfig config_;
    H3HashFamily hashes_;
    std::vector<std::uint64_t> words_;
    std::uint64_t numInserted_ = 0;
};

} // namespace bloom

#endif // BFGTS_BLOOM_BLOOM_FILTER_H
