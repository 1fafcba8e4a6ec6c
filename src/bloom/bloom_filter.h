/**
 * @file
 * The Bloom filter BFGTS and PTS use as a read/write-set signature.
 *
 * Beyond the classic insert/query, the paper's similarity metric
 * (Section 3.2, after Michael et al.'s distributed-join work) needs
 * popCount(), t, the number of set bits: bloom/estimate.h turns it
 * into the Eq. 2-4 estimates, and intersectionNonEmpty() is the
 * commit-time overlap test.
 *
 * Two filters are compatible (intersectable) iff they were built with
 * the same bit count, hash count, hash seed and layout.
 */

#ifndef BFGTS_BLOOM_BLOOM_FILTER_H
#define BFGTS_BLOOM_BLOOM_FILTER_H

#include <array>
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
 * A Bloom filter over 64-bit keys, in the plain or the partitioned
 * layout (BloomConfig::partitioned).
 *
 * The hash family is shared via a const reference-counted pointer so
 * that copying filters (the runtime stores one per dTxID) does not
 * duplicate the H3 matrices.
 */
class BloomFilter
{
  public:
    /**
     * One key's bit index per hash function; entries [0, k) are
     * used. positions() fills it, so a caller testing one key against
     * many filters of the same geometry hashes it once.
     */
    using Positions = std::array<std::uint64_t, H3HashFamily::kMaxHashes>;

    /** Build an empty filter for @p config. */
    explicit BloomFilter(const BloomConfig &config = BloomConfig{});

    /** Insert @p key. */
    void insert(std::uint64_t key);

    /** @return false if @p key was definitely never inserted. */
    bool mayContain(std::uint64_t key) const;

    /**
     * The bit hash function fn maps @p key to, for every fn in
     * [0, k): bank-aware in the partitioned layout (bank fn owns bits
     * [fn * m/k, (fn+1) * m/k)).
     */
    void positions(std::uint64_t key, Positions &out) const;

    /**
     * Set bits @p pos[0, @p k) in @p words, a filter's words or any
     * array laid out like them (insert() on precomputed positions).
     */
    static void
    setPositions(std::uint64_t *words, const Positions &pos, int k)
    {
        for (int fn = 0; fn < k; ++fn) {
            const std::uint64_t bit = pos[static_cast<std::size_t>(fn)];
            words[bit >> 6] |= 1ULL << (bit & 63);
        }
    }

    /** True if every bit @p pos[0, @p k) is set in @p words
     *  (mayContain() on precomputed positions). */
    static bool
    hasPositions(const std::uint64_t *words, const Positions &pos, int k)
    {
        for (int fn = 0; fn < k; ++fn) {
            const std::uint64_t bit = pos[static_cast<std::size_t>(fn)];
            if (!(words[bit >> 6] & (1ULL << (bit & 63))))
                return false;
        }
        return true;
    }

    /** Remove all elements. */
    void clear();

    /** Number of set bits (t in Eq. 2). */
    std::uint64_t popCount() const;

    /** True if no bit is set. */
    bool empty() const { return popCount() == 0; }

    /** Filter size in bits (m). */
    std::uint64_t numBits() const { return config_.numBits; }

    /** Number of hash functions (k). */
    int numHashes() const { return config_.numHashes; }

    const BloomConfig &config() const { return config_; }

    /** True if @p other can be intersected with this filter. */
    bool compatibleWith(const BloomFilter &other) const;

    /**
     * True if the bitwise AND of the two filters has any bit set.
     * This is the paper's intersectBlooms() commit-time test; it can
     * report a spurious overlap (false positive) but never misses a
     * real one. @pre compatibleWith.
     */
    bool intersectionNonEmpty(const BloomFilter &other) const;

    /** Raw words, for the Eq. 3 estimator, the audit and tests. */
    const std::vector<std::uint64_t> &words() const { return words_; }

    /** Test-only: set one raw bit (word-loop differential tests). */
    void testSetBit(std::uint64_t bit);

    /** Test-only: clear one raw bit (audit mutation selftests). */
    void testClearBit(std::uint64_t bit);

  private:
    BloomConfig config_;
    /** Bits per bank in the partitioned layout, else 0: function fn's
     *  bit is fn * bankBits_ + its hash. */
    std::uint64_t bankBits_;
    H3HashFamily hashes_;
    std::vector<std::uint64_t> words_;
};

} // namespace bloom

#endif // BFGTS_BLOOM_BLOOM_FILTER_H
