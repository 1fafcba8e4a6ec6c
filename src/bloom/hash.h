/**
 * @file
 * The hash family for Bloom filter signatures.
 *
 * Sanchez et al. (MICRO'07, "Implementing Signatures for Transactional
 * Memory") showed H3 hashing is both hardware-cheap and close to ideal
 * for signature false-positive rates, so every filter here uses H3.
 */

#ifndef BFGTS_BLOOM_HASH_H
#define BFGTS_BLOOM_HASH_H

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/random.h"

namespace bloom {

/**
 * H3 hash family: h(x) = XOR of a random row per set input bit.
 *
 * Each of the k hash functions owns a 64-row matrix of random words;
 * the hash of a 64-bit key is the XOR of the rows selected by the
 * key's set bits, reduced modulo the number of buckets. All functions
 * built from the same seed are identical, which is what makes two
 * Bloom filters with the same (bits, hashes, seed) unionable.
 *
 * hashAll() evaluates all k functions together. With a power-of-two
 * bucket count, function fn's rows are masked to a log2(buckets)-bit
 * lane and packed beside the other functions' rows (the low bits of
 * an XOR are the XOR of the low bits), so one walk over the key's set
 * bits, one XOR per bit, yields every function that fits in a 64-bit
 * word, with no division. Otherwise a lane is a whole word and each
 * sum is reduced with %. Rows are drawn in the same function-major
 * order either way, so every hash value is independent of the
 * packing.
 *
 * The matrix is held behind a shared const pointer, so copying a
 * family (and therefore a Bloom filter) is a reference-count bump,
 * not a matrix copy.
 */
class H3HashFamily
{
  public:
    /**
     * Most hash functions a family may have. It sizes the stack
     * buffers of a key's positions, whose zero-fill stays a few vector
     * stores at this size (a longer one is a rep stos per access).
     */
    static constexpr int kMaxHashes = 8;

    /**
     * @param num_hashes  Number of independent hash functions (k),
     *                    at most kMaxHashes.
     * @param num_buckets Output range: hashes fall in [0, num_buckets).
     * @param seed        Seed for the random matrices.
     */
    H3HashFamily(int num_hashes, std::uint64_t num_buckets,
                 std::uint64_t seed);

    /**
     * Every function applied to @p key: out[fn] = hash(fn, key) for
     * fn in [0, numHashes()). One pass over the key's set bits.
     */
    void hashAll(std::uint64_t key, std::uint64_t *out) const;

    /** Value of hash function @p fn (0-based) applied to @p key. */
    std::uint64_t hash(int fn, std::uint64_t key) const;

    int numHashes() const { return numHashes_; }
    std::uint64_t numBuckets() const { return numBuckets_; }

  private:
    int numHashes_;
    std::uint64_t numBuckets_;
    /** Lane width in bits: log2(buckets), or 64 when not a power of
     *  two. */
    int laneBits_;
    /** Mask of one lane's bits. */
    std::uint64_t laneMask_;
    /** Packed words per row: ceil(k / lanes per word). */
    std::size_t numWords_;
    /**
     * matrix_[w * 64 + bit] packs the rows of input bit @p bit for
     * the functions whose lanes fall in word w. Immutable after
     * construction and shared across copies.
     */
    std::shared_ptr<const std::vector<std::uint64_t>> matrix_;
};

} // namespace bloom

#endif // BFGTS_BLOOM_HASH_H
