#include "hash.h"

#include <bit>

#include "sim/logging.h"

namespace bloom {

H3HashFamily::H3HashFamily(int num_hashes, std::uint64_t num_buckets,
                           std::uint64_t seed)
    : numHashes_(num_hashes), numBuckets_(num_buckets)
{
    sim_assert(num_hashes > 0 && num_hashes <= kMaxHashes);
    sim_assert(num_buckets > 1);
    const bool pow2 = std::has_single_bit(num_buckets);
    laneBits_ = pow2 ? std::countr_zero(num_buckets) : 64;
    laneMask_ = pow2 ? num_buckets - 1 : ~std::uint64_t{0};
    const int lanes = 64 / laneBits_;
    numWords_ = static_cast<std::size_t>((num_hashes + lanes - 1)
                                         / lanes);

    std::vector<std::uint64_t> matrix(64 * numWords_, 0);
    std::uint64_t sm = seed ^ 0x8e1f0cafe5a5a5a5ULL;
    for (int fn = 0; fn < num_hashes; ++fn) {
        const std::size_t word = static_cast<std::size_t>(fn / lanes);
        const int shift = (fn % lanes) * laneBits_;
        for (std::size_t bit = 0; bit < 64; ++bit) {
            const std::uint64_t row = sim::splitmix64(sm) & laneMask_;
            matrix[word * 64 + bit] |= row << shift;
        }
    }
    matrix_ = std::make_shared<const std::vector<std::uint64_t>>(
        std::move(matrix));
}

void
H3HashFamily::hashAll(std::uint64_t key, std::uint64_t *out) const
{
    // One walk over the key's set bits per packed word, with the sum
    // in a register: one walk in all whenever the k lanes fit in a
    // word. A single walk feeding an array of sums instead keeps them
    // in memory and measured twice as slow for one word.
    const std::uint64_t *rows = matrix_->data();
    int fn = 0;
    for (std::size_t word = 0; word < numWords_; ++word, rows += 64) {
        std::uint64_t acc = 0;
        for (std::uint64_t rest = key; rest != 0; rest &= rest - 1)
            acc ^= rows[std::countr_zero(rest)];
        for (int shift = 0; fn < numHashes_ && shift + laneBits_ <= 64;
             ++fn, shift += laneBits_) {
            std::uint64_t value = (acc >> shift) & laneMask_;
            // Only a whole-word lane can exceed the bucket range.
            if (value >= numBuckets_)
                value %= numBuckets_;
            out[fn] = value;
        }
    }
}

std::uint64_t
H3HashFamily::hash(int fn, std::uint64_t key) const
{
    sim_assert(fn >= 0 && fn < numHashes_);
    std::uint64_t out[kMaxHashes] = {};
    hashAll(key, out);
    return out[fn];
}

} // namespace bloom
