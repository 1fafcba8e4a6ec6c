#include "bloom_filter.h"

#include <bit>

#include "sim/logging.h"

namespace bloom {

BloomFilter::BloomFilter(const BloomConfig &config)
    : config_(config),
      hashes_(config.numHashes,
              config.partitioned ? config.numBits
                                       / static_cast<std::uint64_t>(
                                           config.numHashes)
                                 : config.numBits,
              config.seed),
      words_((config.numBits + 63) / 64, 0)
{
    sim_assert(config.numBits >= 64);
    sim_assert(config.numHashes >= 1);
    if (config.partitioned) {
        sim_assert(config.numBits
                       % static_cast<std::uint64_t>(config.numHashes)
                   == 0);
    }
}

std::uint64_t
BloomFilter::bitIndexFor(int fn, std::uint64_t key) const
{
    if (!config_.partitioned)
        return hashes_.hash(fn, key);
    // Bank fn owns bits [fn * m/k, (fn+1) * m/k).
    const std::uint64_t bank_bits =
        config_.numBits / static_cast<std::uint64_t>(
            config_.numHashes);
    return static_cast<std::uint64_t>(fn) * bank_bits
         + hashes_.hash(fn, key);
}

void
BloomFilter::insert(std::uint64_t key)
{
    for (int fn = 0; fn < config_.numHashes; ++fn) {
        std::uint64_t bit = bitIndexFor(fn, key);
        words_[bit >> 6] |= 1ULL << (bit & 63);
    }
    ++numInserted_;
}

bool
BloomFilter::mayContain(std::uint64_t key) const
{
    for (int fn = 0; fn < config_.numHashes; ++fn) {
        std::uint64_t bit = bitIndexFor(fn, key);
        if (!(words_[bit >> 6] & (1ULL << (bit & 63))))
            return false;
    }
    return true;
}

void
BloomFilter::clear()
{
    std::fill(words_.begin(), words_.end(), 0);
    numInserted_ = 0;
}

std::uint64_t
BloomFilter::popCount() const
{
    std::uint64_t count = 0;
    for (std::uint64_t word : words_)
        count += static_cast<std::uint64_t>(std::popcount(word));
    return count;
}

void
BloomFilter::testSetBit(std::uint64_t bit)
{
    sim_assert(bit < config_.numBits);
    words_[bit >> 6] |= 1ULL << (bit & 63);
}

void
BloomFilter::testClearBit(std::uint64_t bit)
{
    sim_assert(bit < config_.numBits);
    words_[bit >> 6] &= ~(1ULL << (bit & 63));
}

bool
BloomFilter::compatibleWith(const BloomFilter &other) const
{
    return config_ == other.config_;
}

void
BloomFilter::unionInPlace(const BloomFilter &other)
{
    sim_assert(compatibleWith(other));
    for (std::size_t i = 0; i < words_.size(); ++i)
        words_[i] |= other.words_[i];
    numInserted_ += other.numInserted_;
}

BloomFilter
BloomFilter::unionWith(const BloomFilter &other) const
{
    BloomFilter result = *this;
    result.unionInPlace(other);
    return result;
}

BloomFilter
BloomFilter::intersectWith(const BloomFilter &other) const
{
    sim_assert(compatibleWith(other));
    BloomFilter result = *this;
    for (std::size_t i = 0; i < words_.size(); ++i)
        result.words_[i] &= other.words_[i];
    // The exact insert count of an intersection is unknowable; keep 0.
    result.numInserted_ = 0;
    return result;
}

bool
BloomFilter::intersectionNonEmpty(const BloomFilter &other) const
{
    sim_assert(compatibleWith(other));
    for (std::size_t i = 0; i < words_.size(); ++i) {
        if (words_[i] & other.words_[i])
            return true;
    }
    return false;
}

} // namespace bloom
