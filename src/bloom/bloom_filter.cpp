#include "bloom_filter.h"

#include <bit>

#include "sim/logging.h"

namespace bloom {

BloomFilter::BloomFilter(const BloomConfig &config)
    : config_(config),
      bankBits_(config.partitioned
                    ? config.numBits
                          / static_cast<std::uint64_t>(config.numHashes)
                    : 0),
      hashes_(config.numHashes,
              config.partitioned ? bankBits_ : config.numBits,
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

void
BloomFilter::positions(std::uint64_t key, Positions &out) const
{
    hashes_.hashAll(key, out.data());
    for (int fn = 0; fn < config_.numHashes; ++fn)
        out[static_cast<std::size_t>(fn)] +=
            static_cast<std::uint64_t>(fn) * bankBits_;
}

void
BloomFilter::insert(std::uint64_t key)
{
    Positions pos{};
    positions(key, pos);
    setPositions(words_.data(), pos, config_.numHashes);
}

bool
BloomFilter::mayContain(std::uint64_t key) const
{
    Positions pos{};
    positions(key, pos);
    return hasPositions(words_.data(), pos, config_.numHashes);
}

void
BloomFilter::clear()
{
    std::fill(words_.begin(), words_.end(), 0);
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
