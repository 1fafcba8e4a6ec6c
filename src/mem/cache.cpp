#include "cache.h"

#include "sim/logging.h"

namespace mem {

Cache::Cache(const CacheConfig &config) : config_(config)
{
    sim_assert(config.associativity >= 1);
    sim_assert(config.sizeBytes >= kLineBytes);
    std::uint64_t lines = config.sizeBytes / kLineBytes;
    sim_assert(lines % config.associativity == 0);
    numSets_ = static_cast<int>(
        lines / static_cast<std::uint64_t>(config.associativity));
    sim_assert(numSets_ >= 1);
    ways_.resize(lines);
}

int
Cache::setIndex(Addr line) const
{
    return static_cast<int>(line % static_cast<Addr>(numSets_));
}

bool
Cache::access(Addr addr, Addr *victim_line)
{
    const Addr line = lineNumber(addr);
    const int set = setIndex(line);
    Way *base = &ways_[static_cast<std::size_t>(set)
                       * config_.associativity];
    ++useClock_;
    Way *victim = base;
    if (victim_line != nullptr)
        *victim_line = kNoLine;
    for (int w = 0; w < config_.associativity; ++w) {
        Way &way = base[w];
        if (way.tag == line) {
            way.lastUse = useClock_;
            hits_.inc();
            return true;
        }
        if (way.tag == kNoLine) {
            victim = &way;
        } else if (victim->tag != kNoLine
                   && way.lastUse < victim->lastUse) {
            victim = &way;
        }
    }
    misses_.inc();
    if (victim_line != nullptr)
        *victim_line = victim->tag;
    victim->tag = line;
    victim->lastUse = useClock_;
    return false;
}

bool
Cache::contains(Addr addr) const
{
    const Addr line = lineNumber(addr);
    const int set = setIndex(line);
    const Way *base = &ways_[static_cast<std::size_t>(set)
                             * config_.associativity];
    for (int w = 0; w < config_.associativity; ++w) {
        if (base[w].tag == line)
            return true;
    }
    return false;
}

void
Cache::invalidate(Addr addr)
{
    const Addr line = lineNumber(addr);
    const int set = setIndex(line);
    Way *base = &ways_[static_cast<std::size_t>(set)
                       * config_.associativity];
    for (int w = 0; w < config_.associativity; ++w) {
        Way &way = base[w];
        if (way.tag == line) {
            invalidations_.inc();
            way.tag = kNoLine;
            return;
        }
    }
}

void
Cache::flush()
{
    for (Way &way : ways_)
        way.tag = kNoLine;
}

} // namespace mem
