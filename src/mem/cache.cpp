#include "cache.h"

#include <algorithm>
#include <bit>

#include "sim/logging.h"

namespace mem {

Cache::Cache(const CacheConfig &config) : config_(config)
{
    sim_assert(config.associativity >= 1);
    sim_assert(config.sizeBytes >= kLineBytes);
    std::uint64_t lines = config.sizeBytes / kLineBytes;
    sim_assert(lines % config.associativity == 0);
    const std::uint64_t sets =
        lines / static_cast<std::uint64_t>(config.associativity);
    sim_assert(std::has_single_bit(sets),
               "cache set count %llu is not a power of two",
               static_cast<unsigned long long>(sets));
    numSets_ = static_cast<int>(sets);
    setMask_ = sets - 1;
    lines_.assign(lines, kNoLine);
}

bool
Cache::access(Addr addr, Addr *victim_line)
{
    const Addr line = lineNumber(addr);
    Addr *set = &lines_[setStart(line)];
    // Stop at the line, at the first empty slot, or at the LRU entry
    // of a full set: whichever it is, the line takes the front and
    // the entries before it move back one.
    const int last = config_.associativity - 1;
    int w = 0;
    while (w < last && set[w] != line && set[w] != kNoLine)
        ++w;
    const bool hit = set[w] == line;
    if (victim_line != nullptr)
        *victim_line = hit ? kNoLine : set[w];
    for (; w > 0; --w)
        set[w] = set[w - 1];
    set[0] = line;
    if (hit)
        hits_.inc();
    else
        misses_.inc();
    return hit;
}

bool
Cache::contains(Addr addr) const
{
    const Addr line = lineNumber(addr);
    const Addr *set = &lines_[setStart(line)];
    return std::find(set, set + config_.associativity, line)
        != set + config_.associativity;
}

void
Cache::invalidate(Addr addr)
{
    const Addr line = lineNumber(addr);
    Addr *set = &lines_[setStart(line)];
    Addr *end = set + config_.associativity;
    Addr *slot = std::find(set, end, line);
    if (slot == end)
        return;
    invalidations_.inc();
    // Close the gap so the resident lines stay a recency-ordered
    // prefix of the set.
    std::copy(slot + 1, end, slot);
    end[-1] = kNoLine;
}

void
Cache::flush()
{
    std::fill(lines_.begin(), lines_.end(), kNoLine);
}

} // namespace mem
