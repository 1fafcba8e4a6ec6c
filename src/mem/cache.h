/**
 * @file
 * Set-associative LRU cache timing model.
 *
 * This is a tag-only model: it tracks which lines are resident to
 * decide hit/miss, but holds no data (the simulator is timing-only).
 * It models the three caches in Table 2: 64kB 2-way L1s, the 32MB
 * 16-way L2, and the 2kB 16-way Tx confidence cache of the hardware
 * scheduling accelerator. The confidence cache's special behaviour --
 * "fetch cache lines evicted by an invalidate snoop" -- leaves its
 * residency unchanged, so cpu::PredictorSystem accounts for those
 * refetches itself and never invalidates it.
 */

#ifndef BFGTS_MEM_CACHE_H
#define BFGTS_MEM_CACHE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/addr.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace mem {

/** Not a line number: the entry of an empty slot in a set, and the
 *  victim access() reports when a miss displaced no line. */
constexpr Addr kNoLine = ~Addr{0};

/** Geometry and latency of one cache. */
struct CacheConfig {
    std::uint64_t sizeBytes = 64 * 1024;
    int associativity = 2;
    sim::Cycles hitLatency = 1;
};

/**
 * A set-associative cache with true-LRU replacement.
 *
 * access() combines lookup and fill: a miss installs the line (the
 * victim is the LRU line of a full set). The caller layers miss
 * latency on top.
 *
 * Each set keeps its resident line numbers in recency order, most
 * recent first, followed by kNoLine entries: a hit moves the line to
 * the front, a fill inserts it there and pushes the last entry out
 * when the set is full, and an invalidation closes the gap. That is
 * exactly LRU with per-way use stamps: stamps are unique, an empty way
 * wins over any valid one, and which physical way a line occupies
 * never shows. A 16-way set is 128 bytes, and the common hit on the
 * most recent line reads only its first entry.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Look up @p addr; install it on a miss.
     *
     * @param addr        Any byte address; aligned internally.
     * @param victim_line When non-null, receives the line number a
     *                    miss evicted, or kNoLine when none was.
     * @return true on hit.
     */
    bool access(Addr addr, Addr *victim_line = nullptr);

    /** True if the line holding @p addr is resident (no LRU update). */
    bool contains(Addr addr) const;

    /** Coherence invalidation: drop the line holding @p addr. */
    void invalidate(Addr addr);

    /** Drop every line. */
    void flush();

    int numSets() const { return numSets_; }
    int associativity() const { return config_.associativity; }
    sim::Cycles hitLatency() const { return config_.hitLatency; }

    const sim::Counter &hits() const { return hits_; }
    const sim::Counter &misses() const { return misses_; }
    const sim::Counter &invalidations() const { return invalidations_; }

  private:
    /** Index in lines_ of the first entry of @p line's set. */
    std::size_t
    setStart(Addr line) const
    {
        return static_cast<std::size_t>(line & setMask_)
             * static_cast<std::size_t>(config_.associativity);
    }

    CacheConfig config_;
    int numSets_;
    /** numSets_ - 1: the set count is a power of two. */
    Addr setMask_;
    /** numSets_ rows of associativity line numbers, each most
     *  recently used first, then kNoLine. */
    std::vector<Addr> lines_;

    sim::Counter hits_;
    sim::Counter misses_;
    sim::Counter invalidations_;
};

} // namespace mem

#endif // BFGTS_MEM_CACHE_H
