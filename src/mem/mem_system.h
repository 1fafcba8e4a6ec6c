/**
 * @file
 * The composed memory hierarchy of Table 2.
 *
 * Per-CPU 64kB 2-way L1s over a shared bus to a 32MB 16-way L2 and
 * 100-cycle main memory. Writes keep the L1s coherent by invalidating
 * remote copies (MSI-style write-invalidate, modeled for timing of
 * subsequent accesses only: the snoop itself rides the existing bus
 * transfer).
 *
 * The snoop is answered by a sharer directory rather than by probing
 * every L1: for each line resident in any L1, a bitmask of the L1s
 * that hold it. Every L1 fill sets the filler's bit and clears it for
 * the line the fill evicted, and a write leaves only the writer's
 * bit, so the masks are exact and a write touches only the L1s that
 * really hold a copy.
 */

#ifndef BFGTS_MEM_MEM_SYSTEM_H
#define BFGTS_MEM_MEM_SYSTEM_H

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/addr.h"
#include "mem/bus.h"
#include "mem/cache.h"
#include "sim/types.h"

namespace mem {

/** Latencies and geometry of the full hierarchy (Table 2 defaults). */
struct MemSystemConfig {
    int numCpus = 16;
    CacheConfig l1{.sizeBytes = 64 * 1024,
                   .associativity = 2,
                   .hitLatency = 1};
    CacheConfig l2{.sizeBytes = 32ULL * 1024 * 1024,
                   .associativity = 16,
                   .hitLatency = 32};
    sim::Cycles memLatency = 100;
    sim::Cycles busOccupancy = 4;
};

/**
 * Timing model of the cache hierarchy.
 *
 * access() returns the total latency of one load/store issued by a
 * CPU at a given tick, updating cache and bus state.
 */
class MemSystem
{
  public:
    explicit MemSystem(const MemSystemConfig &config);

    /**
     * Perform one memory access.
     *
     * @param cpu      Issuing CPU.
     * @param addr     Byte address (line-aligned internally).
     * @param is_write True for stores; invalidates remote L1 copies.
     * @param now      Current tick (for bus arbitration).
     * @return Latency in cycles of this access.
     */
    sim::Cycles access(sim::CpuId cpu, Addr addr, bool is_write,
                       sim::Tick now);

    /** The L1 of @p cpu (stats/tests). */
    const Cache &l1(sim::CpuId cpu) const { return *l1s_[cpu]; }

    /** The shared L2 (stats/tests). */
    const Cache &l2() const { return l2_; }

    /** The shared bus (stats/tests). */
    const Bus &bus() const { return bus_; }

    int numCpus() const { return config_.numCpus; }

    const MemSystemConfig &config() const { return config_; }

  private:
    /**
     * Index of @p line's directory slot, or of the empty slot where it
     * would go (linear probing from its seeded hash).
     */
    std::size_t dirFind(Addr line) const;
    /** Remove the entry in @p slot (backward-shift deletion). */
    void dirErase(std::size_t slot);
    /** Key word of @p slot; its mask words follow it. */
    std::uint64_t *dirSlot(std::size_t slot)
    {
        return &dir_[slot * dirStride_];
    }
    const std::uint64_t *dirSlot(std::size_t slot) const
    {
        return &dir_[slot * dirStride_];
    }

    MemSystemConfig config_;
    std::vector<std::unique_ptr<Cache>> l1s_;
    Cache l2_;
    Bus bus_;
    /** Sharer directory: an open-addressed table of slots, each one
     *  key word (line number, kNoLine when empty) and ceil(numCpus /
     *  64) mask words. Never iterated, so its hash order is never
     *  observable. Sized for every L1 line at once, at most 2/3
     *  full, so it never grows. */
    std::vector<std::uint64_t> dir_;
    std::size_t dirStride_ = 0;
    std::size_t dirMask_ = 0;
    /** Live entries. Each holds a line resident in some L1, so there
     *  are never more than the machine's L1 lines. */
    std::size_t dirEntries_ = 0;
    std::size_t dirMaxEntries_ = 0;
};

} // namespace mem

#endif // BFGTS_MEM_MEM_SYSTEM_H
