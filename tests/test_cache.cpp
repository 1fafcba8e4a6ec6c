/**
 * @file
 * Unit tests for the set-associative cache model, the bus, and the
 * composed memory system.
 */

#include <gtest/gtest.h>

#include "mem/bus.h"
#include "mem/cache.h"
#include "mem/mem_system.h"

namespace {

using mem::Addr;
using mem::Cache;
using mem::CacheConfig;
using mem::kLineBytes;

CacheConfig
tinyCache(int assoc = 2)
{
    // 8 lines total.
    return CacheConfig{.sizeBytes = 8 * kLineBytes,
                       .associativity = assoc,
                       .hitLatency = 1};
}

TEST(Cache, MissThenHit)
{
    Cache cache(tinyCache());
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_EQ(cache.misses().value(), 1u);
    EXPECT_EQ(cache.hits().value(), 1u);
}

TEST(Cache, SameLineDifferentOffsetHits)
{
    Cache cache(tinyCache());
    cache.access(0x1000);
    EXPECT_TRUE(cache.access(0x1000 + 63)); // same 64B line
    EXPECT_FALSE(cache.access(0x1000 + 64)); // next line
}

TEST(Cache, LruEvictionWithinSet)
{
    // 2-way, 4 sets: lines 0, 4, 8 map to set 0.
    Cache cache(tinyCache());
    const Addr line0 = 0 * kLineBytes;
    const Addr line4 = 4 * kLineBytes;
    const Addr line8 = 8 * kLineBytes;
    cache.access(line0);
    cache.access(line4);
    cache.access(line0);  // line4 is now LRU
    cache.access(line8);  // evicts line4
    EXPECT_TRUE(cache.contains(line0));
    EXPECT_FALSE(cache.contains(line4));
    EXPECT_TRUE(cache.contains(line8));
}

TEST(Cache, DifferentSetsDoNotInterfere)
{
    Cache cache(tinyCache());
    for (Addr line = 0; line < 8; ++line)
        cache.access(line * kLineBytes);
    for (Addr line = 0; line < 8; ++line)
        EXPECT_TRUE(cache.contains(line * kLineBytes));
}

TEST(Cache, ContainsDoesNotTouchLru)
{
    Cache cache(tinyCache());
    const Addr line0 = 0 * kLineBytes;
    const Addr line4 = 4 * kLineBytes;
    const Addr line8 = 8 * kLineBytes;
    cache.access(line0);
    cache.access(line4);
    // contains() on line0 must not refresh it...
    EXPECT_TRUE(cache.contains(line0));
    // ...so line0 is still evicted first? No: line0 is older than
    // line4, so accessing line8 evicts line0.
    cache.access(line8);
    EXPECT_FALSE(cache.contains(line0));
    EXPECT_TRUE(cache.contains(line4));
}

TEST(Cache, InvalidateDropsLine)
{
    Cache cache(tinyCache());
    cache.access(0x40);
    cache.invalidate(0x40);
    EXPECT_FALSE(cache.contains(0x40));
    EXPECT_EQ(cache.invalidations().value(), 1u);
}

TEST(Cache, InvalidateMissIsCountedAsNothing)
{
    Cache cache(tinyCache());
    cache.invalidate(0x40);
    EXPECT_EQ(cache.invalidations().value(), 0u);
}

TEST(Cache, AccessReportsTheEvictedLine)
{
    // 2-way, 4 sets: lines 0, 4, 8 map to set 0.
    Cache cache(tinyCache());
    Addr victim = 0;
    cache.access(0 * kLineBytes, &victim);
    EXPECT_EQ(victim, mem::kNoLine); // filled an empty way
    cache.access(4 * kLineBytes, &victim);
    EXPECT_EQ(victim, mem::kNoLine);
    EXPECT_TRUE(cache.access(0 * kLineBytes, &victim));
    EXPECT_EQ(victim, mem::kNoLine); // hits evict nothing
    cache.access(8 * kLineBytes, &victim);
    EXPECT_EQ(victim, 4u); // line 4 was LRU
}

TEST(Cache, FlushDropsEverything)
{
    Cache cache(tinyCache());
    cache.access(0x40);
    cache.access(0x80);
    cache.flush();
    EXPECT_FALSE(cache.contains(0x40));
    EXPECT_FALSE(cache.contains(0x80));
}

TEST(Cache, DirectMappedConflicts)
{
    Cache cache(tinyCache(1));
    const Addr a = 0;
    const Addr b = 8 * kLineBytes; // same set in 8-set direct-mapped
    cache.access(a);
    cache.access(b);
    EXPECT_FALSE(cache.contains(a));
    EXPECT_TRUE(cache.contains(b));
}

TEST(Cache, FullyAssociativeNeverConflictsBelowCapacity)
{
    Cache cache(CacheConfig{.sizeBytes = 8 * kLineBytes,
                            .associativity = 8,
                            .hitLatency = 1});
    for (Addr line = 0; line < 8; ++line)
        cache.access(line * 64 * 977); // arbitrary distinct lines
    std::uint64_t resident = 0;
    for (Addr line = 0; line < 8; ++line)
        resident += cache.contains(line * 64 * 977) ? 1 : 0;
    EXPECT_EQ(resident, 8u);
}

TEST(Bus, NoContentionNoWait)
{
    mem::Bus bus(4);
    EXPECT_EQ(bus.request(100), 0u);
    EXPECT_EQ(bus.freeAt(), 104u);
}

TEST(Bus, BackToBackRequestsQueue)
{
    mem::Bus bus(4);
    EXPECT_EQ(bus.request(100), 0u);
    EXPECT_EQ(bus.request(100), 4u);  // waits for first transfer
    EXPECT_EQ(bus.request(100), 8u);
    EXPECT_EQ(bus.queuedCycles().value(), 12u);
    EXPECT_EQ(bus.requests().value(), 3u);
}

TEST(Bus, IdleGapResetsQueue)
{
    mem::Bus bus(4);
    bus.request(100);
    EXPECT_EQ(bus.request(200), 0u);
}

TEST(MemSystem, L1HitIsOneCycle)
{
    mem::MemSystemConfig config;
    config.numCpus = 2;
    mem::MemSystem ms(config);
    ms.access(0, 0x1000, false, 0);        // cold miss
    EXPECT_EQ(ms.access(0, 0x1000, false, 0), 1u);
}

TEST(MemSystem, ColdMissGoesToMemory)
{
    mem::MemSystemConfig config;
    config.numCpus = 1;
    mem::MemSystem ms(config);
    // L1 hit lat 1 + bus 4 + L2 lat 32 + memory 100 = 137.
    const sim::Cycles latency = ms.access(0, 0x2000, false, 0);
    EXPECT_GT(latency, config.memLatency);
    EXPECT_GE(latency, 1u + 4u + 32u + 100u);
}

TEST(MemSystem, L2HitAfterRemoteFetch)
{
    mem::MemSystemConfig config;
    config.numCpus = 2;
    mem::MemSystem ms(config);
    ms.access(0, 0x3000, false, 0);
    // CPU 1 misses L1 but hits L2 now.
    const sim::Cycles latency = ms.access(1, 0x3000, false, 1000);
    EXPECT_LT(latency, config.memLatency);
    EXPECT_GE(latency, config.l2.hitLatency);
}

TEST(MemSystem, WriteInvalidatesRemoteCopies)
{
    mem::MemSystemConfig config;
    config.numCpus = 2;
    mem::MemSystem ms(config);
    ms.access(0, 0x4000, false, 0);
    ms.access(1, 0x4000, false, 0);
    EXPECT_TRUE(ms.l1(0).contains(0x4000));
    ms.access(1, 0x4000, true, 100); // write kills CPU 0's copy
    EXPECT_FALSE(ms.l1(0).contains(0x4000));
    // CPU 0 re-reads: L1 miss again.
    EXPECT_GT(ms.access(0, 0x4000, false, 200), 1u);
}

TEST(MemSystem, ReadsDoNotInvalidateSharers)
{
    mem::MemSystemConfig config;
    config.numCpus = 3;
    mem::MemSystem ms(config);
    ms.access(0, 0x5000, false, 0);
    ms.access(1, 0x5000, false, 10);
    ms.access(2, 0x5000, false, 20);
    EXPECT_TRUE(ms.l1(0).contains(0x5000));
    EXPECT_TRUE(ms.l1(1).contains(0x5000));
    EXPECT_TRUE(ms.l1(2).contains(0x5000));
}

TEST(MemSystem, BusContentionRaisesLatency)
{
    mem::MemSystemConfig config;
    config.numCpus = 4;
    mem::MemSystem ms(config);
    // Four cold misses at the same tick from different CPUs.
    sim::Cycles first =
        ms.access(0, 0x10000, false, 0);
    sim::Cycles last = first;
    for (int cpu = 1; cpu < 4; ++cpu) {
        last = ms.access(cpu, 0x20000 + static_cast<Addr>(cpu) * 4096,
                         false, 0);
    }
    EXPECT_GT(last, first);
}

} // namespace
