/**
 * @file
 * Differential test of the memory hierarchy against its reference
 * model.
 *
 * mem::MemSystem answers write-invalidate snoops from a sharer
 * directory and keeps 16-byte cache ways (an empty way holds tag
 * kNoLine). The reference below is the straightforward model it
 * replaced: ways with a separate valid flag, and a write that probes
 * every other L1. Both see the same random read/write streams and
 * must agree on every access latency and every counter.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mem/mem_system.h"
#include "sim/random.h"

namespace {

using mem::Addr;

/** Set-associative true-LRU tag store with a valid bit per way. */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const mem::CacheConfig &config)
        : config_(config),
          numSets_(static_cast<int>(config.sizeBytes / mem::kLineBytes
                                    / config.associativity)),
          ways_(config.sizeBytes / mem::kLineBytes)
    {
    }

    bool
    access(Addr addr)
    {
        const Addr line = mem::lineNumber(addr);
        Way *base = set(line);
        ++useClock_;
        Way *victim = base;
        for (int w = 0; w < config_.associativity; ++w) {
            Way &way = base[w];
            if (way.valid && way.tag == line) {
                way.lastUse = useClock_;
                ++hits;
                return true;
            }
            if (!way.valid) {
                victim = &way;
            } else if (victim->valid
                       && way.lastUse < victim->lastUse) {
                victim = &way;
            }
        }
        ++misses;
        victim->tag = line;
        victim->valid = true;
        victim->lastUse = useClock_;
        return false;
    }

    bool
    contains(Addr addr)
    {
        const Addr line = mem::lineNumber(addr);
        const Way *base = set(line);
        for (int w = 0; w < config_.associativity; ++w) {
            if (base[w].valid && base[w].tag == line)
                return true;
        }
        return false;
    }

    void
    invalidate(Addr addr)
    {
        const Addr line = mem::lineNumber(addr);
        Way *base = set(line);
        for (int w = 0; w < config_.associativity; ++w) {
            if (base[w].valid && base[w].tag == line) {
                ++invalidations;
                base[w].valid = false;
                return;
            }
        }
    }

    sim::Cycles hitLatency() const { return config_.hitLatency; }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t invalidations = 0;

  private:
    struct Way {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    Way *
    set(Addr line)
    {
        return &ways_[static_cast<std::size_t>(
                          line % static_cast<Addr>(numSets_))
                      * static_cast<std::size_t>(
                          config_.associativity)];
    }

    mem::CacheConfig config_;
    int numSets_;
    std::vector<Way> ways_;
    std::uint64_t useClock_ = 0;
};

/** The hierarchy with a write that probes every other L1. */
class ReferenceMemSystem
{
  public:
    explicit ReferenceMemSystem(const mem::MemSystemConfig &config)
        : config_(config), l2(config.l2), bus(config.busOccupancy)
    {
        for (int i = 0; i < config.numCpus; ++i)
            l1s.push_back(std::make_unique<ReferenceCache>(config.l1));
    }

    sim::Cycles
    access(int cpu, Addr addr, bool is_write, sim::Tick now)
    {
        ReferenceCache &l1 = *l1s[static_cast<std::size_t>(cpu)];
        sim::Cycles latency = l1.hitLatency();
        const bool l1_hit = l1.access(addr);
        bool need_bus = !l1_hit;
        if (is_write) {
            for (int other = 0; other < config_.numCpus; ++other) {
                ReferenceCache &remote =
                    *l1s[static_cast<std::size_t>(other)];
                if (other != cpu && remote.contains(addr)) {
                    remote.invalidate(addr);
                    need_bus = true;
                }
            }
        }
        if (!l1_hit) {
            latency += bus.request(now + latency) + bus.occupancy();
            const bool l2_hit = l2.access(addr);
            latency += l2.hitLatency();
            if (!l2_hit)
                latency += config_.memLatency;
        } else if (need_bus) {
            latency += bus.request(now + latency) + bus.occupancy();
        }
        return latency;
    }

  private:
    mem::MemSystemConfig config_;

  public:
    std::vector<std::unique_ptr<ReferenceCache>> l1s;
    ReferenceCache l2;
    mem::Bus bus;
};

/** Every counter of both models must agree. */
void
expectSameCounters(const mem::MemSystem &fast,
                   const ReferenceMemSystem &ref, int cpus)
{
    for (int cpu = 0; cpu < cpus; ++cpu) {
        const mem::Cache &l1 = fast.l1(cpu);
        const ReferenceCache &rl1 =
            *ref.l1s[static_cast<std::size_t>(cpu)];
        EXPECT_EQ(l1.hits().value(), rl1.hits) << "cpu " << cpu;
        EXPECT_EQ(l1.misses().value(), rl1.misses) << "cpu " << cpu;
        EXPECT_EQ(l1.invalidations().value(), rl1.invalidations)
            << "cpu " << cpu;
    }
    EXPECT_EQ(fast.l2().hits().value(), ref.l2.hits);
    EXPECT_EQ(fast.l2().misses().value(), ref.l2.misses);
    EXPECT_EQ(fast.bus().requests().value(),
              ref.bus.requests().value());
    EXPECT_EQ(fast.bus().queuedCycles().value(),
              ref.bus.queuedCycles().value());
}

/**
 * Drive both models with one random stream: a hot pool every CPU
 * shares (so writes find remote copies) and a wide pool (so fills
 * evict), 30% writes, ticks advancing unevenly so the bus queues.
 */
void
runStream(const mem::MemSystemConfig &config, int accesses,
          std::uint64_t seed)
{
    mem::MemSystem fast(config);
    ReferenceMemSystem ref(config);
    sim::Rng rng(seed);
    sim::Tick now = 0;
    std::uint64_t remote_invalidations = 0;
    for (int i = 0; i < accesses; ++i) {
        const int cpu = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(config.numCpus)));
        const bool hot = rng.below(4) != 0;
        const Addr line = hot ? rng.below(48)
                              : 1000 + rng.below(8192);
        const Addr addr = line * mem::kLineBytes + rng.below(64);
        const bool write = rng.below(10) < 3;
        now += rng.below(6);
        const sim::Cycles got = fast.access(cpu, addr, write, now);
        const sim::Cycles want = ref.access(cpu, addr, write, now);
        ASSERT_EQ(got, want) << "access " << i << " cpu " << cpu
                             << " line " << line << " write "
                             << write;
    }
    expectSameCounters(fast, ref, config.numCpus);
    for (const auto &l1 : ref.l1s)
        remote_invalidations += l1->invalidations;
    if (config.numCpus > 1) {
        EXPECT_GT(remote_invalidations, 0u);
    }
}

class MemDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(MemDifferential, TableTwoGeometryMatchesReference)
{
    mem::MemSystemConfig config;
    config.numCpus = GetParam();
    runStream(config, 60'000,
              11 + static_cast<std::uint64_t>(GetParam()));
}

TEST_P(MemDifferential, TinyL1GeometryMatchesReference)
{
    // Four 2-way sets per L1 and a small L2: most fills evict a line,
    // so the directory's victim bookkeeping carries the result.
    mem::MemSystemConfig config;
    config.numCpus = GetParam();
    config.l1 = {.sizeBytes = 512, .associativity = 2, .hitLatency = 1};
    config.l2 = {.sizeBytes = 16 * 1024,
                 .associativity = 4,
                 .hitLatency = 32};
    runStream(config, 60'000,
              97 + static_cast<std::uint64_t>(GetParam()));
}

// 130 CPUs leave the second directory mask word partly used.
INSTANTIATE_TEST_SUITE_P(Cpus, MemDifferential,
                         ::testing::Values(1, 4, 64, 130));

} // namespace
