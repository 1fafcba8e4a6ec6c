#include "mem_system.h"

#include <algorithm>
#include <bit>

#include "sim/det_hash.h"
#include "sim/logging.h"

namespace mem {

MemSystem::MemSystem(const MemSystemConfig &config)
    : config_(config), l2_(config.l2), bus_(config.busOccupancy)
{
    sim_assert(config.numCpus >= 1);
    l1s_.reserve(static_cast<std::size_t>(config.numCpus));
    for (int i = 0; i < config.numCpus; ++i)
        l1s_.push_back(std::make_unique<Cache>(config.l1));

    const std::uint64_t l1_lines =
        config.l1.sizeBytes / kLineBytes
        * static_cast<std::uint64_t>(config.numCpus);
    dirMaxEntries_ = l1_lines;
    const std::size_t slots = std::bit_ceil(l1_lines + l1_lines / 2);
    dirStride_ =
        1 + (static_cast<std::size_t>(config.numCpus) + 63) / 64;
    dirMask_ = slots - 1;
    dir_.assign(slots * dirStride_, 0);
    for (std::size_t slot = 0; slot < slots; ++slot)
        *dirSlot(slot) = kNoLine;
}

std::size_t
MemSystem::dirFind(Addr line) const
{
    std::size_t slot = sim::SeededHash<Addr>{}(line) & dirMask_;
    while (*dirSlot(slot) != line && *dirSlot(slot) != kNoLine)
        slot = (slot + 1) & dirMask_;
    return slot;
}

void
MemSystem::dirErase(std::size_t slot)
{
    // Pull each later entry of the probe run back into the hole
    // unless the hole lies before its home slot, so every entry stays
    // reachable from its home without tombstones.
    std::size_t hole = slot;
    for (std::size_t next = (hole + 1) & dirMask_;
         *dirSlot(next) != kNoLine; next = (next + 1) & dirMask_) {
        const std::size_t home =
            sim::SeededHash<Addr>{}(*dirSlot(next)) & dirMask_;
        if (((next - home) & dirMask_) >= ((next - hole) & dirMask_)) {
            std::copy_n(dirSlot(next), dirStride_, dirSlot(hole));
            hole = next;
        }
    }
    std::fill_n(dirSlot(hole), dirStride_, 0);
    *dirSlot(hole) = kNoLine;
    --dirEntries_;
}

sim::Cycles
MemSystem::access(sim::CpuId cpu, Addr addr, bool is_write,
                  sim::Tick now)
{
    sim_assert(cpu >= 0 && cpu < config_.numCpus);
    Cache &l1 = *l1s_[cpu];
    sim::Cycles latency = l1.hitLatency();
    const Addr line = lineNumber(addr);
    const std::size_t word = static_cast<std::size_t>(cpu) / 64;
    const std::uint64_t bit = std::uint64_t{1} << (cpu % 64);

    Addr victim;
    bool l1_hit = l1.access(addr, &victim);
    bool need_bus = !l1_hit;

    std::uint64_t *entry = nullptr;
    if (!l1_hit) {
        // The fill displaced the victim first, so drop its bit before
        // adding the line: the entry count never passes the bound.
        if (victim != kNoLine) {
            const std::size_t slot = dirFind(victim);
            std::uint64_t *held = dirSlot(slot);
            held[1 + word] &= ~bit;
            if (std::all_of(held + 1, held + dirStride_,
                            [](std::uint64_t w) { return w == 0; })) {
                dirErase(slot);
            }
        }
        entry = dirSlot(dirFind(line));
        if (entry[0] == kNoLine) {
            // A leaked entry would eventually fill the table and
            // make dirFind() spin; stop at the bound instead.
            ++dirEntries_;
            sim_assert(dirEntries_ <= dirMaxEntries_);
            entry[0] = line;
        }
        entry[1 + word] |= bit;
    }

    if (is_write) {
        // Write-invalidate coherence: remote copies are killed. A
        // write to a line shared remotely also needs a bus
        // transaction (upgrade) even when it hits locally.
        if (entry == nullptr)
            entry = dirSlot(dirFind(line));
        for (std::size_t w = 0; w + 1 < dirStride_; ++w) {
            std::uint64_t others = entry[1 + w];
            if (w == word)
                others &= ~bit;
            entry[1 + w] = w == word ? bit : 0;
            if (others != 0)
                need_bus = true;
            for (; others != 0; others &= others - 1) {
                const int other =
                    static_cast<int>(w * 64)
                    + std::countr_zero(others);
                l1s_[static_cast<std::size_t>(other)]->invalidate(
                    addr);
            }
        }
    }

    if (!l1_hit) {
        sim::Cycles queue = bus_.request(now + latency);
        latency += queue + bus_.occupancy();
        bool l2_hit = l2_.access(addr);
        latency += l2_.hitLatency();
        if (!l2_hit)
            latency += config_.memLatency;
    } else if (need_bus) {
        // Upgrade transaction: arbitration + occupancy, no data read.
        sim::Cycles queue = bus_.request(now + latency);
        latency += queue + bus_.occupancy();
    }

    return latency;
}

} // namespace mem
