/**
 * @file
 * Seed-perturbable hashing for the simulator's hash tables.
 *
 * Simulation results must never depend on the layout of a hash table:
 * it is unspecified, varies across standard library versions, and
 * silently couples results to memory layout. Every hash table holding
 * simulation-affecting state -- the memory system's sharer directory
 * and the conflict detector's line registry, both open-addressed
 * tables -- hashes with sim::SeededHash, which mixes in a
 * process-wide seed taken from the BFGTS_HASH_SEED environment
 * variable (default 0). Changing the seed moves every entry to other
 * slots without changing table contents, so a test can run the same
 * simulation under two seeds and assert bit-identical results --
 * proving no code path reads slot order (see
 * tests/test_determinism.cpp and the lint rule `unordered-iteration`
 * in tools/lint/determinism_lint.py).
 *
 * The seed must only change while no seeded table holds elements
 * (existing entries are not rehashed); tests set it between
 * Simulation instances.
 */

#ifndef BFGTS_SIM_DET_HASH_H
#define BFGTS_SIM_DET_HASH_H

#include <cstdint>
#include <cstdlib>

#include "sim/random.h"

namespace sim {

namespace detail {

inline std::uint64_t
initialHashSeed()
{
    // lint:allow(wall-clock): getenv is read once at startup to
    // *select* the hash seed; the value itself never feeds simulated
    // behavior (results are asserted identical across seeds).
    const char *env = std::getenv("BFGTS_HASH_SEED");
    if (env == nullptr)
        return 0;
    return std::strtoull(env, nullptr, 0);
}

inline std::uint64_t &
hashSeedState()
{
    static std::uint64_t seed = initialHashSeed();
    return seed;
}

} // namespace detail

/** The process-wide hash perturbation seed (from BFGTS_HASH_SEED). */
inline std::uint64_t
hashSeed()
{
    return detail::hashSeedState();
}

/**
 * Override the hash seed (tests only). @pre no table hashed with
 * SeededHash currently holds elements.
 */
inline void
setHashSeed(std::uint64_t seed)
{
    detail::hashSeedState() = seed;
}

/** Seed-perturbed strong hash for integral keys. */
template <typename T>
struct SeededHash {
    std::size_t
    operator()(const T &value) const
    {
        return static_cast<std::size_t>(
            mix64(static_cast<std::uint64_t>(value) ^ hashSeed()));
    }
};

} // namespace sim

#endif // BFGTS_SIM_DET_HASH_H
