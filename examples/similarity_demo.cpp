/**
 * @file
 * The Bloom filter similarity estimators, standalone (paper
 * Section 3.2, Eqs. 2-4).
 *
 * Demonstrates, without the simulator:
 *  1. set-size estimation from a filter's popcount (Eq. 2);
 *  2. intersection estimation via union inclusion-exclusion (Eq. 3);
 *  3. the "similarity" of consecutive transaction read/write sets
 *     (Eq. 4), compared against the exact value, across the paper's
 *     filter sizes (512..8192 bits).
 */

#include <cstdio>

#include "bloom/estimate.h"
#include "sim/random.h"

namespace {

/** Build two set pairs with a chosen overlap fraction. */
void
demoOverlap(double overlap_fraction)
{
    constexpr int kSetSize = 64;
    const int shared =
        static_cast<int>(overlap_fraction * kSetSize);

    std::printf("true overlap %3.0f%%:  ", 100.0 * overlap_fraction);
    for (std::uint64_t bits : {512u, 1024u, 2048u, 4096u, 8192u}) {
        bloom::BloomConfig config{.numBits = bits, .numHashes = 4,
                                  .seed = 99};
        bloom::BloomFilter prev(config), cur(config);
        sim::Rng rng(bits * 7919);
        for (int i = 0; i < shared; ++i) {
            std::uint64_t key = rng.next();
            prev.insert(key);
            cur.insert(key);
        }
        for (int i = shared; i < kSetSize; ++i) {
            prev.insert(rng.next());
            cur.insert(rng.next());
        }
        std::printf("%4.0f%% @%llub  ",
                    100.0 * bloom::similarity(cur, prev, kSetSize),
                    static_cast<unsigned long long>(bits));
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    std::printf("Eq. 2 -- set size estimation from popcount "
                "(m=2048, k=4):\n");
    bloom::BloomFilter filter(
        bloom::BloomConfig{.numBits = 2048, .numHashes = 4,
                           .seed = 1});
    sim::Rng rng(3);
    for (int n : {8, 32, 128, 512}) {
        filter.clear();
        for (int i = 0; i < n; ++i)
            filter.insert(rng.next());
        std::printf("  inserted %4d keys -> %4llu bits set -> "
                    "estimate %7.1f\n",
                    n,
                    static_cast<unsigned long long>(
                        filter.popCount()),
                    bloom::estimateSetSize(filter));
    }

    std::printf("\nEq. 4 -- similarity of consecutive read/write "
                "sets, estimated per filter size:\n");
    for (double overlap : {0.0, 0.25, 0.5, 0.75, 1.0})
        demoOverlap(overlap);

    std::printf("\nSmall filters overestimate when crowded "
                "(collisions); the paper's sweep (Fig. 6)\npicks the "
                "size where estimation accuracy pays for its "
                "popcount/log cost.\n");
    return 0;
}
