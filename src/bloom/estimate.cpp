#include "estimate.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/logging.h"

namespace bloom {

double
estimateSetSize(std::uint64_t bits_set, std::uint64_t num_bits,
                int num_hashes)
{
    sim_assert(num_bits > 1);
    sim_assert(num_hashes >= 1);
    sim_assert(bits_set <= num_bits);
    if (bits_set == 0)
        return 0.0;
    const double m = static_cast<double>(num_bits);
    const double t = static_cast<double>(bits_set);
    if (bits_set == num_bits) {
        // Saturated: ln(0) diverges. Any set at least as large as the
        // saturation knee maps here; report m as the ceiling estimate.
        return m;
    }
    const double k = static_cast<double>(num_hashes);
    return std::log(1.0 - t / m) / (k * std::log(1.0 - 1.0 / m));
}

double
estimateSetSize(const BloomFilter &filter)
{
    return estimateSetSize(filter.popCount(), filter.numBits(),
                           filter.numHashes());
}

double
estimateIntersectionSize(const BloomFilter &a, const BloomFilter &b)
{
    sim_assert(a.compatibleWith(b));
    // Eq. 3 needs only the three popcounts t_A, t_B and t_{A|B}; one
    // pass over the words counts all three without building the union.
    const std::vector<std::uint64_t> &wa = a.words();
    const std::vector<std::uint64_t> &wb = b.words();
    std::uint64_t pop_a = 0, pop_b = 0, pop_union = 0;
    for (std::size_t i = 0; i < wa.size(); ++i) {
        pop_a += static_cast<std::uint64_t>(std::popcount(wa[i]));
        pop_b += static_cast<std::uint64_t>(std::popcount(wb[i]));
        pop_union +=
            static_cast<std::uint64_t>(std::popcount(wa[i] | wb[i]));
    }
    const double est =
        estimateSetSize(pop_a, a.numBits(), a.numHashes())
        + estimateSetSize(pop_b, b.numBits(), b.numHashes())
        - estimateSetSize(pop_union, a.numBits(), a.numHashes());
    return std::max(est, 0.0);
}

double
similarity(const BloomFilter &new_filter, const BloomFilter &old_filter,
           double avg_set_size)
{
    const double inter = estimateIntersectionSize(new_filter,
                                                  old_filter);
    return exactSimilarity(inter, avg_set_size);
}

double
exactSimilarity(double intersection_size, double avg_set_size)
{
    if (avg_set_size <= 0.0)
        return 0.0;
    return std::clamp(intersection_size / avg_set_size, 0.0, 1.0);
}

} // namespace bloom
