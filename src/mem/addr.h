/**
 * @file
 * Address types and cache-line helpers.
 *
 * Conflict detection in LogTM-style HTMs happens at cache-line
 * granularity, so the whole simulator normalizes addresses to line
 * addresses early. Table 2 fixes the line size at 64 bytes.
 */

#ifndef BFGTS_MEM_ADDR_H
#define BFGTS_MEM_ADDR_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace mem {

/** A physical byte address. */
using Addr = std::uint64_t;

/** Cache line size in bytes (Table 2: 64-byte lines everywhere). */
constexpr std::uint64_t kLineBytes = 64;

/** log2 of the line size. */
constexpr int kLineShift = 6;
static_assert((1ULL << kLineShift) == kLineBytes);

/** The line-aligned address containing @p addr. */
constexpr Addr
lineAlign(Addr addr)
{
    return addr & ~(kLineBytes - 1);
}

/** The line number (address >> log2(line size)). */
constexpr Addr
lineNumber(Addr addr)
{
    return addr >> kLineShift;
}

/**
 * Lines common to two ascending, duplicate-free line lists (commit
 * sets), counting at most @p limit of them: a merge walk, so no
 * lookup structure is built. The exact intersection behind Table 1's
 * similarity, the prediction classification, the Eq. 3/4 ground truth
 * and BFGTS-NoOverhead's perfect signatures.
 */
inline std::size_t
commonLines(const std::vector<Addr> &a, const std::vector<Addr> &b,
            std::size_t limit = std::numeric_limits<std::size_t>::max())
{
    std::size_t count = 0;
    auto i = a.begin();
    auto j = b.begin();
    while (i != a.end() && j != b.end() && count < limit) {
        if (*i < *j) {
            ++i;
        } else if (*j < *i) {
            ++j;
        } else {
            ++count;
            ++i;
            ++j;
        }
    }
    return count;
}

} // namespace mem

#endif // BFGTS_MEM_ADDR_H
