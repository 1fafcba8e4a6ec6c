/**
 * @file
 * The CPU Table: which transaction runs on which CPU (paper Section
 * 4.1).
 *
 * Every begin-time scheduler reads this one fact. PTS and BFGTS-SW
 * scan it in software, and BFGTS-HW's predictor runs Example 1 over a
 * hardware copy that snoops begin/commit/abort broadcasts. Those
 * copies agree by construction, so the model keeps one table. The
 * runner is its only writer: it marks a transaction running just
 * before the manager's onTxStart() and clears it just before
 * onTxAbort()/onTxCommit().
 */

#ifndef BFGTS_HTM_CPU_TABLE_H
#define BFGTS_HTM_CPU_TABLE_H

#include <bit>
#include <cstdint>
#include <vector>

#include "htm/tx_id.h"
#include "sim/logging.h"
#include "sim/types.h"

namespace htm {

/** The running dTxID of every CPU, plus a bit per running CPU for
 *  the ascending walk over the running ones (findRunning). */
class CpuTable
{
  public:
    explicit CpuTable(int num_cpus)
    {
        sim_assert(num_cpus >= 1);
        running_.assign(static_cast<std::size_t>(num_cpus), kNoTx);
        mask_.assign((running_.size() + 63) / 64, 0);
    }

    int numCpus() const { return static_cast<int>(running_.size()); }

    /** dTxID running on @p cpu, or kNoTx. */
    DTxId
    runningOn(sim::CpuId cpu) const
    {
        return running_[static_cast<std::size_t>(cpu)];
    }

    /**
     * Walk the running CPUs in ascending order, calling
     * @p stop(cpu, dtx) on each until it returns true. The walk takes
     * a bit per CPU, so it costs the number of running CPUs, not
     * numCpus(), and keeps the current mask word in a register while
     * @p stop runs.
     * @return The CPU the walk stopped at, or numCpus().
     */
    template <typename Stop>
    sim::CpuId
    findRunning(Stop &&stop) const
    {
        for (std::size_t word = 0; word < mask_.size(); ++word) {
            for (std::uint64_t bits = mask_[word]; bits != 0;
                 bits &= bits - 1) {
                const auto cpu = static_cast<sim::CpuId>(
                    word * 64
                    + static_cast<unsigned>(std::countr_zero(bits)));
                if (stop(cpu, running_[static_cast<std::size_t>(cpu)]))
                    return cpu;
            }
        }
        return numCpus();
    }

    /** @p dtx starts running on the idle @p cpu. */
    void
    start(sim::CpuId cpu, DTxId dtx)
    {
        const auto index = static_cast<std::size_t>(cpu);
        sim_assert(running_[index] == kNoTx && dtx != kNoTx,
                   "cpu %d already runs dTx %d", cpu, running_[index]);
        running_[index] = dtx;
        mask_[index / 64] |= 1ULL << (index % 64);
    }

    /** @p dtx, running on @p cpu, committed or aborted. A transaction
     *  never leaves its CPU, so the entry still names it. */
    void
    end(sim::CpuId cpu, DTxId dtx)
    {
        const auto index = static_cast<std::size_t>(cpu);
        sim_assert(running_[index] == dtx && dtx != kNoTx,
                   "dTx %d ends on cpu %d, which runs dTx %d", dtx, cpu,
                   running_[index]);
        running_[index] = kNoTx;
        mask_[index / 64] &= ~(1ULL << (index % 64));
    }

  private:
    std::vector<DTxId> running_;
    /** Bit per CPU: set while running_ names a dTxID there. */
    std::vector<std::uint64_t> mask_;
};

} // namespace htm

#endif // BFGTS_HTM_CPU_TABLE_H
