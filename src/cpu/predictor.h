/**
 * @file
 * The BFGTS hardware scheduling accelerator (paper Section 4.1).
 *
 * Every CPU has a predictor unit holding:
 *  - a CPU Table: the dTxID currently executing on every other CPU,
 *    kept coherent by snooping begin/commit/abort broadcasts on the
 *    interconnect (TLB-shootdown style);
 *  - control registers: confidence threshold, dTxID->sTxID shift,
 *    confidence-table base address, and the dTxID to serialize
 *    against (read back by software via TX_QUERY_PREDICTOR);
 *  - a small (2kB, 16-way) Tx confidence cache that caches the
 *    per-CPU confidence table and *refetches* lines killed by
 *    invalidation snoops, so repeated predictions stay fast even
 *    while other CPUs write the tables.
 *
 * On TX_BEGIN the predictor runs the paper's Example 1: walk the CPU
 * Table, look up confidence[sTxID][sTxID(remote)], and report the
 * first remote transaction whose confidence exceeds the threshold.
 *
 * The model keeps what is identical by construction only once, so
 * host cost does not grow with the CPU count on the write and
 * broadcast paths:
 *  - the snooped CPU Tables always agree with the runner's
 *    htm::CpuTable, so every unit walks that one table, and a
 *    broadcast only counts the update (the cycle model charges
 *    nothing for it);
 *  - a snoop refetch leaves the confidence cache's contents unchanged
 *    and matters only for the refetch count. Each table line counts
 *    its writes; a CPU records that count when it installs the line
 *    and, on eviction, is credited the writes that landed meanwhile.
 *
 * The predictor does not own the confidence *values* -- those live in
 * the BFGTS software runtime's tables -- it owns the cached *timing*
 * of reading them, so predict() takes a read functor.
 */

#ifndef BFGTS_CPU_PREDICTOR_H
#define BFGTS_CPU_PREDICTOR_H

#include <functional>
#include <vector>

#include "htm/cpu_table.h"
#include "htm/tx_id.h"
#include "mem/cache.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace cpu {

/** Timing and geometry of one predictor unit. */
struct PredictorConfig {
    /** Tx confidence cache (Table 2: 2kB, 16-way, 1 cycle). */
    mem::CacheConfig confCache{
        .sizeBytes = 2 * 1024, .associativity = 16, .hitLatency = 1};

    /** Cycles to trigger the predictor on TX_BEGIN. */
    sim::Cycles triggerCost = 1;

    /** Cycles to scan one CPU Table entry (register read + compare). */
    sim::Cycles perEntryCost = 1;

    /** Cycles to fill a confidence line on a cache miss (from L2). */
    sim::Cycles missLatency = 32;

    /** Bytes per confidence entry in the table layout. */
    std::uint64_t entryBytes = 4;
};

/** Result of a TX_BEGIN prediction. */
struct PredictResult {
    /** True if a likely conflict was found and the tx must serialize. */
    bool conflictPredicted = false;
    /** dTxID to serialize against (valid when conflictPredicted). */
    htm::DTxId waitOn = htm::kNoTx;
    /** Cycles the prediction took. */
    sim::Cycles latency = 0;
    /** Highest confidence value consulted (0..255 table units);
     *  the triggering confidence when conflictPredicted. */
    std::uint32_t maxConfidence = 0;
};

/** Reads confidence[row][col] from the runtime's table. */
using ConfidenceFn =
    std::function<std::uint32_t(htm::STxId row, htm::STxId col)>;

/**
 * The per-CPU predictor units. Each walks the one CPU Table the
 * snooped broadcasts would keep coherent (see the file comment).
 */
class PredictorSystem
{
  public:
    /**
     * @param table         The CPU Table every unit snoops (one
     *                      predictor per CPU). Must outlive this.
     * @param ids           dTxID encode/decode (provides the shift).
     * @param config        Timing/geometry.
     */
    PredictorSystem(const htm::CpuTable &table, const htm::TxIdSpace &ids,
                    const PredictorConfig &config = {});

    /** Broadcast: @p cpu started executing a transaction (already in
     *  the CPU Table). Counts one CPU Table update. */
    void broadcastBegin(sim::CpuId cpu);

    /** Broadcast: @p cpu committed or aborted its transaction. */
    void broadcastEnd(sim::CpuId cpu);

    /**
     * The software runtime wrote confidence[row][col]; every
     * predictor's confidence cache holding that line snoops the
     * invalidation and refetches it. O(1): the refetches are counted
     * lazily (see refetches()).
     */
    void onConfidenceWrite(htm::STxId row, htm::STxId col);

    /**
     * Run Example 1 on @p self's predictor.
     *
     * @param self       Predicting CPU.
     * @param stx        Static ID of the transaction about to begin.
     * @param read_conf  Confidence table reader.
     * @param threshold  Serialize when confidence > threshold.
     */
    PredictResult predict(sim::CpuId self, htm::STxId stx,
                          const ConfidenceFn &read_conf,
                          std::uint32_t threshold);

    /** Confidence cache of @p cpu (stats/tests). */
    const mem::Cache &confCache(sim::CpuId cpu) const;

    /**
     * Snoop refetches in @p cpu's confidence cache: one per
     * confidence write to a line while that line was resident. The
     * settled credit of evicted lines plus the pending credit of
     * resident ones.
     */
    std::uint64_t refetches(sim::CpuId cpu) const;

    /** Bytes of predictor state (every CPU's confidence-cache
     *  capacity and refetch stamps, the per-line write counts);
     *  host-profiler memory gauge. */
    std::uint64_t memoryFootprintBytes() const;

    const sim::Counter &predictions() const { return predictions_; }
    const sim::Counter &conflictsPredicted() const
    {
        return conflictsPredicted_;
    }

    /** Confidence-write snoops broadcast to the caches. */
    const sim::Counter &snoopInvalidations() const
    {
        return snoopInvalidations_;
    }

    /** CPU Table updates from begin/end broadcasts. */
    const sim::Counter &cpuTableUpdates() const
    {
        return cpuTableUpdates_;
    }

  private:
    struct Unit {
        mem::Cache cache;
        /** lineWrites_[line] when this unit installed the line. */
        std::vector<std::uint64_t> stamps;
        /** Refetches credited for lines since evicted. */
        std::uint64_t settledRefetches = 0;
    };

    /** Base address of @p cpu's copy of the confidence table. */
    static mem::Addr regionBase(sim::CpuId cpu);

    /** Byte offset of confidence[row][col] within a table copy. */
    mem::Addr entryOffset(htm::STxId row, htm::STxId col) const;

    /** Line of confidence[row][col] within a table copy. */
    std::size_t tableLine(htm::STxId row, htm::STxId col) const;

    /**
     * Look confidence[row][col] up in @p self's cache, settling the
     * refetch credit of any line the miss evicts.
     * @return true on hit.
     */
    bool lookup(sim::CpuId self, htm::STxId row, htm::STxId col);

    int numCpus() const { return table_.numCpus(); }

    const htm::CpuTable &table_;
    const htm::TxIdSpace &ids_;
    PredictorConfig config_;
    /** Confidence writes per table line. */
    std::vector<std::uint64_t> lineWrites_;
    std::vector<Unit> units_;
    sim::Counter predictions_;
    sim::Counter conflictsPredicted_;
    sim::Counter snoopInvalidations_;
    sim::Counter cpuTableUpdates_;
};

} // namespace cpu

#endif // BFGTS_CPU_PREDICTOR_H
