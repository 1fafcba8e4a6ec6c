/**
 * @file
 * Per-transaction runtime state tracked by the HTM substrate.
 *
 * The baseline system is LogTM-like: eager version management (undo
 * log) and eager conflict detection on exact read/write sets held at
 * cache-line granularity ("perfect signature used for conflict
 * detection", Table 2). Contention managers never see these sets
 * directly; at commit they get the sorted, unique union and encode it
 * in their own signatures (Bloom filters, or the lines themselves).
 */

#ifndef BFGTS_HTM_TX_STATE_H
#define BFGTS_HTM_TX_STATE_H

#include <cstdint>
#include <vector>

#include "htm/tx_id.h"
#include "mem/addr.h"
#include "sim/types.h"

namespace htm {

/** State of one in-flight transaction. */
struct TxState {
    /** Dynamic transaction ID. */
    DTxId dTxId = kNoTx;

    /** Executing software thread. */
    sim::ThreadId thread = sim::kNoThread;

    /** CPU the thread is running on. */
    sim::CpuId cpu = sim::kNoCpu;

    /**
     * Age for conflict resolution. Assigned at the *first* begin of a
     * transactional section and preserved across aborts/retries, as
     * in LogTM, so a repeatedly aborted transaction grows relatively
     * older and eventually wins every conflict (no starvation).
     */
    std::uint64_t timestamp = 0;

    /**
     * Exact read set (line numbers) in first-read order. The conflict
     * detector appends each line once per attempt; its registry, not
     * this vector, answers whether the tx already reads a line.
     */
    std::vector<mem::Addr> readSet;

    /** Exact write set (line numbers) in first-write order. */
    std::vector<mem::Addr> writeSet;

    /** Accesses recorded in this attempt: also the index of the
     *  descriptor's next access. */
    int accessesDone = 0;

    /** True between begin and commit/abort. */
    bool active = false;

    /**
     * Reset per-attempt state (sets, accesses), keeping identity/age. The
     * sets keep their capacity, so a retry or the next transaction
     * reuses it.
     */
    void
    resetAttempt()
    {
        readSet.clear();
        writeSet.clear();
        accessesDone = 0;
        active = false;
    }
};

} // namespace htm

#endif // BFGTS_HTM_TX_STATE_H
