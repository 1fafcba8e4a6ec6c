/**
 * @file
 * Eager, exact conflict detection at cache-line granularity.
 *
 * The detector maintains, per line, the current transactional writer
 * and the set of transactional readers. An access by transaction T
 * conflicts when:
 *   - read:  another transaction has the line in its write set;
 *   - write: another transaction has the line in its read or write
 *            set.
 * Read-read sharing never conflicts.
 *
 * In Signature mode each thread has one slot of read and write
 * signatures, as LogTM-SE keeps one pair per hardware context: a
 * thread runs one attempt at a time, so its slot is reused by every
 * attempt it makes. An access hashes its line once and tests the
 * same bit positions against every remote slot.
 *
 * The detector only detects: it reports the holders of a conflicting
 * access and records an access that has none. What the requester
 * does about a conflict is the contention manager's verdict
 * (cm::ContentionManager::arbitrate(), whose default is LogTM's
 * policy).
 */

#ifndef BFGTS_HTM_CONFLICT_DETECTOR_H
#define BFGTS_HTM_CONFLICT_DETECTOR_H

#include <cstdint>
#include <vector>

#include "bloom/bloom_filter.h"
#include "htm/tx_state.h"
#include "mem/cache.h"
#include "sim/stats.h"

namespace sim {
class AuditEngine;
}

namespace htm {

/** How transactional read/write sets are checked for conflicts. */
enum class DetectionMode {
    /** Exact per-line ownership ("perfect signature", Table 2). */
    Exact,
    /**
     * LogTM-SE-style Bloom signatures: each transaction's read and
     * write sets are tracked as hardware Bloom filters and coherence
     * requests test against them. False positives cause *false
     * conflicts* -- transactions serialized or aborted over lines
     * they never actually shared (Sanchez et al., MICRO'07).
     */
    Signature,
};

/** Outcome of one requested access. */
struct AccessResult {
    /**
     * With no conflict: this store is the requester's first write of
     * the line in this attempt, so the undo log must save the old
     * value (the hardware filters later stores to a logged line).
     */
    bool firstWrite = false;
    /**
     * Conflicting transactions (holders); empty when the access was
     * recorded. The writer first, then readers in registration order
     * (exact mode), or remote transactions in dTxID order (signature
     * mode).
     */
    std::vector<TxState *> conflicts;
};

/** How the detector checks accesses. */
struct ConflictPolicy {
    /** Conflict check mechanism (exact, or Bloom signatures). */
    DetectionMode detectionMode = DetectionMode::Exact;

    /** Signature geometry when detectionMode == Signature. */
    bloom::BloomConfig signature{.numBits = 2048, .numHashes = 4};
};

/**
 * Global registry of transactional ownership.
 *
 * All methods are O(1)-ish per line touched; commit/abort removal is
 * proportional to the transaction's footprint. In steady state the
 * registry allocates nothing: its table, reader pool and signature
 * slots keep their capacity, and transactions' read/write sets keep
 * theirs.
 */
class ConflictDetector
{
  public:
    explicit ConflictDetector(const ConflictPolicy &policy = {})
        : policy_(policy), sigGeometry_(policy.signature),
          wordsPerSig_(sigGeometry_.words().size())
    {
    }

    /**
     * Attempt an access and record it if conflict-free.
     *
     * @param tx       Requesting transaction (must be active).
     * @param line     Line number (mem::lineNumber of the addr).
     * @param is_write Store or load.
     * @return The conflicting holders, if any. With none, the line
     *         was added to tx's read/write set and the registry;
     *         otherwise nothing was recorded.
     */
    AccessResult access(TxState &tx, mem::Addr line, bool is_write);

    /**
     * Remove @p tx from the registry (commit or abort). The caller
     * owns undoing speculative state; this only releases isolation.
     */
    void removeTx(TxState &tx);

    /** Number of lines with at least one transactional owner. */
    std::size_t ownedLines() const { return entries_; }

    const sim::Counter &conflictsDetected() const { return conflicts_; }

    /**
     * Conflicts reported by Bloom signatures that the exact sets
     * disprove (signature mode only): pure false-positive cost.
     */
    const sim::Counter &falseConflicts() const
    {
        return falseConflicts_;
    }

    /**
     * Invariant audit (sim/audit.h); reports which invariant broke.
     *  - htm.registry:  every read/write-set entry of every active tx
     *    is present in the line registry and vice versa, and every
     *    registry entry has a writer or a reader;
     *  - htm.isolation: eager conflict detection holds -- a written
     *    line has exactly one writer and no foreign readers;
     *  - bloom.membership (Signature mode): a transaction's hardware
     *    signatures contain its entire exact sets (Bloom filters
     *    never report false negatives) and live signature slots
     *    belong only to active transactions (freed on commit/abort).
     */
    void auditCheck(sim::AuditEngine &audit,
                    const std::vector<const TxState *> &active,
                    sim::Tick tick) const;

    /**
     * Test hook for the audit mutation selftest: force @p tx as the
     * registered writer of @p line without conflict checking,
     * corrupting isolation so htm.isolation / htm.registry must
     * fire. A null @p tx on a line nobody reads leaves an entry with
     * no owner at all. Never call outside tests.
     */
    void
    testForceWriter(mem::Addr line, TxState *tx)
    {
        claim(slotFor(line), line).writer = tx;
    }

  private:
    /** End of a reader list; index of no reader node. */
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /**
     * A line's transactional owners. An empty slot holds the line
     * kNoLine. Readers form a list of reader nodes in registration
     * order, which is the order findConflicts() reports them in.
     */
    struct Entry {
        mem::Addr line = mem::kNoLine;
        TxState *writer = nullptr;
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    /** One reader of one line, linked from its Entry or free list. */
    struct ReaderNode {
        TxState *tx = nullptr;
        std::uint32_t next = kNil;
    };

    /** A live signature slot: its owner's dTxID and thread. */
    struct LiveSig {
        htm::DTxId dTxId;
        std::size_t thread;
    };

    /**
     * Append to @p conflicts the holders the configured mechanism
     * reports for an access to the line whose registry entry (or
     * empty slot) is @p entry and whose signature bit positions
     * (Signature mode) are @p pos.
     */
    void findConflicts(const TxState &tx, bool is_write,
                       const Entry &entry,
                       const bloom::BloomFilter::Positions &pos,
                       std::vector<TxState *> &conflicts);

    /**
     * Signature slot of @p tx's thread, grown on first use. Asserts a
     * valid thread id whose slot is free or already @p tx's.
     */
    std::size_t sigSlot(const TxState &tx);
    /** Read-signature words of slot @p thread; its write words follow. */
    std::uint64_t *
    sigWords(std::size_t thread)
    {
        return sigArena_.data() + 2 * wordsPerSig_ * thread;
    }
    const std::uint64_t *
    sigWords(std::size_t thread) const
    {
        return sigArena_.data() + 2 * wordsPerSig_ * thread;
    }

    /**
     * Slot of @p line, or the empty slot where it would go; grows the
     * table first when one more entry would pass the load limit, so
     * the slot stays valid for claim().
     */
    std::size_t slotFor(mem::Addr line);
    /** Slot of @p line, or the empty slot where it would go. */
    std::size_t find(mem::Addr line) const;
    /** The entry at @p slot, made @p line's if the slot is empty. */
    Entry &claim(std::size_t slot, mem::Addr line);
    /** Empty @p slot, shifting later entries of its probe run back. */
    void erase(std::size_t slot);
    /** Double the table and re-place every entry. */
    void grow();

    /** True when @p tx is in @p entry's reader list. */
    bool isReader(const Entry &entry, const TxState *tx) const;
    /** Append @p tx to the end of @p entry's reader list. */
    void appendReader(Entry &entry, TxState *tx);
    /** Unlink @p tx from @p entry's reader list, keeping the order
     *  of the others; no-op when it is not a reader. */
    void unlinkReader(Entry &entry, const TxState *tx);

    ConflictPolicy policy_;
    /** Empty filter of the signature geometry: maps a line to its
     *  bit positions. */
    bloom::BloomFilter sigGeometry_;
    /** Words in one signature. */
    std::size_t wordsPerSig_;
    /**
     * Line registry: an open-addressed table keyed by line number
     * (linear probing, sim::SeededHash, backward-shift deletion). It
     * doubles when it would pass half full and never shrinks, so a
     * steady-state run stops allocating once it has grown.
     */
    static constexpr std::size_t kInitialSlots = 256;
    std::vector<Entry> slots_ = std::vector<Entry>(kInitialSlots);
    std::size_t entries_ = 0;
    /** Reader nodes of every entry; freed nodes chain from freeReader_. */
    std::vector<ReaderNode> readers_;
    std::uint32_t freeReader_ = kNil;
    /**
     * Signature slots, one per thread: slot t's read words, then its
     * write words, at sigWords(t). A free slot is all zero.
     */
    std::vector<std::uint64_t> sigArena_;
    /** Transaction holding each thread's slot, or null when free. */
    std::vector<TxState *> sigOwners_;
    /**
     * Live slots (those of transactions that recorded an access this
     * attempt), sorted by dTxID: the snoop sweep in findConflicts()
     * reports remote holders in dTxID order by construction. A slot
     * joins at its owner's first recorded access and leaves in
     * removeTx(), so the list changes once each per attempt.
     */
    std::vector<LiveSig> liveSigs_;
    sim::Counter conflicts_;
    sim::Counter falseConflicts_;
};

} // namespace htm

#endif // BFGTS_HTM_CONFLICT_DETECTOR_H
