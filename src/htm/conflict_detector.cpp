#include "conflict_detector.h"

#include <algorithm>
#include <string>

#include "sim/audit.h"
#include "sim/det_hash.h"
#include "sim/logging.h"

namespace htm {

std::size_t
ConflictDetector::sigSlot(const TxState &tx)
{
    sim_assert(tx.thread >= 0, "signature access by a tx with no thread");
    const auto thread = static_cast<std::size_t>(tx.thread);
    if (thread >= sigOwners_.size()) {
        const std::size_t slots =
            std::max(thread + 1, 2 * sigOwners_.size());
        sigOwners_.resize(slots, nullptr);
        sigArena_.resize(2 * wordsPerSig_ * slots, 0);
    }
    sim_assert(sigOwners_[thread] == nullptr || sigOwners_[thread] == &tx,
               "thread %d's signature slot is held by another tx",
               tx.thread);
    return thread;
}

std::size_t
ConflictDetector::find(mem::Addr line) const
{
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = sim::SeededHash<mem::Addr>{}(line) & mask;
    while (slots_[slot].line != line && slots_[slot].line != mem::kNoLine)
        slot = (slot + 1) & mask;
    return slot;
}

std::size_t
ConflictDetector::slotFor(mem::Addr line)
{
    if (2 * (entries_ + 1) > slots_.size())
        grow();
    return find(line);
}

ConflictDetector::Entry &
ConflictDetector::claim(std::size_t slot, mem::Addr line)
{
    Entry &entry = slots_[slot];
    if (entry.line == mem::kNoLine) {
        entry.line = line;
        ++entries_;
    }
    return entry;
}

void
ConflictDetector::grow()
{
    std::vector<Entry> old(2 * slots_.size());
    old.swap(slots_);
    for (const Entry &entry : old) {
        if (entry.line != mem::kNoLine)
            slots_[find(entry.line)] = entry;
    }
}

void
ConflictDetector::erase(std::size_t slot)
{
    // Pull each later entry of the probe run back into the hole
    // unless the hole lies before its home slot, so every entry stays
    // reachable from its home without tombstones.
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = slot;
    for (std::size_t next = (hole + 1) & mask;
         slots_[next].line != mem::kNoLine; next = (next + 1) & mask) {
        const std::size_t home =
            sim::SeededHash<mem::Addr>{}(slots_[next].line) & mask;
        if (((next - home) & mask) >= ((next - hole) & mask)) {
            slots_[hole] = slots_[next];
            hole = next;
        }
    }
    slots_[hole] = Entry{};
    --entries_;
}

bool
ConflictDetector::isReader(const Entry &entry, const TxState *tx) const
{
    for (std::uint32_t node = entry.head; node != kNil;
         node = readers_[node].next) {
        if (readers_[node].tx == tx)
            return true;
    }
    return false;
}

void
ConflictDetector::appendReader(Entry &entry, TxState *tx)
{
    std::uint32_t node = freeReader_;
    if (node != kNil) {
        freeReader_ = readers_[node].next;
        readers_[node] = ReaderNode{tx, kNil};
    } else {
        node = static_cast<std::uint32_t>(readers_.size());
        sim_assert(node != kNil);
        readers_.push_back(ReaderNode{tx, kNil});
    }
    if (entry.tail == kNil)
        entry.head = node;
    else
        readers_[entry.tail].next = node;
    entry.tail = node;
}

void
ConflictDetector::unlinkReader(Entry &entry, const TxState *tx)
{
    std::uint32_t prev = kNil;
    for (std::uint32_t node = entry.head; node != kNil;
         prev = node, node = readers_[node].next) {
        if (readers_[node].tx != tx)
            continue;
        const std::uint32_t next = readers_[node].next;
        if (prev == kNil)
            entry.head = next;
        else
            readers_[prev].next = next;
        if (entry.tail == node)
            entry.tail = prev;
        readers_[node].next = freeReader_;
        freeReader_ = node;
        return;
    }
}

void
ConflictDetector::findConflicts(const TxState &tx, bool is_write,
                                const Entry &entry,
                                const bloom::BloomFilter::Positions &pos,
                                std::vector<TxState *> &conflicts)
{
    if (policy_.detectionMode == DetectionMode::Exact) {
        // Exact holders (anyone other than tx itself): the writer,
        // then on a write every reader in registration order. The
        // runner arbitrates, notifies and aborts holders in this
        // order, so it is part of every simulated result.
        if (entry.writer != nullptr && entry.writer != &tx)
            conflicts.push_back(entry.writer);
        if (!is_write)
            return;
        for (std::uint32_t node = entry.head; node != kNil;
             node = readers_[node].next) {
            TxState *reader = readers_[node].tx;
            // The writer may also appear in the reader list (it read
            // the line before upgrading); report each holder once.
            if (reader != &tx && reader != entry.writer)
                conflicts.push_back(reader);
        }
        return;
    }

    // Signature mode: coherence requests test every live remote
    // signature slot at the line's bit positions; hits beyond the
    // exact holders are false conflicts (signature aliasing).
    // liveSigs_ is kept sorted by dTxID, so this snoop sweep produces
    // holders in deterministic order by construction.
    const int k = policy_.signature.numHashes;
    const auto self = static_cast<std::size_t>(tx.thread);
    for (const LiveSig &live : liveSigs_) {
        if (live.thread == self)
            continue;
        const std::uint64_t *read = sigWords(live.thread);
        const bool hit =
            bloom::BloomFilter::hasPositions(read + wordsPerSig_, pos, k)
            || (is_write && bloom::BloomFilter::hasPositions(read, pos, k));
        if (!hit)
            continue;
        TxState *other = sigOwners_[live.thread];
        if (!other->active)
            continue;
        conflicts.push_back(other);
        const bool real = entry.writer == other
                       || (is_write && isReader(entry, other));
        if (!real)
            falseConflicts_.inc();
    }
}

AccessResult
ConflictDetector::access(TxState &tx, mem::Addr line, bool is_write)
{
    sim_assert(tx.active);

    AccessResult result;
    const std::size_t slot = slotFor(line);
    // Signature mode hashes the line once: the same positions serve
    // every remote snoop and the requester's own insert.
    const bool signature =
        policy_.detectionMode == DetectionMode::Signature;
    bloom::BloomFilter::Positions pos{};
    std::size_t thread = 0;
    if (signature) {
        thread = sigSlot(tx);
        sigGeometry_.positions(line, pos);
    }
    findConflicts(tx, is_write, slots_[slot], pos, result.conflicts);
    if (!result.conflicts.empty()) {
        conflicts_.inc();
        return result;
    }

    // Conflict-free: record ownership. The entry says whether tx
    // already holds the line, so each set gets a line once.
    Entry &entry = claim(slot, line);
    if (is_write) {
        result.firstWrite = entry.writer != &tx;
        if (result.firstWrite) {
            entry.writer = &tx;
            tx.writeSet.push_back(line);
        }
    } else if (!isReader(entry, &tx)) {
        appendReader(entry, &tx);
        tx.readSet.push_back(line);
    }
    if (signature) {
        if (sigOwners_[thread] == nullptr) {
            sigOwners_[thread] = &tx;
            const LiveSig live{tx.dTxId, thread};
            liveSigs_.insert(
                std::lower_bound(liveSigs_.begin(), liveSigs_.end(), live,
                                 [](const LiveSig &a, const LiveSig &b) {
                                     return a.dTxId < b.dTxId;
                                 }),
                live);
        }
        bloom::BloomFilter::setPositions(
            sigWords(thread) + (is_write ? wordsPerSig_ : 0), pos,
            policy_.signature.numHashes);
    }
    return result;
}

void
ConflictDetector::removeTx(TxState &tx)
{
    // A tx with no thread converts to a huge index: it owns no slot.
    const auto thread = static_cast<std::size_t>(tx.thread);
    if (thread < sigOwners_.size() && sigOwners_[thread] == &tx) {
        sigOwners_[thread] = nullptr;
        std::fill_n(sigWords(thread), 2 * wordsPerSig_, 0);
        liveSigs_.erase(std::find_if(
            liveSigs_.begin(), liveSigs_.end(),
            [thread](const LiveSig &live) { return live.thread == thread; }));
    }
    // Per-line releases commute, so the final registry is the same in
    // any visit order; reader lists stay in registration order.
    for (mem::Addr line : tx.readSet) {
        const std::size_t slot = find(line);
        Entry &entry = slots_[slot];
        if (entry.line == mem::kNoLine)
            continue;
        unlinkReader(entry, &tx);
        if (entry.head == kNil && entry.writer == nullptr)
            erase(slot);
    }
    for (mem::Addr line : tx.writeSet) {
        const std::size_t slot = find(line);
        Entry &entry = slots_[slot];
        if (entry.line == mem::kNoLine)
            continue;
        if (entry.writer == &tx)
            entry.writer = nullptr;
        if (entry.head == kNil && entry.writer == nullptr)
            erase(slot);
    }
}

void
ConflictDetector::auditCheck(sim::AuditEngine &audit,
                             const std::vector<const TxState *> &active,
                             sim::Tick tick) const
{
    std::size_t expected_reads = 0;
    std::size_t expected_writes = 0;
    for (const TxState *tx : active) {
        const auto dtx = static_cast<std::int64_t>(tx->dTxId);
        for (mem::Addr line : tx->readSet) {
            const Entry &entry = slots_[find(line)];
            audit.check(entry.line != mem::kNoLine && isReader(entry, tx),
                        "htm.registry",
                        [line] {
                            return "read-set line " + std::to_string(line)
                                 + " missing from line registry";
                        },
                        tick, tx->cpu, tx->thread, -1, dtx);
            ++expected_reads;
        }
        for (mem::Addr line : tx->writeSet) {
            audit.check(slots_[find(line)].writer == tx, "htm.registry",
                        [line] {
                            return "write-set line " + std::to_string(line)
                                 + " not registered to its writer";
                        },
                        tick, tx->cpu, tx->thread, -1, dtx);
            ++expected_writes;
        }
    }

    // Reverse direction plus eager isolation: a written line has one
    // writer and no foreign readers (two committed writers on one
    // line in overlapping windows are impossible by construction).
    // The walk visits slots in hash order; it only sums counts and
    // checks each line on its own, so a clean audit is the same in
    // any order (only which violation is reported first can differ).
    std::size_t actual_reads = 0;
    std::size_t actual_writes = 0;
    for (const Entry &entry : slots_) {
        if (entry.line == mem::kNoLine)
            continue;
        const mem::Addr line = entry.line;
        audit.check(entry.writer != nullptr || entry.head != kNil,
                    "htm.registry",
                    [line] {
                        return "line " + std::to_string(line)
                             + " registered with no writer and no reader";
                    },
                    tick);
        bool foreign_reader = false;
        for (std::uint32_t node = entry.head; node != kNil;
             node = readers_[node].next) {
            ++actual_reads;
            if (readers_[node].tx != entry.writer)
                foreign_reader = true;
        }
        if (entry.writer == nullptr)
            continue;
        ++actual_writes;
        audit.check(!foreign_reader, "htm.isolation",
                    [line] {
                        return "line " + std::to_string(line)
                             + " has a writer and a foreign reader";
                    },
                    tick, entry.writer->cpu, entry.writer->thread, -1,
                    static_cast<std::int64_t>(entry.writer->dTxId));
    }
    audit.check(actual_reads == expected_reads
                    && actual_writes == expected_writes,
                "htm.registry",
                "line registry holds entries no active tx owns", tick);

    if (policy_.detectionMode != DetectionMode::Signature)
        return;

    // Live slots belong only to active transactions (removeTx frees
    // them on commit/abort) and never report false negatives on the
    // owner's own exact sets.
    const int k = policy_.signature.numHashes;
    bloom::BloomFilter::Positions pos{};
    const auto holds = [&](const std::uint64_t *words, mem::Addr line) {
        sigGeometry_.positions(line, pos);
        return bloom::BloomFilter::hasPositions(words, pos, k);
    };
    for (const LiveSig &live : liveSigs_) {
        const TxState *owner = sigOwners_[live.thread];
        const bool is_active =
            std::find(active.begin(), active.end(), owner)
            != active.end();
        audit.check(is_active, "bloom.membership",
                    "signature survives a committed/aborted tx", tick,
                    owner->cpu, owner->thread, -1,
                    static_cast<std::int64_t>(owner->dTxId));
        if (!is_active)
            continue;
        const std::uint64_t *read = sigWords(live.thread);
        bool covered = true;
        for (mem::Addr line : owner->readSet)
            covered = covered && holds(read, line);
        for (mem::Addr line : owner->writeSet)
            covered = covered && holds(read + wordsPerSig_, line);
        audit.check(covered, "bloom.membership",
                    "signature misses a line of its own exact set "
                    "(false negative)",
                    tick, owner->cpu, owner->thread, -1,
                    static_cast<std::int64_t>(owner->dTxId));
    }
}

} // namespace htm
