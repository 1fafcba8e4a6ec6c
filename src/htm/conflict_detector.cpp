#include "conflict_detector.h"

#include <algorithm>
#include <string>

#include "sim/audit.h"
#include "sim/logging.h"

namespace htm {

ConflictDetector::TxSignatures &
ConflictDetector::signaturesFor(TxState &tx)
{
    auto it = std::lower_bound(
        signatures_.begin(), signatures_.end(), tx.dTxId,
        [](const std::unique_ptr<TxSignatures> &entry, DTxId id) {
            return entry->dTxId < id;
        });
    if (it == signatures_.end() || (*it)->dTxId != tx.dTxId) {
        it = signatures_.insert(
            it, std::make_unique<TxSignatures>(tx.dTxId, &tx,
                                               sigProto_));
    }
    return **it;
}

std::vector<TxState *>
ConflictDetector::findConflicts(TxState &tx, mem::Addr line,
                                bool is_write)
{
    std::vector<TxState *> conflicts;
    LineState &ls = lines_[line];

    // Exact holders (anyone other than tx itself).
    if (ls.writer != nullptr && ls.writer != &tx)
        conflicts.push_back(ls.writer);
    if (is_write) {
        for (TxState *reader : ls.readers) {
            // The writer may also appear in the reader list (it read
            // the line before upgrading); report each holder once.
            if (reader != &tx && reader != ls.writer)
                conflicts.push_back(reader);
        }
    }

    if (policy_.detectionMode == DetectionMode::Exact)
        return conflicts;

    // Signature mode: coherence requests test every active remote
    // transaction's Bloom signatures; hits beyond the exact holders
    // are false conflicts (signature aliasing). signatures_ is kept
    // sorted by dTxID, so this snoop sweep produces holders in
    // deterministic order by construction.
    std::vector<TxState *> signature_conflicts;
    for (const auto &sigs : signatures_) {
        TxState *other = sigs->owner;
        if (other == &tx || !other->active)
            continue;
        const bool hit =
            sigs->writeSig.mayContain(line)
            || (is_write && sigs->readSig.mayContain(line));
        if (!hit)
            continue;
        signature_conflicts.push_back(other);
        const bool real =
            std::find(conflicts.begin(), conflicts.end(), other)
            != conflicts.end();
        if (!real)
            falseConflicts_.inc();
    }
    return signature_conflicts;
}

AccessResult
ConflictDetector::access(TxState &tx, mem::Addr line, bool is_write,
                         int stall_retries, int prior_aborts)
{
    sim_assert(tx.active);

    AccessResult result;
    result.conflicts = findConflicts(tx, line, is_write);

    if (result.conflicts.empty()) {
        // Conflict-free: record ownership.
        LineState &ls = lines_[line];
        if (is_write) {
            ls.writer = &tx;
            tx.writeSet.insert(line);
        } else {
            if (!tx.readSet.count(line))
                ls.readers.push_back(&tx);
            tx.readSet.insert(line);
        }
        if (policy_.detectionMode == DetectionMode::Signature) {
            TxSignatures &sigs = signaturesFor(tx);
            if (is_write)
                sigs.writeSig.insert(line);
            else
                sigs.readSig.insert(line);
        }
        result.resolution = Resolution::Proceed;
        return result;
    }

    conflicts_.inc();
    nackRetryHist_.sample(static_cast<double>(stall_retries));

    // LogTM-flavored: the requester stalls and retries (the holder
    // NACKs it), hoping the holder finishes. When the stall budget
    // runs out -- a possible deadlock cycle -- the *requester*
    // aborts itself, as LogTM does. There is no age priority in the
    // common case, so repeated mutual aborts can starve long
    // transactions (the reactive-manager pathology); only a
    // transaction that has already been beaten selfAbortEscape times
    // gets age-based arbitration, which bounds starvation.
    if (stall_retries < policy_.maxStallRetries) {
        result.resolution = Resolution::StallRequester;
        return result;
    }
    if (prior_aborts >= policy_.selfAbortEscape) {
        const bool requester_oldest = std::all_of(
            result.conflicts.begin(), result.conflicts.end(),
            [&](const TxState *holder) {
                return tx.timestamp < holder->timestamp;
            });
        if (requester_oldest) {
            result.resolution = Resolution::AbortHolders;
            return result;
        }
    }
    result.resolution = Resolution::AbortRequester;
    return result;
}

void
ConflictDetector::removeTx(TxState &tx)
{
    auto sig_it = std::lower_bound(
        signatures_.begin(), signatures_.end(), tx.dTxId,
        [](const std::unique_ptr<TxSignatures> &entry, DTxId id) {
            return entry->dTxId < id;
        });
    if (sig_it != signatures_.end() && (*sig_it)->dTxId == tx.dTxId
        && (*sig_it)->owner == &tx) {
        signatures_.erase(sig_it);
    }
    // lint:allow(unordered-iteration): per-line erasures commute; the
    // final registry state is independent of visit order.
    for (mem::Addr line : tx.readSet) {
        auto it = lines_.find(line);
        if (it == lines_.end())
            continue;
        auto &readers = it->second.readers;
        readers.erase(std::remove(readers.begin(), readers.end(), &tx),
                      readers.end());
        if (readers.empty() && it->second.writer == nullptr)
            lines_.erase(it);
    }
    // lint:allow(unordered-iteration): same -- commuting erasures.
    for (mem::Addr line : tx.writeSet) {
        auto it = lines_.find(line);
        if (it == lines_.end())
            continue;
        if (it->second.writer == &tx)
            it->second.writer = nullptr;
        if (it->second.readers.empty() && it->second.writer == nullptr)
            lines_.erase(it);
    }
}

bool
ConflictDetector::consistentWith(
    const std::vector<TxState *> &active) const
{
    // Every read/write-set entry of every active tx must be present
    // in the registry, and vice versa.
    std::size_t expected_reads = 0;
    std::size_t expected_writes = 0;
    for (const TxState *tx : active) {
        // lint:allow(unordered-iteration): order-insensitive
        // membership checks in a test-only consistency sweep.
        for (mem::Addr line : tx->readSet) {
            auto it = lines_.find(line);
            if (it == lines_.end())
                return false;
            const auto &readers = it->second.readers;
            if (std::find(readers.begin(), readers.end(), tx)
                == readers.end()) {
                return false;
            }
            ++expected_reads;
        }
        // lint:allow(unordered-iteration): same -- test-only checks.
        for (mem::Addr line : tx->writeSet) {
            auto it = lines_.find(line);
            if (it == lines_.end() || it->second.writer != tx)
                return false;
            ++expected_writes;
        }
    }
    std::size_t actual_reads = 0;
    std::size_t actual_writes = 0;
    // lint:allow(unordered-iteration): commutative sums in a
    // test-only consistency check; no simulated behavior depends on
    // the order.
    for (const auto &[line, ls] : lines_) {
        actual_reads += ls.readers.size();
        actual_writes += ls.writer != nullptr ? 1 : 0;
    }
    return actual_reads == expected_reads
        && actual_writes == expected_writes;
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
        // lint:allow(unordered-iteration): order-insensitive
        // membership checks; the audit reads state, never mutates.
        for (mem::Addr line : tx->readSet) {
            auto it = lines_.find(line);
            const bool registered =
                it != lines_.end()
                && std::find(it->second.readers.begin(),
                             it->second.readers.end(), tx)
                       != it->second.readers.end();
            audit.check(registered, "htm.registry",
                        [line] {
                            return "read-set line " + std::to_string(line)
                                 + " missing from line registry";
                        },
                        tick, tx->cpu, tx->thread, -1, dtx);
            ++expected_reads;
        }
        // lint:allow(unordered-iteration): same -- membership checks.
        for (mem::Addr line : tx->writeSet) {
            auto it = lines_.find(line);
            audit.check(it != lines_.end() && it->second.writer == tx,
                        "htm.registry",
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
    std::size_t actual_reads = 0;
    std::size_t actual_writes = 0;
    // lint:allow(unordered-iteration): commutative sums and per-line
    // checks; no simulated behavior depends on the order.
    for (const auto &[line, ls] : lines_) {
        actual_reads += ls.readers.size();
        if (ls.writer == nullptr)
            continue;
        ++actual_writes;
        bool foreign_reader = false;
        for (const TxState *reader : ls.readers) {
            if (reader != ls.writer)
                foreign_reader = true;
        }
        audit.check(!foreign_reader, "htm.isolation",
                    [line] {
                        return "line " + std::to_string(line)
                             + " has a writer and a foreign reader";
                    },
                    tick, ls.writer->cpu, ls.writer->thread, -1,
                    static_cast<std::int64_t>(ls.writer->dTxId));
    }
    audit.check(actual_reads == expected_reads
                    && actual_writes == expected_writes,
                "htm.registry",
                "line registry holds entries no active tx owns", tick);

    if (policy_.detectionMode != DetectionMode::Signature)
        return;

    // Signatures exist only for active transactions (removeTx erases
    // them on commit/abort) and never report false negatives on the
    // owner's own exact sets.
    for (const auto &sigs : signatures_) {
        const TxState *owner = sigs->owner;
        const bool is_active =
            std::find(active.begin(), active.end(), owner)
            != active.end();
        audit.check(is_active, "bloom.membership",
                    "signature survives a committed/aborted tx", tick,
                    owner->cpu, owner->thread, -1,
                    static_cast<std::int64_t>(owner->dTxId));
        if (!is_active)
            continue;
        bool covered = true;
        // lint:allow(unordered-iteration): membership-only checks.
        for (mem::Addr line : owner->readSet)
            covered = covered && sigs->readSig.mayContain(line);
        // lint:allow(unordered-iteration): same.
        for (mem::Addr line : owner->writeSet)
            covered = covered && sigs->writeSig.mayContain(line);
        audit.check(covered, "bloom.membership",
                    "signature misses a line of its own exact set "
                    "(false negative)",
                    tick, owner->cpu, owner->thread, -1,
                    static_cast<std::int64_t>(owner->dTxId));
    }
}

} // namespace htm
