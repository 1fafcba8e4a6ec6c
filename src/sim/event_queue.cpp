#include "event_queue.h"

#include <utility>

#include "sim/audit.h"
#include "sim/logging.h"
#include "sim/profiler.h"

namespace sim {

// Both sifts hold the moving node aside and move each parent or
// child across the hole once, rather than swapping at every level.
// (when, seq) keys are unique, so the pop order follows from the keys
// alone, whatever the heap's layout.

void
EventQueue::heapPush(const Event &event)
{
    std::size_t hole = heap_.size();
    heap_.push_back(event);
    while (hole > 0) {
        const std::size_t parent = (hole - 1) / 2;
        if (!earlier(event, heap_[parent]))
            break;
        heap_[hole] = heap_[parent];
        hole = parent;
    }
    heap_[hole] = event;
}

void
EventQueue::heapPop()
{
    const Event moving = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0)
        return;
    std::size_t hole = 0;
    while (true) {
        std::size_t child = 2 * hole + 1;
        if (child >= n)
            break;
        if (child + 1 < n && earlier(heap_[child + 1], heap_[child]))
            ++child;
        if (!earlier(heap_[child], moving))
            break;
        heap_[hole] = heap_[child];
        hole = child;
    }
    heap_[hole] = moving;
}

void
EventQueue::recordBytes()
{
    std::size_t bytes =
        (heap_.capacity() + lane_.capacity()) * sizeof(Event);
    for (const KindState &kind : kinds_)
        bytes += kind.pendingSeq.capacity() * sizeof(std::uint64_t);
    profiler_->recordBytes(Profiler::kStructEventQueue, bytes);
}

EventKind
EventQueue::addKind(Handler handler)
{
    kinds_.push_back(KindState{std::move(handler), {}});
    return static_cast<EventKind>(kinds_.size() - 1);
}

void
EventQueue::markPending(const Event &event)
{
    sim_assert(event.kind < kinds_.size());
    std::vector<std::uint64_t> &seqs = kinds_[event.kind].pendingSeq;
    if (event.target >= seqs.size()) {
        seqs.resize(std::size_t{event.target} + 1, kNotPending);
        if (profiler_ != nullptr)
            recordBytes();
    }
    sim_assert(seqs[event.target] == kNotPending,
               "kind %u already has an event pending for target %u",
               event.kind, event.target);
    seqs[event.target] = event.seq;
    ++live_;
}

void
EventQueue::setLane(Cycles delay)
{
    sim_assert(laneCount_ == 0);
    laneDelay_ = delay;
}

void
EventQueue::growLane()
{
    std::vector<Event> grown(lane_.empty() ? 16 : 2 * lane_.size());
    for (std::size_t i = 0; i < laneCount_; ++i)
        grown[i] = lane_[(laneHead_ + i) & (lane_.size() - 1)];
    lane_ = std::move(grown);
    laneHead_ = 0;
    if (profiler_ != nullptr)
        recordBytes();
}

void
EventQueue::lanePop()
{
    laneHead_ = (laneHead_ + 1) & (lane_.size() - 1);
    --laneCount_;
}

void
EventQueue::scheduleLane(EventKind kind, std::uint32_t target)
{
    // A few stores: cheaper than bracketing them in a profiler phase,
    // so the caller's phase keeps them.
    if (laneCount_ == lane_.size())
        growLane();
    // curTick never decreases and the delay is fixed, so the tail
    // node is the latest in (when, seq): the ring stays sorted.
    const Event event{curTick_ + laneDelay_, nextSeq_++, kind, target};
    markPending(event);
    lane_[(laneHead_ + laneCount_) & (lane_.size() - 1)] = event;
    ++laneCount_;
}

void
EventQueue::schedule(Tick when, EventKind kind, std::uint32_t target)
{
    if (audit_ != nullptr && audit_->shouldCheck()) {
        // Under audit the past-scheduling invariant reports through
        // the engine (so the mutation selftest can observe it in
        // Collect mode) and clamps to now, keeping time monotonic.
        if (!audit_->check(when >= curTick_, "event.monotonic",
                           "event scheduled in the past", curTick_)) {
            when = curTick_;
        }
    } else {
        sim_assert(when >= curTick_);
    }
    const Event event{when, nextSeq_++, kind, target};
    markPending(event);
    // A short sift-up: cheaper than the two clock reads of a profiler
    // phase around it, so the caller's phase keeps it, as it keeps a
    // lane push. The byte gauge moves only when the heap reallocates.
    const bool grows = heap_.size() == heap_.capacity();
    heapPush(event);
    if (grows && profiler_ != nullptr)
        recordBytes();
}

bool
EventQueue::deschedule(EventKind kind, std::uint32_t target)
{
    if (!pending(kind, target))
        return false;
    // O(1): the node stays queued, and live() rejects it when it
    // surfaces because its seq is no longer the pending one.
    kinds_[kind].pendingSeq[target] = kNotPending;
    --live_;
    return true;
}

void
EventQueue::auditOrder(Tick when, std::uint64_t seq)
{
    // Deterministic order: executed events must be strictly
    // increasing in (tick, insertion seq); equal-tick events fire in
    // the order they were scheduled, whichever of heap or lane holds
    // them.
    const bool ordered =
        !anyExecuted_ || when > lastExecWhen_
        || (when == lastExecWhen_ && seq > lastExecSeq_);
    audit_->check(ordered, "event.tiebreak",
                  "event executed out of (tick, seq) order", when);
    lastExecWhen_ = when;
    lastExecSeq_ = seq;
    anyExecuted_ = true;
}

std::uint64_t
EventQueue::run(Tick max_tick, std::uint64_t max_events)
{
    std::uint64_t executed = 0;
    while (true) {
        // Descheduled nodes: not run, counted, audited or timed.
        while (!heap_.empty() && !live(heap_.front()))
            heapPop();
        while (laneCount_ > 0 && !live(lane_[laneHead_]))
            lanePop();
        const bool from_lane =
            laneCount_ > 0
            && (heap_.empty()
                || earlier(lane_[laneHead_], heap_.front()));
        if (!from_lane && heap_.empty())
            break;
        const Event event = from_lane ? lane_[laneHead_] : heap_.front();
        if (event.when > max_tick)
            break;
        if (audit_ != nullptr && audit_->shouldCheck())
            auditOrder(event.when, event.seq);
        curTick_ = event.when;
        if (from_lane)
            lanePop();
        else
            heapPop();
        // Cleared before the handler runs, which may schedule the
        // same (kind, target) again.
        KindState &kind = kinds_[event.kind];
        kind.pendingSeq[event.target] = kNotPending;
        --live_;
        if (profiler_ != nullptr)
            profiler_->onEventDispatch(curTick_);
        kind.handler(event.target);
        if (++executed > max_events) {
            sim_panic("event queue executed more than %llu events; "
                      "likely a livelocked simulation",
                      static_cast<unsigned long long>(max_events));
        }
    }
    return executed;
}

} // namespace sim
