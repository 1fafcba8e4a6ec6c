#include "event_queue.h"

#include <utility>

#include "sim/audit.h"
#include "sim/logging.h"
#include "sim/profiler.h"

namespace sim {

void
EventQueue::heapPush(const HeapNode &node)
{
    heap_.push_back(node);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!earlier(heap_[i], heap_[parent]))
            break;
        std::swap(heap_[i], heap_[parent]);
        i = parent;
    }
}

void
EventQueue::heapPop()
{
    heap_.front() = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    while (true) {
        const std::size_t left = 2 * i + 1;
        const std::size_t right = left + 1;
        std::size_t min = i;
        if (left < n && earlier(heap_[left], heap_[min]))
            min = left;
        if (right < n && earlier(heap_[right], heap_[min]))
            min = right;
        if (min == i)
            break;
        std::swap(heap_[i], heap_[min]);
        i = min;
    }
}

std::uint32_t
EventQueue::acquireSlot(EventFn &&fn)
{
    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot &s = slots_[slot];
    s.fn = std::move(fn);
    s.live = true;
    return slot;
}

void
EventQueue::releaseSlot(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    s.fn = nullptr;
    s.live = false;
    ++s.gen; // Invalidates every outstanding handle to this slot.
    freeSlots_.push_back(slot);
}

bool
EventQueue::liveId(EventId id) const
{
    const std::uint32_t slot = slotOf(id);
    if (slot >= slots_.size())
        return false;
    const Slot &s = slots_[slot];
    return s.live && s.gen == static_cast<std::uint32_t>(id >> 32);
}

std::size_t
EventQueue::structBytes() const
{
    return heap_.size() * sizeof(HeapNode)
         + slots_.capacity() * sizeof(Slot)
         + freeSlots_.capacity() * sizeof(std::uint32_t)
         + lane_.capacity() * sizeof(LaneNode);
}

void
EventQueue::setLane(Cycles delay, LaneFn fn)
{
    sim_assert(laneCount_ == 0);
    laneDelay_ = delay;
    laneFn_ = std::move(fn);
}

void
EventQueue::growLane()
{
    std::vector<LaneNode> grown(lane_.empty() ? 16 : 2 * lane_.size());
    for (std::size_t i = 0; i < laneCount_; ++i)
        grown[i] = lane_[(laneHead_ + i) & (lane_.size() - 1)];
    lane_ = std::move(grown);
    laneHead_ = 0;
    if (profiler_ != nullptr)
        profiler_->recordBytes(Profiler::kStructEventQueue,
                               structBytes());
}

void
EventQueue::scheduleLane(std::uint32_t token)
{
    sim_assert(laneFn_ != nullptr);
    // A few stores: cheaper than bracketing them in a profiler phase,
    // so the caller's phase keeps them.
    if (laneCount_ == lane_.size())
        growLane();
    // curTick never decreases and the delay is fixed, so the tail
    // node is the latest in (when, seq): the ring stays sorted.
    lane_[(laneHead_ + laneCount_) & (lane_.size() - 1)] =
        LaneNode{curTick_ + laneDelay_, nextSeq_++, token};
    ++laneCount_;
}

EventId
EventQueue::schedule(Tick when, EventFn fn)
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
    const std::uint32_t slot = acquireSlot(std::move(fn));
    const EventId id = encodeId(slot, slots_[slot].gen);
    if (profiler_ != nullptr) {
        ScopedPhase phase(profiler_, Profiler::kEventQueue);
        heapPush(HeapNode{when, nextSeq_++, id});
        profiler_->recordBytes(Profiler::kStructEventQueue,
                               structBytes());
    } else {
        heapPush(HeapNode{when, nextSeq_++, id});
    }
    ++live_;
    return id;
}

bool
EventQueue::deschedule(EventId id)
{
    if (id == kNoEvent || !liveId(id))
        return false;
    // O(1) lazy deletion: bump the slot generation so the heap node
    // is recognized as stale and skipped when it surfaces.
    releaseSlot(slotOf(id));
    if (live_ > 0)
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
        if (profiler_ != nullptr)
            profiler_->enter(Profiler::kEventQueue);
        // Cancelled: the slot generation moved past this node.
        while (!heap_.empty() && !liveId(heap_.front().id))
            heapPop();
        const bool from_lane =
            laneCount_ > 0
            && (heap_.empty()
                || earlier(lane_[laneHead_], heap_.front()));
        if (!from_lane && heap_.empty()) {
            if (profiler_ != nullptr)
                profiler_->exit();
            break;
        }
        const Tick when =
            from_lane ? lane_[laneHead_].when : heap_.front().when;
        if (when > max_tick) {
            if (profiler_ != nullptr)
                profiler_->exit();
            break;
        }
        if (audit_ != nullptr && audit_->shouldCheck()) {
            auditOrder(when, from_lane ? lane_[laneHead_].seq
                                       : heap_.front().seq);
        }
        curTick_ = when;
        if (from_lane) {
            const std::uint32_t token = lane_[laneHead_].token;
            laneHead_ = (laneHead_ + 1) & (lane_.size() - 1);
            --laneCount_;
            if (profiler_ != nullptr)
                profiler_->exit();
            laneFn_(token);
        } else {
            // Move the callback out and recycle the slot before
            // invoking: the callback may schedule new events (possibly
            // reusing this very slot under a fresh generation).
            const EventId id = heap_.front().id;
            EventFn fn = std::move(slots_[slotOf(id)].fn);
            releaseSlot(slotOf(id));
            heapPop();
            --live_;
            if (profiler_ != nullptr)
                profiler_->exit();
            fn();
        }
        if (profiler_ != nullptr)
            profiler_->onEventExecuted(curTick_);
        if (++executed > max_events) {
            sim_panic("event queue executed more than %llu events; "
                      "likely a livelocked simulation",
                      static_cast<unsigned long long>(max_events));
        }
    }
    return executed;
}

} // namespace sim
