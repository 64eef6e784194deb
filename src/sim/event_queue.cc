#include "src/sim/event_queue.h"

#include <algorithm>

namespace slice {

EventQueue::Owner::Owner(EventQueue& queue)
    : queue_(queue), id_(static_cast<OwnerId>(queue.owner_live_.size())) {
  queue_.owner_live_.push_back(true);
  ++queue_.live_owners_;
}

EventQueue::Owner::~Owner() {
  queue_.owner_live_[id_] = false;
  --queue_.live_owners_;
}

EventQueue::~EventQueue() { SLICE_CHECK(live_owners_ == 0); }

void EventQueue::Push(SimTime when, Action action, OwnerId owner, bool background) {
  if (when < now_) {
    when = now_;
  }
  if (!background) {
    ++foreground_pending_;
  }
  uint32_t slot = free_head_;
  if (slot == kNoSlot) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(Slot{std::move(action), owner, background});
  } else {
    Slot& s = slots_[slot];
    free_head_ = s.next_free;
    s.action = std::move(action);
    s.owner = owner;
    s.background = background;
  }
  const Key key{when, next_seq_++, slot};
  size_t i = heap_.size();
  heap_.emplace_back();
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (!Earlier(key, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

EventQueue::Key EventQueue::PopMin() {
  const Key min = heap_[0];
  const Key last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) {
    return min;
  }
  // Sift the hole at the root down, then drop the old last key into it.
  size_t i = 0;
  for (size_t first = 1; first < n; first = 4 * i + 1) {
    size_t best = first;
    for (size_t c = first + 1; c < std::min(first + 4, n); ++c) {
      if (Earlier(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Earlier(heap_[best], last)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
  return min;
}

void EventQueue::ScheduleAt(SimTime when, Action action, OwnerId owner) {
  Push(when, std::move(action), owner, in_background_);
}

void EventQueue::ScheduleBackgroundAt(SimTime when, Action action, OwnerId owner) {
  Push(when, std::move(action), owner, true);
}

bool EventQueue::RunOne() {
  if (heap_.empty()) {
    return false;
  }
  const Key key = PopMin();
  // Take everything out of the slot and free it before the action runs: the
  // action may schedule, and scheduling can grow the slab (moving every
  // slot) or reuse this one.
  Slot& slot = slots_[key.slot];
  const OwnerId owner = slot.owner;
  const bool background = slot.background;
  Action action = std::move(slot.action);
  slot.next_free = free_head_;
  free_head_ = key.slot;
  SLICE_CHECK(key.when >= now_);
  now_ = key.when;
  ++executed_;
  if (!background) {
    SLICE_CHECK(foreground_pending_ > 0);
    --foreground_pending_;
  }
  const bool prev_background = in_background_;
  in_background_ = background;
  if (dispatch_hook_ != nullptr) {
    dispatch_hook_(dispatch_hook_ctx_, /*begin=*/true);
  }
  // A dead owner's event has already moved the clock and the counters, so
  // the timeline is the same as if its action had run and done nothing.
  if (owner_live_[owner]) {
    action();
  }
  if (dispatch_hook_ != nullptr) {
    dispatch_hook_(dispatch_hook_ctx_, /*begin=*/false);
  }
  in_background_ = prev_background;
  return true;
}

void EventQueue::RunUntilIdle() {
  while (foreground_pending_ > 0 && RunOne()) {
  }
}

void EventQueue::RunUntil(SimTime deadline) {
  while (!heap_.empty() && heap_[0].when <= deadline) {
    RunOne();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace slice
