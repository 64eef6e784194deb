#include "src/sim/event_queue.h"

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
  heap_.push(Event{when, next_seq_++, owner, background, std::move(action)});
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
  // priority_queue::top returns const&; move out via const_cast is the
  // standard idiom but UB-adjacent, so copy the small fields and move the
  // action through a local pop-then-run.
  Event ev = std::move(const_cast<Event&>(heap_.top()));
  heap_.pop();
  SLICE_CHECK(ev.when >= now_);
  now_ = ev.when;
  ++executed_;
  if (!ev.background) {
    SLICE_CHECK(foreground_pending_ > 0);
    --foreground_pending_;
  }
  const bool prev_background = in_background_;
  in_background_ = ev.background;
  if (dispatch_hook_ != nullptr) {
    dispatch_hook_(dispatch_hook_ctx_, /*begin=*/true);
  }
  // A dead owner's event has already moved the clock and the counters, so
  // the timeline is the same as if its action had run and done nothing.
  if (owner_live_[ev.owner]) {
    ev.action();
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
  while (!heap_.empty() && heap_.top().when <= deadline) {
    RunOne();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace slice
