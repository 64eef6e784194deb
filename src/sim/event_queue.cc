#include "src/sim/event_queue.h"

namespace slice {

void EventQueue::Push(SimTime when, Action action, bool background) {
  if (when < now_) {
    when = now_;
  }
  if (!background) {
    ++foreground_pending_;
  }
  heap_.push(Event{when, next_seq_++, background, std::move(action)});
}

void EventQueue::ScheduleAt(SimTime when, Action action) {
  Push(when, std::move(action), in_background_);
}

void EventQueue::ScheduleBackgroundAt(SimTime when, Action action) {
  Push(when, std::move(action), true);
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
  ev.action();
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
