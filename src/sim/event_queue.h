// Discrete-event simulation core: a virtual-time event queue.
//
// All timing-sensitive Slice experiments (directory scaling, SFS throughput,
// bulk bandwidth) run on this clock; wall-clock benchmarks (µproxy CPU cost)
// use google-benchmark instead and never touch the simulator. The queue is
// the only thing that orders simulated time: components that keep their own
// pending work (the network's in-flight packets) schedule one ordinary event
// per unit of it here rather than keeping a second ordered structure.
#ifndef SLICE_SIM_EVENT_QUEUE_H_
#define SLICE_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/common/status.h"

namespace slice {

// Simulated time in nanoseconds since experiment start.
using SimTime = uint64_t;

constexpr SimTime kNanosPerMicro = 1000;
constexpr SimTime kNanosPerMilli = 1000 * 1000;
constexpr SimTime kNanosPerSec = 1000ull * 1000 * 1000;

inline double ToMillis(SimTime t) { return static_cast<double>(t) / 1e6; }
inline double ToSeconds(SimTime t) { return static_cast<double>(t) / 1e9; }
inline SimTime FromMicros(double us) { return static_cast<SimTime>(us * 1e3); }
inline SimTime FromMillis(double ms) { return static_cast<SimTime>(ms * 1e6); }
inline SimTime FromSeconds(double s) { return static_cast<SimTime>(s * 1e9); }

class EventQueue {
 public:
  using Action = std::function<void()>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  SimTime now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }
  // Queued events that are not background events (see below).
  size_t foreground_pending() const { return foreground_pending_; }

  // Schedules `action` at absolute time `when` (clamped to now if earlier).
  // Events at equal times run in schedule order (FIFO), which keeps
  // experiments deterministic. Events scheduled while a background event is
  // executing inherit background status, so the whole causal chain of a
  // background timer (RPC sends, network hops, replies) stays background.
  // With libstdc++, a closure of at most 16 trivially-copyable bytes (e.g. a
  // `this` pointer plus an index) fits std::function's inline buffer, so
  // scheduling it does not allocate.
  void ScheduleAt(SimTime when, Action action);
  void ScheduleAfter(SimTime delay, Action action) { ScheduleAt(now_ + delay, std::move(action)); }

  // Background events model perpetual housekeeping (heartbeats, failure
  // sweeps). They run normally under RunOne/RunUntil, but RunUntilIdle does
  // not wait for them — otherwise a self-rearming timer would make it spin
  // forever.
  void ScheduleBackgroundAt(SimTime when, Action action);
  void ScheduleBackgroundAfter(SimTime delay, Action action) {
    ScheduleBackgroundAt(now_ + delay, std::move(action));
  }

  // Runs the earliest event; returns false if the queue is empty.
  bool RunOne();
  // Runs until no foreground events remain (background events interleaved
  // before the last foreground event still run, in time order).
  void RunUntilIdle();
  // Runs events with time <= deadline; leaves later events queued and
  // advances the clock to `deadline`.
  void RunUntil(SimTime deadline);

  // Total events executed (diagnostics / runaway detection in tests).
  uint64_t executed() const { return executed_; }

  // Optional dispatch hook so the profiler can attribute event-loop
  // self-time (the DES machinery itself) as a wall-clock scope enclosing
  // every component handler. Plain function pointer + context — the sim
  // layer cannot depend on obs, and the unset path is a single branch per
  // dispatch. `begin` is true just before the handler runs, false just
  // after. Installed/removed by the ensemble around profiled runs.
  using DispatchHook = void (*)(void* ctx, bool begin);
  void SetDispatchHook(DispatchHook hook, void* ctx) {
    dispatch_hook_ = hook;
    dispatch_hook_ctx_ = ctx;
  }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;
    bool background;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  void Push(SimTime when, Action action, bool background);

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  size_t foreground_pending_ = 0;
  bool in_background_ = false;
  DispatchHook dispatch_hook_ = nullptr;
  void* dispatch_hook_ctx_ = nullptr;
};

// A serially reusable resource (a CPU, a disk arm, a link direction): jobs
// queue FIFO and each occupies the resource for its service time.
class BusyResource {
 public:
  // Returns the completion time of a job arriving at `now` with the given
  // service time, and marks the resource busy until then.
  SimTime Acquire(SimTime now, SimTime service) {
    const SimTime start = busy_until_ > now ? busy_until_ : now;
    busy_until_ = start + service;
    busy_time_ += service;
    ++jobs_;
    return busy_until_;
  }

  SimTime busy_until() const { return busy_until_; }
  SimTime total_busy_time() const { return busy_time_; }
  uint64_t jobs() const { return jobs_; }
  double UtilizationUpTo(SimTime horizon) const {
    if (horizon == 0) {
      return 0.0;
    }
    const SimTime busy = busy_time_ < horizon ? busy_time_ : horizon;
    return static_cast<double>(busy) / static_cast<double>(horizon);
  }
  void Reset() {
    busy_until_ = 0;
    busy_time_ = 0;
    jobs_ = 0;
  }
  // Drops the queued backlog without touching the cumulative counters.
  // Models a crash: jobs waiting in the FIFO die with the node, but the
  // busy-time/job totals are history and stay monotonic for the metrics
  // plane.
  void ClearBacklog() { busy_until_ = 0; }

 private:
  SimTime busy_until_ = 0;
  SimTime busy_time_ = 0;
  uint64_t jobs_ = 0;
};

}  // namespace slice

#endif  // SLICE_SIM_EVENT_QUEUE_H_
