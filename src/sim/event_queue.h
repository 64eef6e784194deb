// Discrete-event simulation core: a virtual-time event queue.
//
// All timing-sensitive Slice experiments (directory scaling, SFS throughput,
// bulk bandwidth) run on this clock; wall-clock benchmarks (µproxy CPU cost)
// use google-benchmark instead and never touch the simulator. The queue is
// the only thing that orders simulated time: components that keep their own
// pending work (the network's in-flight packets) schedule one ordinary event
// per unit of it here rather than keeping a second ordered structure.
//
// Layout (DESIGN.md §7): a 4-ary min-heap of 24-byte {when, seq, slot} keys,
// and a slab of slots, threaded by a free list, that holds each queued
// event's action, owner and background bit. A sift moves keys only;
// an action is written once when scheduled and moved out once when it runs.
#ifndef SLICE_SIM_EVENT_QUEUE_H_
#define SLICE_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
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

  // Owner tokens. A component that schedules work on itself holds one Owner
  // and passes its id when scheduling. Once the Owner is destroyed, its
  // events still pop, advance the clock and count in executed(), but their
  // actions are skipped: a component may die with work queued and leave the
  // simulated timeline unchanged. Ids are never reused. The queue must
  // outlive every owner (~EventQueue checks).
  using OwnerId = uint32_t;
  static constexpr OwnerId kNoOwner = 0;  // always live

  class Owner {
   public:
    explicit Owner(EventQueue& queue);
    ~Owner();
    Owner(const Owner&) = delete;
    Owner& operator=(const Owner&) = delete;

    OwnerId id() const { return id_; }

   private:
    EventQueue& queue_;
    OwnerId id_;
  };

  EventQueue() = default;
  ~EventQueue();
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
  // scheduling it does not allocate. `owner` ties the event to an Owner.
  void ScheduleAt(SimTime when, Action action, OwnerId owner = kNoOwner);
  void ScheduleAfter(SimTime delay, Action action, OwnerId owner = kNoOwner) {
    ScheduleAt(now_ + delay, std::move(action), owner);
  }

  // Background events model perpetual housekeeping (heartbeats, failure
  // sweeps). They run normally under RunOne/RunUntil, but RunUntilIdle does
  // not wait for them — otherwise a self-rearming timer would make it spin
  // forever.
  void ScheduleBackgroundAt(SimTime when, Action action, OwnerId owner = kNoOwner);
  void ScheduleBackgroundAfter(SimTime delay, Action action, OwnerId owner = kNoOwner) {
    ScheduleBackgroundAt(now_ + delay, std::move(action), owner);
  }

  // Whether `owner` is still alive (kNoOwner always is). For components
  // that park work outside the queue (the network's deferred flights) and
  // check its owner themselves when it comes due.
  bool live(OwnerId owner) const { return owner_live_[owner]; }

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
  // A queued event's place in the heap. Keys are unique (seq counts every
  // schedule), so events pop in (when, seq) order whatever the heap's shape.
  struct Key {
    SimTime when;
    uint64_t seq;
    uint32_t slot;
  };
  static bool Earlier(const Key& a, const Key& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  // What a key stands for. While the slot is free, next_free links it to the
  // next free slot.
  struct Slot {
    Action action;
    OwnerId owner = kNoOwner;
    bool background = false;
    uint32_t next_free = 0;
  };
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  void Push(SimTime when, Action action, OwnerId owner, bool background);
  // Removes and returns the least key.
  Key PopMin();

  std::vector<Key> heap_;  // 4-ary: the children of i are 4i+1 .. 4i+4
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoSlot;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  size_t foreground_pending_ = 0;
  bool in_background_ = false;
  // Indexed by OwnerId; entry 0 is kNoOwner.
  std::vector<bool> owner_live_{true};
  size_t live_owners_ = 0;
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
