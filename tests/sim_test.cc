// Unit tests for the discrete-event simulator: event ordering, resources,
// disk model, stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/disk.h"
#include "src/sim/event_queue.h"
#include "src/sim/stats.h"

namespace slice {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(2); });
  q.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueueTest, EqualTimesRunFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  q.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(10, [&] {
    q.ScheduleAfter(5, [&] { fired = 1; });
  });
  q.RunUntilIdle();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 15u);
}

TEST(EventQueueTest, PastSchedulingClampsToNow) {
  EventQueue q;
  SimTime fired_at = 0;
  q.ScheduleAt(100, [&] {
    q.ScheduleAt(50, [&] { fired_at = q.now(); });  // in the past
  });
  q.RunUntilIdle();
  EXPECT_EQ(fired_at, 100u);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  int count = 0;
  q.ScheduleAt(10, [&] { ++count; });
  q.ScheduleAt(20, [&] { ++count; });
  q.ScheduleAt(30, [&] { ++count; });
  q.RunUntil(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.now(), 20u);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueueTest, RunOneReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.RunOne());
}

TEST(EventQueueTest, BackgroundEventsDoNotHoldRunUntilIdle) {
  EventQueue q;
  int background_fired = 0;
  int foreground_fired = 0;
  // A self-rearming background timer (heartbeat-style) must not keep
  // RunUntilIdle spinning once all foreground work has drained.
  std::function<void()> tick = [&] {
    ++background_fired;
    if (background_fired < 1000) {
      q.ScheduleBackgroundAfter(10, tick);
    }
  };
  q.ScheduleBackgroundAfter(10, tick);
  q.ScheduleAt(25, [&] { ++foreground_fired; });
  q.RunUntilIdle();
  EXPECT_EQ(foreground_fired, 1);
  EXPECT_LT(background_fired, 5);  // stopped as soon as foreground drained
  EXPECT_GE(q.now(), 25u);
}

TEST(EventQueueTest, BackgroundChainsInheritBackgroundStatus) {
  // Events scheduled while a background event executes (RPC sends, network
  // hops, replies) stay background: the whole causal chain of a heartbeat
  // must never pin RunUntilIdle.
  EventQueue q;
  bool child_ran = false;
  q.ScheduleBackgroundAt(10, [&] {
    q.ScheduleAfter(5, [&] { child_ran = true; });  // inherits background
  });
  q.ScheduleAt(12, [] {});
  q.RunUntilIdle();
  EXPECT_EQ(q.foreground_pending(), 0u);
  EXPECT_FALSE(child_ran);  // background child at t=15 is past the last foreground event
  q.RunUntil(20);
  EXPECT_TRUE(child_ran);  // but RunUntil drives background chains normally
}

TEST(EventQueueTest, DeadOwnersEventDoesNotRunButStillCounts) {
  EventQueue q;
  bool ran = false;
  {
    EventQueue::Owner owner(q);
    q.ScheduleAt(40, [&] { ran = true; }, owner.id());
  }
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.foreground_pending(), 1u);
  EXPECT_TRUE(q.RunOne());
  EXPECT_FALSE(ran);
  EXPECT_EQ(q.executed(), 1u);
  EXPECT_EQ(q.now(), 40u);
  EXPECT_EQ(q.foreground_pending(), 0u);
}

// Schedules foreground events at 10 and 30 and a background tick every 4 ns,
// all under one owner that dies before the run when `kill_owner`; returns
// where RunUntilIdle stops and how many events it executed.
std::pair<SimTime, uint64_t> IdleHorizon(bool kill_owner) {
  EventQueue q;
  auto owner = std::make_unique<EventQueue::Owner>(q);
  const EventQueue::OwnerId id = owner->id();
  std::function<void()> tick = [&] { q.ScheduleBackgroundAfter(4, tick, id); };
  q.ScheduleBackgroundAfter(4, tick, id);
  q.ScheduleAt(10, [] {}, id);
  q.ScheduleAt(30, [] {}, id);
  if (kill_owner) {
    owner.reset();
  }
  q.RunUntilIdle();
  owner.reset();
  return {q.now(), q.executed()};
}

TEST(EventQueueTest, DeadOwnerLeavesRunUntilIdleEndingAtTheSameInstant) {
  const auto [live_end, live_executed] = IdleHorizon(/*kill_owner=*/false);
  const auto [dead_end, dead_executed] = IdleHorizon(/*kill_owner=*/true);
  EXPECT_EQ(live_end, 30u);
  EXPECT_EQ(dead_end, live_end);
  // The dead owner's background tick fires once (at 4) and re-arms nothing;
  // the live one keeps ticking up to the last foreground event.
  EXPECT_EQ(dead_executed, 3u);
  EXPECT_EQ(live_executed, 9u);
}

TEST(EventQueueTest, LaterOwnerNeverRevivesAnEarlierOwnersEvents) {
  EventQueue q;
  int early_runs = 0;
  int late_runs = 0;
  EventQueue::OwnerId early_id = EventQueue::kNoOwner;
  {
    EventQueue::Owner early(q);
    early_id = early.id();
    q.ScheduleAt(10, [&] { ++early_runs; }, early_id);
  }
  EventQueue::Owner late(q);
  EXPECT_NE(late.id(), early_id);
  EXPECT_FALSE(q.live(early_id));
  q.ScheduleAt(10, [&] { ++late_runs; }, late.id());
  q.RunUntilIdle();
  EXPECT_EQ(early_runs, 0);
  EXPECT_EQ(late_runs, 1);
  EXPECT_EQ(q.executed(), 2u);
}

TEST(EventQueueTest, QueueMustOutliveItsOwners) {
  EXPECT_DEATH(
      {
        auto* q = new EventQueue;
        new EventQueue::Owner(*q);  // never destroyed
        delete q;
      },
      "live_owners_");
}

// Model test: a seeded generator makes the same calls on an EventQueue and on a
// plain reference, a std::map keyed by (when, schedule order) holding each
// event's label, owner and background bit, and compares the two after every
// step and at every action. Actions schedule from inside (so the slab can
// grow and a freed slot be reused while an action runs) and read their own
// captures after scheduling.
class EventQueueModel {
 public:
  explicit EventQueueModel(uint64_t seed) : rng_(seed) {}

  // Runs the three phases; returns the first mismatch, or "".
  std::string Run() {
    // Mixed: every call at a shallow depth.
    for (int step = 0; step < 20000 && failure_.empty(); ++step) {
      RandomStep(/*child_mean=*/0.9, /*deep=*/false);
    }
    // Deep: actions spawn more than they consume until over 20k are pending.
    while (q_.pending() <= 20000 && failure_.empty()) {
      if (q_.empty()) {
        ScheduleFromOutside();
      }
      RandomStep(/*child_mean=*/1.6, /*deep=*/true);
    }
    // Drain.
    for (int step = 0; step < 2000 && failure_.empty(); ++step) {
      RandomStep(/*child_mean=*/0.5, /*deep=*/true);
    }
    Drain(q_.foreground_pending() > 0 ? kRunUntilIdle : kRunUntil);
    while (!q_.empty() && failure_.empty()) {
      Drain(kRunOne);
    }
    owners_.clear();
    return failure_;
  }

  uint64_t executed() const { return q_.executed(); }
  size_t max_pending() const { return max_pending_; }

 private:
  enum Kind { kAt, kAfter, kBackgroundAt, kBackgroundAfter };
  enum RunCall { kRunOne, kRunUntil, kRunUntilIdle };
  struct RefEvent {
    int label;
    EventQueue::OwnerId owner;
    bool background;
  };

  void RandomStep(double child_mean, bool deep) {
    child_mean_ = child_mean;
    const uint64_t r = rng_.NextBelow(100);
    if (r < 30) {
      ScheduleFromOutside();
    } else if (r < 33) {
      owners_.push_back(std::make_unique<EventQueue::Owner>(q_));
      Expect(owners_.back()->id() == ref_live_.size(), "owner ids count up");
      ref_live_.push_back(true);
    } else if (r < 35 && !owners_.empty()) {
      const size_t i = rng_.NextBelow(owners_.size());
      ref_live_[owners_[i]->id()] = false;
      owners_.erase(owners_.begin() + static_cast<ptrdiff_t>(i));
    } else if (r < 85) {
      Drain(kRunOne);
    } else if (r < 97 || deep) {
      Drain(kRunUntil);
    } else {
      Drain(kRunUntilIdle);
    }
  }

  // Past (clamped), equal and future times on a 10 ns grid, so ties abound.
  SimTime DrawWhen() {
    const uint64_t r = rng_.NextBelow(8);
    if (r == 0) {
      return ref_now_ - std::min<SimTime>(ref_now_, 10 * rng_.NextBelow(4));
    }
    if (r <= 2) {
      return ref_now_;
    }
    return ref_now_ + 10 * rng_.NextBelow(200);
  }
  EventQueue::OwnerId DrawOwner() {
    return static_cast<EventQueue::OwnerId>(
        rng_.NextBool(0.5) ? EventQueue::kNoOwner : rng_.NextBelow(ref_live_.size()));
  }

  void ScheduleFromOutside() {
    Schedule(static_cast<Kind>(rng_.NextBelow(4)), DrawWhen(), DrawOwner());
  }

  void Schedule(Kind kind, SimTime when, EventQueue::OwnerId owner) {
    const int label = next_label_++;
    auto action = [this, label] {
      OnRun(label);
      ran_.push_back(label);  // reads the capture after the action scheduled
    };
    const SimTime delay = when - ref_now_;
    bool background = ref_in_background_;
    switch (kind) {
      case kAt:
        q_.ScheduleAt(when, action, owner);
        break;
      case kAfter:
        q_.ScheduleAfter(delay, action, owner);
        break;
      case kBackgroundAt:
        q_.ScheduleBackgroundAt(when, action, owner);
        background = true;
        break;
      case kBackgroundAfter:
        q_.ScheduleBackgroundAfter(delay, action, owner);
        background = true;
        break;
    }
    ref_.emplace(std::pair{std::max(when, ref_now_), ref_order_++},
                 RefEvent{label, owner, background});
    if (!background) {
      ++ref_foreground_;
    }
    max_pending_ = std::max(max_pending_, ref_.size());
  }

  // Pops the reference's least event, as the queue is about to run it.
  RefEvent PopRef() {
    const auto it = ref_.begin();
    const RefEvent ev = it->second;
    ref_now_ = it->first.first;
    ref_.erase(it);
    ++ref_executed_;
    if (!ev.background) {
      --ref_foreground_;
    }
    return ev;
  }

  // Dead owners' events run no action, so the reference skips them up to the
  // live event whose action is running now.
  void OnRun(int label) {
    if (!failure_.empty()) {
      return;
    }
    for (;;) {
      if (ref_.empty()) {
        Fail("an action ran with the reference empty");
        return;
      }
      const RefEvent ev = PopRef();
      if (ref_live_[ev.owner]) {
        Expect(ev.label == label, "action order");
        ref_in_background_ = ev.background;
        break;
      }
    }
    Compare("in action");
    // Children: the whole part of child_mean_, plus one at its fraction.
    const int whole = static_cast<int>(child_mean_);
    const int children = whole + (rng_.NextBool(child_mean_ - whole) ? 1 : 0);
    for (int i = 0; i < children; ++i) {
      ScheduleFromOutside();
    }
  }

  // Makes one run call on both sides and compares.
  void Drain(RunCall call) {
    if (!failure_.empty()) {
      return;
    }
    const size_t ran_before = ran_.size();
    switch (call) {
      case kRunOne: {
        const bool queued = !ref_.empty();
        Expect(q_.RunOne() == queued, "RunOne's result");
        if (ran_.size() == ran_before && queued) {
          const RefEvent ev = PopRef();
          Expect(!ref_live_[ev.owner], "a live owner's action did not run");
        }
        Expect(ran_.size() <= ran_before + 1, "RunOne ran one event");
        break;
      }
      case kRunUntil: {
        const SimTime deadline = ref_now_ + 10 * rng_.NextBelow(60);
        q_.RunUntil(deadline);
        while (!ref_.empty() && ref_.begin()->first.first <= deadline) {
          Expect(!ref_live_[PopRef().owner], "RunUntil skipped a live action");
        }
        ref_now_ = std::max(ref_now_, deadline);
        break;
      }
      case kRunUntilIdle: {
        q_.RunUntilIdle();
        while (ref_foreground_ > 0) {
          Expect(!ref_live_[PopRef().owner], "RunUntilIdle skipped a live action");
        }
        break;
      }
    }
    ref_in_background_ = false;
    Compare("after a run call");
  }

  void Compare(const char* where) {
    Expect(q_.now() == ref_now_, "now()");
    Expect(q_.executed() == ref_executed_, "executed()");
    Expect(q_.pending() == ref_.size(), "pending()");
    Expect(q_.foreground_pending() == ref_foreground_, "foreground_pending()");
    Expect(q_.empty() == ref_.empty(), "empty()");
    if (!failure_.empty() && failure_.find(" (") == std::string::npos) {
      failure_ += std::string(" (") + where + ", after " + std::to_string(ref_executed_) +
                  " events)";
    }
  }

  void Expect(bool ok, const char* what) {
    if (!ok) {
      Fail(what);
    }
  }
  void Fail(const char* what) {
    if (failure_.empty()) {
      failure_ = std::string("mismatch: ") + what;
    }
  }

  EventQueue q_;
  std::vector<std::unique_ptr<EventQueue::Owner>> owners_;  // destroyed before q_
  Rng rng_;
  double child_mean_ = 0;
  int next_label_ = 0;
  std::vector<int> ran_;
  std::string failure_;
  size_t max_pending_ = 0;
  // The reference.
  std::map<std::pair<SimTime, uint64_t>, RefEvent> ref_;
  uint64_t ref_order_ = 0;
  SimTime ref_now_ = 0;
  uint64_t ref_executed_ = 0;
  size_t ref_foreground_ = 0;
  bool ref_in_background_ = false;
  std::vector<bool> ref_live_{true};  // indexed by OwnerId; kNoOwner is live
};

TEST(EventQueueTest, MatchesReferenceModel) {
  uint64_t executed = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    EventQueueModel model(seed);
    const std::string failure = model.Run();
    ASSERT_EQ(failure, "") << "seed " << seed;
    EXPECT_GT(model.max_pending(), 20000u) << "seed " << seed;
    executed += model.executed();
  }
  EXPECT_GE(executed, 200000u);
}

TEST(BusyResourceTest, IdleResourceStartsImmediately) {
  BusyResource r;
  EXPECT_EQ(r.Acquire(100, 50), 150u);
}

TEST(BusyResourceTest, BusyResourceQueues) {
  BusyResource r;
  EXPECT_EQ(r.Acquire(0, 100), 100u);
  EXPECT_EQ(r.Acquire(10, 100), 200u);  // waits for first job
  EXPECT_EQ(r.Acquire(500, 100), 600u);  // idle gap
}

TEST(BusyResourceTest, TracksUtilization) {
  BusyResource r;
  r.Acquire(0, 500);
  EXPECT_DOUBLE_EQ(r.UtilizationUpTo(1000), 0.5);
  EXPECT_EQ(r.jobs(), 1u);
}

TEST(SimDiskTest, RandomIoPaysPositioning) {
  SimDisk disk(DiskParams{.avg_position_ms = 5.0, .media_mb_per_s = 33.0});
  // 8KB random read: ~5ms position + 8192/33e6 s ≈ 5.25ms total.
  const SimTime done = disk.SubmitIo(0, /*pos=*/1 << 20, 8192);
  EXPECT_NEAR(ToMillis(done), 5.25, 0.05);
}

TEST(SimDiskTest, SequentialIoSkipsPositioning) {
  SimDisk disk(DiskParams{.avg_position_ms = 5.0, .media_mb_per_s = 33.0});
  const SimTime first = disk.SubmitIo(0, 0, 65536);
  // Next I/O continues where the previous one ended: near-zero positioning.
  const SimTime second = disk.SubmitIo(first, 65536, 65536);
  const double transfer_ms = 65536.0 / 33e6 * 1e3;
  EXPECT_NEAR(ToMillis(second - first), transfer_ms + 0.15, 0.05);
}

TEST(SimDiskTest, QueueingDelaysLaterIos) {
  SimDisk disk(DiskParams{});
  const SimTime first = disk.SubmitIo(0, 0, 8192);
  const SimTime second = disk.SubmitIo(0, 1 << 30, 8192);
  EXPECT_GT(second, first);
}

TEST(DiskArrayTest, IndependentArmsOverlap) {
  DiskArray array(4, DiskParams{}, /*channel_mb_per_s=*/1e9);
  // Four random I/Os to four different arms complete at (nearly) the same
  // time since arms work in parallel and the channel is effectively infinite.
  SimTime dones[4];
  for (size_t i = 0; i < 4; ++i) {
    dones[i] = array.SubmitIo(0, i, 1 << 20, 8192);
  }
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(dones[i], dones[0]);
  }
}

TEST(DiskArrayTest, SharedChannelSerializes) {
  // A very slow channel dominates: completions serialize even across arms.
  DiskArray array(4, DiskParams{.avg_position_ms = 0.0, .sequential_position_ms = 0.0},
                  /*channel_mb_per_s=*/1.0);
  const SimTime a = array.SubmitIo(0, 0, 0, 1 << 20);
  const SimTime b = array.SubmitIo(0, 1, 0, 1 << 20);
  EXPECT_GE(b, 2 * a - 1);
}

TEST(DiskArrayTest, OutOfRangeDiskAborts) {
  DiskArray array(2, DiskParams{}, 75.0);
  EXPECT_DEATH(array.SubmitIo(0, 5, 0, 512), "disk_index");
}

TEST(LatencyStatsTest, Aggregates) {
  LatencyStats stats;
  stats.Record(FromMillis(1));
  stats.Record(FromMillis(3));
  stats.Record(FromMillis(2));
  EXPECT_EQ(stats.count(), 3u);
  EXPECT_DOUBLE_EQ(stats.MeanMillis(), 2.0);
  EXPECT_EQ(stats.min(), FromMillis(1));
  EXPECT_EQ(stats.max(), FromMillis(3));
}

TEST(LatencyStatsTest, Percentiles) {
  LatencyStats stats;
  for (int i = 1; i <= 100; ++i) {
    stats.Record(static_cast<SimTime>(i) * 1000);
  }
  EXPECT_NEAR(static_cast<double>(stats.Percentile(50)), 50000.0, 2000.0);
  EXPECT_NEAR(static_cast<double>(stats.Percentile(99)), 99000.0, 2000.0);
}

TEST(LatencyStatsTest, EmptyIsZero) {
  LatencyStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.Percentile(50), 0u);
  EXPECT_DOUBLE_EQ(stats.MeanMillis(), 0.0);
}

TEST(LatencyStatsTest, HistogramBoundsPercentileError) {
  // The log-scale histogram guarantees relative error bounded by the
  // sub-bucket resolution across many decades of latency.
  LatencyStats stats;
  std::vector<SimTime> samples;
  uint64_t v = 130;  // ~1.3x growth per sample, spanning ns to seconds
  for (int i = 0; i < 60; ++i) {
    samples.push_back(v);
    stats.Record(v);
    v += v / 3 + 1;
  }
  std::sort(samples.begin(), samples.end());
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    const size_t rank =
        std::min(samples.size() - 1, static_cast<size_t>(p / 100.0 * samples.size()));
    const double exact = static_cast<double>(samples[rank]);
    const double approx = static_cast<double>(stats.Percentile(p));
    EXPECT_NEAR(approx, exact, exact * 0.35) << "p" << p;
  }
  // Exact aggregates are not approximated.
  EXPECT_EQ(stats.count(), samples.size());
  EXPECT_EQ(stats.min(), samples.front());
  EXPECT_EQ(stats.max(), samples.back());
}

TEST(LatencyStatsTest, MergeCombinesHistograms) {
  LatencyStats a;
  LatencyStats b;
  for (int i = 1; i <= 50; ++i) {
    a.Record(static_cast<SimTime>(i) * 1000);
    b.Record(static_cast<SimTime>(i + 50) * 1000);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_EQ(a.min(), 1000u);
  EXPECT_EQ(a.max(), 100000u);
  EXPECT_NEAR(static_cast<double>(a.Percentile(50)), 50000.0, 3000.0);
}

TEST(OpCountersTest, AddAndFormat) {
  OpCounters c;
  c.Add("read");
  c.Add("read", 2);
  c.Add("write");
  EXPECT_EQ(c.Get("read"), 3u);
  EXPECT_EQ(c.Get("write"), 1u);
  EXPECT_EQ(c.Get("missing"), 0u);
  EXPECT_EQ(c.ToString(), "read=3, write=1");
}

TEST(TimeConversionTest, RoundTrips) {
  EXPECT_EQ(FromMillis(1.5), 1500000u);
  EXPECT_EQ(FromMicros(2.0), 2000u);
  EXPECT_EQ(FromSeconds(1.0), kNanosPerSec);
  EXPECT_DOUBLE_EQ(ToMillis(FromMillis(7.25)), 7.25);
  EXPECT_DOUBLE_EQ(ToSeconds(FromSeconds(3.0)), 3.0);
}

}  // namespace
}  // namespace slice
