// Structured event log (third observability pillar, next to tracing and
// metrics).
//
// Spans (obs/trace.h) say *where time went*; instruments (obs/metrics.h) say
// *how much*; neither says *why* — which route class the µproxy picked, why a
// request was rejected, when the manager first flagged a node silent, which
// dir server adopted an orphaned site. The event log records those discrete
// decisions as small, trivially-copyable records in bounded per-host rings,
// so every Alert and every failed request has a causal trail that survives
// to the flight-recorder dump (obs/flight_recorder.h).
//
// Design constraints (shared with the other pillars):
//  * Near-zero cost when disabled: instrumentation sites go through the
//    null-safe LogEvent() helper (one branch), and a disabled or
//    severity-filtered EventLog::Record is an early-out that allocates
//    nothing. Payloads are fixed-capacity so recording never allocates
//    beyond the preallocated ring slots.
//  * Deterministic: events carry sim-time plus a global monotonic sequence
//    number minted in event-execution order; rings are keyed by host address
//    in an ordered map. Same seed => byte-identical dump.
//  * Stable schema: EventCode values are append-only and grouped by
//    category, so dumps from different builds stay comparable and
//    tools/slice_inspect.py can filter by code.
#ifndef SLICE_OBS_EVENTLOG_H_
#define SLICE_OBS_EVENTLOG_H_

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/ring.h"
#include "src/sim/event_queue.h"

namespace slice::obs {

enum class EventSev : uint8_t {
  kDebug = 0,  // per-request decisions (route class, attr writeback)
  kInfo = 1,   // state transitions in the normal course (epoch bump, rejoin)
  kWarn = 2,   // suspicious but recoverable (retransmit, drop, hb miss)
  kError = 3,  // declared failures (node dead, request rejected)
};
constexpr size_t kNumEventSevs = 4;

enum class EventCat : uint8_t {
  kRoute = 0,     // µproxy request routing + rewrite decisions
  kCache = 1,     // µproxy soft state (attr cache, table cache)
  kMgmt = 2,      // heartbeats, membership, epochs, table distribution
  kFailover = 3,  // kill/recover, adoption/handoff, resync, WAL replay
  kRpc = 4,       // retransmit / timeout / DRC replay
  kNet = 5,       // packet drops
  kAlert = 6,     // watchdog alert raise/clear
  kChaos = 7,     // chaos engine: fault injection + workload verification
};
constexpr size_t kNumEventCats = 8;

// Stable, append-only event codes, grouped by category in blocks of 100.
// Never renumber: dumps are compared across builds and the inspector keys
// off these values.
//
// This X-macro list is the single source of truth for the numeric value,
// the symbolic name, and the wire name of every code: the enum,
// EventCodeName(), and the generated code→name table that
// tools/slice_inspect.py consumes (tools/dump_event_codes →
// event_codes.json) are all expanded from it, so a code added here shows
// up named in the inspector with no further edits.
#define SLICE_EVENT_CODES(X)                                                     \
  X(kNone, 0, "none")                                                            \
  /* -- route (µproxy request path) -- */                                        \
  X(kRouteDecision, 100, "route_decision")           /* switched to a target */  \
  X(kRouteUnavailable, 101, "route_unavailable")     /* no live target */        \
  X(kRouteFailoverRedirect, 102, "route_failover_redirect")                      \
  X(kMisdirectNotice, 110, "misdirect_notice")       /* stale-table notice */    \
  X(kTableInstall, 111, "table_install")             /* epoch table installed */ \
  X(kTableFetch, 112, "table_fetch")                 /* lazy fetch issued */     \
  X(kSoftStateDrop, 113, "soft_state_drop")          /* proxy state dropped */   \
  /* -- cache (µproxy soft state) -- */                                          \
  X(kAttrWriteback, 120, "attr_writeback")                                       \
  X(kCacheHit, 121, "cache_hit")     /* reply served from proxy cache */         \
  X(kCacheFlush, 122, "cache_flush") /* epoch bump flushed entries */            \
  /* -- mgmt (membership + tables) -- */                                         \
  X(kHeartbeatMiss, 200, "heartbeat_miss")     /* newly silent */                \
  X(kNodeDead, 201, "node_dead")               /* declared dead */               \
  X(kNodeRejoin, 202, "node_rejoin")           /* heartbeat after death */       \
  X(kEpochBump, 203, "epoch_bump")             /* tables recomputed */           \
  X(kHeartbeatResume, 204, "heartbeat_resume") /* silent node beat again */      \
  X(kRebalanceBegin, 205, "rebalance_begin")   /* hotspot episode opened */      \
  X(kRebalanceCommit, 206, "rebalance_commit") /* re-striped tables pushed */    \
  /* -- failover (recovery machinery) -- */                                      \
  X(kAdoptBegin, 210, "adopt_begin")   /* dir starts adopting a dead site */     \
  X(kAdoptDone, 211, "adopt_done")     /* adoption WAL replay finished */        \
  X(kHandoff, 212, "handoff")          /* site handed back to owner */           \
  X(kResync, 213, "resync")            /* mirror resync scheduled */             \
  X(kWalReplay, 214, "wal_replay")     /* WAL replayed on restart */             \
  X(kNodeKill, 215, "node_kill")       /* simulated crash */                     \
  X(kNodeRecover, 216, "node_recover") /* restart, volatile state cleared */     \
  /* -- rpc -- */                                                                \
  X(kRpcRetransmit, 300, "rpc_retransmit")                                       \
  X(kRpcTimeout, 301, "rpc_timeout")                                             \
  X(kDrcReplay, 302, "drc_replay")                                               \
  X(kRpcGiveUp, 303, "rpc_give_up")                                              \
  /* -- net -- */                                                                \
  X(kPacketDrop, 400, "packet_drop") /* loss model, chaos, or dead endpoint */   \
  /* -- alert -- */                                                              \
  X(kAlertRaise, 500, "alert_raise")                                             \
  X(kAlertClear, 501, "alert_clear")                                             \
  X(kSloBurn, 510, "slo_burn") /* tenant burn-rate over budget */                \
  X(kSloOk, 511, "slo_ok")     /* tenant burn-rate recovered */                  \
  /* -- chaos (fault injection + invariant workload) -- */                       \
  X(kScenarioStart, 600, "scenario_start") /* named scenario armed */            \
  X(kScenarioEnd, 601, "scenario_end")     /* scenario workload drained */       \
  X(kFaultInject, 602, "fault_inject")     /* a primitive fault applied */       \
  X(kFaultClear, 603, "fault_clear")       /* a primitive fault healed */        \
  X(kChaosWriteAcked, 610, "chaos_write_acked") /* durable-claim journaled */    \
  X(kChaosReadOk, 611, "chaos_read_ok")         /* verify read matched */        \
  X(kChaosReadLost, 612, "chaos_read_lost")     /* acked data missing/torn */

enum class EventCode : uint16_t {
#define SLICE_EVENT_CODE_ENUM(sym, value, name) sym = value,
  SLICE_EVENT_CODES(SLICE_EVENT_CODE_ENUM)
#undef SLICE_EVENT_CODE_ENUM
};

const char* EventSevName(EventSev sev);
const char* EventCatName(EventCat cat);
const char* EventCodeName(EventCode code);

// The full code table as canonical JSON, for tools that want the mapping
// without parsing C++ (tools/dump_event_codes writes this to
// event_codes.json; tools/slice_inspect.py resolves symbolic --code names
// from it): {"event_codes":[{"code":100,"name":"route_decision"},...]}.
std::string EventCodeTableJson();

// Fixed capacities keep Event trivially copyable and recording
// allocation-free. Details are short tags ("loss", "small_commit", rule
// names — longest stock rule is "srv_cpu_backlog", 15 chars).
constexpr size_t kEventDetailCap = 20;
constexpr size_t kEventArgKeyCap = 12;
constexpr size_t kEventMaxArgs = 3;

struct EventArg {
  char key[kEventArgKeyCap] = {};
  int64_t value = 0;
};

struct Event {
  SimTime at = 0;
  uint64_t seq = 0;       // global mint order; tie-breaker for same-time events
  uint64_t trace_id = 0;  // 0 = not correlated with a PR 2 trace
  uint32_t host = 0;      // NetAddr of the recording host
  EventSev sev = EventSev::kInfo;
  EventCat cat = EventCat::kRoute;
  EventCode code = EventCode::kNone;
  uint8_t nargs = 0;
  char detail[kEventDetailCap] = {};
  EventArg args[kEventMaxArgs] = {};

  void set_detail(const char* d) {
    if (d == nullptr) {
      detail[0] = '\0';
      return;
    }
    std::strncpy(detail, d, kEventDetailCap - 1);
    detail[kEventDetailCap - 1] = '\0';
  }
  std::string_view detail_view() const { return std::string_view(detail); }
};

// Bounded per-host event storage (oldest overwritten first).
using EventRing = Ring<Event>;

struct EventLogParams {
  bool enabled = true;
  size_t ring_capacity = 1 << 13;      // events per host
  EventSev min_severity = EventSev::kDebug;
};

// Named key/value argument at a call site. Passing these by initializer_list
// keeps Record() allocation-free (the list lives on the caller's stack).
struct Kv {
  const char* key;
  int64_t value;
};

class EventLog {
 public:
  explicit EventLog(EventLogParams params = {}) : params_(params) {}

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  bool enabled() const { return params_.enabled; }
  EventSev min_severity() const { return params_.min_severity; }

  // Records one event on `host`'s ring. Early-out (no allocation, no ring
  // creation) when disabled or below the severity floor. Args beyond
  // kEventMaxArgs are dropped.
  void Record(uint32_t host, SimTime at, EventSev sev, EventCat cat, EventCode code,
              uint64_t trace_id = 0, const char* detail = nullptr,
              std::initializer_list<Kv> args = {});

  // Merged view of every ring ordered by (at, seq): hosts in address order,
  // oldest-first per host, then a stable merge on the global sequence.
  std::vector<Event> Collect() const;

  uint64_t total_recorded() const { return recorded_; }
  uint64_t total_evicted() const;
  size_t num_rings() const { return rings_.size(); }
  const std::map<uint32_t, EventRing>& rings() const { return rings_; }

  void Clear() {
    rings_.clear();
    recorded_ = 0;
  }

 private:
  EventLogParams params_;
  uint64_t next_seq_ = 0;
  uint64_t recorded_ = 0;
  std::map<uint32_t, EventRing> rings_;  // ordered => deterministic dump
};

// Null-safe instrumentation helper: the single branch components pay when
// event logging is not wired up.
inline void LogEvent(EventLog* log, uint32_t host, SimTime at, EventSev sev, EventCat cat,
                     EventCode code, uint64_t trace_id = 0, const char* detail = nullptr,
                     std::initializer_list<Kv> args = {}) {
  if (log != nullptr) {
    log->Record(host, at, sev, cat, code, trace_id, detail, args);
  }
}

}  // namespace slice::obs

#endif  // SLICE_OBS_EVENTLOG_H_
