// Per-tenant SLO engine: multi-window burn-rate alerting over the tenant
// instruments (obs/metrics.h).
//
// Each tenant has one latency/availability objective, expressed as an error
// budget: at most `error_budget_ppm` of requests may be "bad" (an NFS error,
// or end-to-end latency above the tenant's slow threshold). The engine rides
// the Scraper's scrape hook, so burn rates are a pure function of the
// window-aligned scrape-time snapshots — same seed, same alert stream.
//
// Burn rate is the classic SRE multi-window form: how fast the budget is
// being consumed relative to the allowed rate, evaluated over a fast window
// (catches acute incidents quickly) and a slow window (filters blips). An
// alert raises only when BOTH windows burn above threshold for
// `raise_streak` consecutive scrapes, and clears when the fast window calms
// for `clear_streak` scrapes — the same raise/clear hysteresis discipline as
// the saturation watchdogs.
//
// All arithmetic is integer (parts-per-million budgets, milli-burn rates):
// no floating point touches the alert stream or the JSON export, so flight
// hashes stay portable across libm implementations.
#ifndef SLICE_OBS_SLO_H_
#define SLICE_OBS_SLO_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/obs/eventlog.h"
#include "src/obs/metrics.h"
#include "src/obs/ring.h"
#include "src/obs/sinks.h"
#include "src/sim/event_queue.h"

namespace slice::obs {

// Pseudo host address for SLO events (the chaos controller uses
// 0x0a0005fe; the SLO engine sits next to it in the 10.0.5.x service range).
inline constexpr uint32_t kSloHost = 0x0a0005fd;

struct SloParams {
  bool enabled = false;
  // Error budget: max "bad" requests per million (1000 ppm = 99.9%).
  uint32_t error_budget_ppm = 1000;
  // Latency objective: requests slower than this are budget-consuming.
  // Stamped into TenantInstruments::slow_threshold by the ensemble.
  SimTime latency_threshold = FromMillis(50);
  // Window lengths in scrapes (at the default 100ms scrape interval:
  // 500ms fast / 6s slow).
  uint32_t fast_windows = 5;
  uint32_t slow_windows = 60;
  // Raise when both windows burn at >= this rate, in milli-burns
  // (1000 = consuming budget exactly at the allowed rate).
  int64_t burn_threshold_milli = 1000;
  uint32_t raise_streak = 2;
  uint32_t clear_streak = 2;
  // Windows with fewer ops than this are treated as burning nothing
  // (avoids 1-error-out-of-2-ops false alarms).
  uint64_t min_ops = 8;
};

// One raise/clear edge of a tenant's burn alert. `trace_id` is the tenant's
// worst tail exemplar at edge time: the concrete request that explains the
// violation, resolvable in the chrome trace export and the flight recorder.
struct SloAlert {
  SimTime at = 0;
  uint32_t tenant = 0;
  bool raise = true;
  int64_t fast_milli = 0;  // fast-window burn rate at the edge
  int64_t slow_milli = 0;  // slow-window burn rate at the edge
  uint64_t trace_id = 0;
};

class SloEngine {
 public:
  // Of `sinks` the engine uses the event log, which receives every
  // slo_burn / slo_ok edge.
  SloEngine(Metrics& metrics, SloParams params, const Sinks& sinks = {})
      : metrics_(metrics), params_(params), eventlog_(sinks.eventlog) {}

  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;
  const SloParams& params() const { return params_; }

  // Scrape-hook entry point: snapshot every tenant's cumulative (ops, bad)
  // counters, evaluate both burn windows, emit kSloBurn/kSloOk edges.
  void OnScrape(SimTime now);

  // Edges in emission order (scrape time, then tenant order).
  const std::vector<SloAlert>& alerts() const { return alerts_; }
  // Tenants currently burning (raised and not yet cleared).
  size_t active_burns() const;
  bool burning(uint32_t tenant) const;

  // Latest burn rates for a tenant (0 before the first scrape).
  int64_t fast_burn_milli(uint32_t tenant) const;
  int64_t slow_burn_milli(uint32_t tenant) const;

 private:
  struct Snap {
    uint64_t ops = 0;
    uint64_t bad = 0;
  };
  struct TenantState {
    explicit TenantState(size_t windows) : ring(windows) {}
    Ring<Snap> ring;  // cumulative snapshots, capacity slow_windows+1
    uint32_t above = 0;
    uint32_t below = 0;
    bool raised = false;
    int64_t fast_milli = 0;
    int64_t slow_milli = 0;
  };

  // Burn rate over the last `windows` scrapes, in milli-burns; partial
  // windows use the oldest snapshot available.
  int64_t BurnMilli(const TenantState& st, uint32_t windows) const;
  void EmitEdge(SimTime now, uint32_t tenant, const TenantState& st, uint64_t trace_id);

  Metrics& metrics_;
  SloParams params_;
  EventLog* eventlog_ = nullptr;
  std::map<uint32_t, TenantState> state_;  // tenant -> window state
  std::vector<SloAlert> alerts_;
};

}  // namespace slice::obs

#endif  // SLICE_OBS_SLO_H_
