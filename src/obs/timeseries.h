// Sim-time metrics scraping: a periodic DES background event that snapshots
// every registered instrument into fixed-interval, bounded time-series rings
// and evaluates the saturation watchdog rules with hysteresis.
//
// Scrapes land at exact multiples of the scrape interval (window-aligned),
// so two same-seed runs sample identical sim-times and produce identical
// series — the scraper introduces no nondeterminism of its own.
#ifndef SLICE_OBS_TIMESERIES_H_
#define SLICE_OBS_TIMESERIES_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/eventlog.h"
#include "src/obs/metrics.h"
#include "src/obs/sinks.h"
#include "src/sim/event_queue.h"

namespace slice::obs {

struct Sample {
  SimTime at = 0;
  int64_t value = 0;
};

// Bounded fixed-interval sample series (oldest overwritten first).
using TimeSeries = Ring<Sample>;

class Scraper {
 public:
  // Of `sinks` the scraper uses the event log: every Alert edge is mirrored
  // into it (kAlertRaise / kAlertClear with the rule name and triggering
  // value), so dumps and alerts can never disagree.
  Scraper(EventQueue& queue, Metrics& metrics, const Sinks& sinks = {})
      : queue_(queue), metrics_(metrics), eventlog_(sinks.eventlog), owner_(queue) {}

  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void AddRule(WatchdogRule rule) { rules_.push_back(std::move(rule)); }
  const std::vector<WatchdogRule>& rules() const { return rules_; }

  // Called on every Alert edge after it is recorded; the ensemble uses this
  // to cut a flight-recorder dump the moment a watchdog fires.
  void SetAlertHook(std::function<void(const Alert&)> hook) { alert_hook_ = std::move(hook); }
  // Called at the end of every scrape, after instruments are sampled and
  // watchdogs evaluated. The SLO engine rides this: burn rates are a pure
  // function of the scrape-time tenant snapshots, so same-seed runs evaluate
  // identical windows.
  void SetScrapeHook(std::function<void(SimTime)> hook) { scrape_hook_ = std::move(hook); }

  // Arms the background scrape timer; the first scrape fires at the next
  // exact multiple of the scrape interval. No-op when metrics are disabled.
  void Start();

  // One scrape right now: samples every instrument into its series, then
  // evaluates the watchdog rules. Exposed for tests; Start() drives this.
  void ScrapeOnce();

  // host -> metric name -> series. Histograms contribute their sample count.
  const std::map<uint32_t, std::map<std::string, TimeSeries, std::less<>>>& series() const {
    return series_;
  }
  // tenant -> metric name -> series (empty unless Metrics::ConfigureTenants
  // was called). Sampled each scrape: per-opclass ops/bytes, errors, bad_ops.
  const std::map<uint32_t, std::map<std::string, TimeSeries, std::less<>>>& tenant_series()
      const {
    return tenant_series_;
  }
  // Raise/clear edges in emission order (scrape time, then rule order, then
  // host order — deterministic).
  const std::vector<Alert>& alerts() const { return alerts_; }
  // Watchdogs currently in the raised state.
  size_t active_alerts() const;
  uint64_t scrapes() const { return scrapes_; }

 private:
  struct RuleState {
    int64_t prev = 0;
    bool has_prev = false;
    uint32_t above = 0;
    uint32_t below = 0;
    bool raised = false;
  };

  void ScheduleNext();
  void EvaluateRules(SimTime now);
  int64_t SampleMetric(const MetricsRegistry& reg, std::string_view name, bool* found) const;

  void EmitAlert(const Alert& alert);

  EventQueue& queue_;
  Metrics& metrics_;
  EventLog* eventlog_ = nullptr;
  std::function<void(const Alert&)> alert_hook_;
  std::function<void(SimTime)> scrape_hook_;
  std::vector<WatchdogRule> rules_;
  std::map<uint32_t, std::map<std::string, TimeSeries, std::less<>>> series_;
  std::map<uint32_t, std::map<std::string, TimeSeries, std::less<>>> tenant_series_;
  // (rule index, host) -> hysteresis state.
  std::map<std::pair<size_t, uint32_t>, RuleState> state_;
  std::vector<Alert> alerts_;
  uint64_t scrapes_ = 0;
  bool started_ = false;
  EventQueue::Owner owner_;  // owns the scrape timer
};

}  // namespace slice::obs

#endif  // SLICE_OBS_TIMESERIES_H_
