// Ensemble-wide metrics plane (observability subsystem).
//
// Every host in the simulated ensemble owns a MetricsRegistry of typed
// instruments: monotonic Counters, Gauges, and Histograms backed by the
// log-scale LatencyStats buckets. Instruments are either pushed from hot
// paths through the null-safe Inc/Set/Observe helpers, or pulled at sample
// time through a provider callback — the Prometheus CounterFunc idiom —
// which lets components expose the accessor counters they already keep
// (requests served, cache hits, disk busy time) with zero hot-path cost.
//
// The registries feed two consumers: the sim-time Scraper (obs/timeseries.h)
// which snapshots every instrument into fixed-interval time-series rings and
// evaluates saturation watchdogs, and the exporters (obs/metrics_export.h)
// which produce Prometheus text exposition and a canonical JSON snapshot.
//
// Design constraints mirror the tracer's:
//  * Near-zero cost when disabled: components hold null instrument pointers
//    and every instrumentation site reduces to one null check — no lookup,
//    no allocation.
//  * Deterministic: registries are keyed by host address and instruments by
//    name in ordered maps, so iteration order — and every export derived
//    from it — is stable run-to-run for a given seed.
#ifndef SLICE_OBS_METRICS_H_
#define SLICE_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/stats.h"

namespace slice::obs {

// Monotonically non-decreasing event count. Either accumulated with Add()
// from instrumentation sites, or backed by a provider polled at sample time
// (the provider's value replaces the accumulated one).
class Counter {
 public:
  void Add(uint64_t delta = 1) { value_ += delta; }
  void SetProvider(std::function<uint64_t()> provider) { provider_ = std::move(provider); }
  uint64_t Value() const { return provider_ ? provider_() : value_; }
  bool has_provider() const { return static_cast<bool>(provider_); }

 private:
  uint64_t value_ = 0;
  std::function<uint64_t()> provider_;
};

// Point-in-time level (queue depth, backlog nanoseconds, resident entries).
class Gauge {
 public:
  void Set(int64_t value) { value_ = value; }
  void Add(int64_t delta) { value_ += delta; }
  void SetProvider(std::function<int64_t()> provider) { provider_ = std::move(provider); }
  int64_t Value() const { return provider_ ? provider_() : value_; }

 private:
  int64_t value_ = 0;
  std::function<int64_t()> provider_;
};

// Distribution instrument backed by the fixed-memory log-scale LatencyStats
// histogram (count/sum/min/max exact, ~3% bounded quantile error).
class Histogram {
 public:
  void Observe(SimTime value) { stats_.Record(value); }
  void Merge(const Histogram& other) { stats_.Merge(other.stats_); }
  const LatencyStats& stats() const { return stats_; }

 private:
  LatencyStats stats_;
};

// Null-safe hot-path helpers: components hold plain instrument pointers that
// stay null when metrics are disabled, so the disabled path is one branch.
inline void Inc(Counter* counter, uint64_t delta = 1) {
  if (counter != nullptr) {
    counter->Add(delta);
  }
}
inline void Set(Gauge* gauge, int64_t value) {
  if (gauge != nullptr) {
    gauge->Set(value);
  }
}
inline void Observe(Histogram* histogram, SimTime value) {
  if (histogram != nullptr) {
    histogram->Observe(value);
  }
}

// One host's instruments, keyed by metric name in sorted order. Get* returns
// a stable pointer (instruments are heap-slotted), creating on first use.
class MetricsRegistry {
 public:
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  // Read-side lookups; null when the instrument was never registered.
  const Counter* FindCounter(std::string_view name) const;
  const Gauge* FindGauge(std::string_view name) const;

  const std::map<std::string, std::unique_ptr<Counter>, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<Gauge>, std::less<>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, std::unique_ptr<Histogram>, std::less<>>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

struct MetricsParams {
  bool enabled = true;
  // Scraper cadence: samples land at exact multiples of this interval.
  SimTime scrape_interval = FromMillis(100);
  // Bounded samples kept per (host, metric) time series; oldest dropped.
  size_t series_capacity = 4096;
};

// --- tenant plane ---------------------------------------------------------

// Coarse op classes for per-tenant accounting: every NFS procedure maps to
// one of these, so a tenant's instruments stay a fixed-size array the µproxy
// indexes allocation-free on the fast path.
enum class TenantOpClass : uint8_t { kRead = 0, kWrite = 1, kName = 2, kAttr = 3, kOther = 4 };
inline constexpr size_t kTenantOpClassCount = 5;
const char* TenantOpClassName(TenantOpClass oc);

// One tail observation: a request slow enough to rank among the tenant's
// worst, carrying the trace id that resolves it in the chrome export and the
// flight recorder (0 when tracing is off).
struct TenantExemplar {
  SimTime at = 0;       // completion time
  SimTime latency = 0;  // end-to-end latency as observed at the µproxy
  uint64_t trace_id = 0;
  uint8_t opclass = 0;  // TenantOpClass
};

// Fixed-capacity worst-latency ring: every observation is offered; only the
// kCapacity slowest survive. Replacement is deterministic (the strictly
// smallest resident latency goes first; first index wins ties), so two
// same-seed runs keep identical exemplar sets.
class ExemplarRing {
 public:
  static constexpr size_t kCapacity = 4;

  void Observe(SimTime at, SimTime latency, uint64_t trace_id, TenantOpClass oc) {
    size_t victim;
    if (size_ < kCapacity) {
      victim = size_++;
    } else {
      victim = kCapacity;
      SimTime min_latency = latency;
      for (size_t i = 0; i < kCapacity; ++i) {
        if (slots_[i].latency < min_latency) {
          min_latency = slots_[i].latency;
          victim = i;
        }
      }
      if (victim == kCapacity) {
        return;  // not slower than any resident exemplar
      }
    }
    slots_[victim] = TenantExemplar{at, latency, trace_id, static_cast<uint8_t>(oc)};
  }

  size_t size() const { return size_; }
  const TenantExemplar& at(size_t i) const { return slots_[i]; }

  // The slowest resident observation (zeroed exemplar when empty).
  TenantExemplar Worst() const {
    TenantExemplar worst;
    for (size_t i = 0; i < size_; ++i) {
      if (slots_[i].latency > worst.latency) {
        worst = slots_[i];
      }
    }
    return worst;
  }

 private:
  TenantExemplar slots_[kCapacity] = {};
  size_t size_ = 0;
};

// Per-tenant instruments: per-opclass ops/bytes/latency plus the SLO inputs
// (errors, "bad" ops = errors + over-threshold latencies) and the tail
// exemplar ring. Preallocated once by Metrics::ConfigureTenants so hot paths
// never create instruments; Account() is the single zero-allocation
// instrumentation point.
struct TenantInstruments {
  uint32_t tenant = 0;
  // Latency above this counts against the tenant's error budget.
  SimTime slow_threshold = 0;
  Counter ops[kTenantOpClassCount];
  Counter bytes[kTenantOpClassCount];
  Histogram latency[kTenantOpClassCount];
  Counter errors;
  Counter bad_ops;

  ExemplarRing exemplars;

  void Account(TenantOpClass oc, uint32_t nbytes, SimTime lat, uint64_t trace_id, SimTime now,
               bool error) {
    const auto i = static_cast<size_t>(oc);
    ops[i].Add();
    if (nbytes != 0) {
      bytes[i].Add(nbytes);
    }
    latency[i].Observe(lat);
    if (error) {
      errors.Add();
    }
    if (error || (slow_threshold != 0 && lat > slow_threshold)) {
      bad_ops.Add();
    }
    exemplars.Observe(now, lat, trace_id, oc);
  }

  uint64_t TotalOps() const {
    uint64_t total = 0;
    for (const Counter& c : ops) {
      total += c.Value();
    }
    return total;
  }
};

// The per-ensemble metrics hub: one registry per host address, in address
// order. Components receive it through obs::Sinks at construction and
// register their instruments/providers against their own host's registry.
class Metrics {
 public:
  explicit Metrics(MetricsParams params = {}) : params_(params) {}

  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  bool enabled() const { return params_.enabled; }
  const MetricsParams& params() const { return params_; }

  MetricsRegistry& Registry(uint32_t host) { return registries_[host]; }
  const std::map<uint32_t, MetricsRegistry>& registries() const { return registries_; }

  // Tenant plane: preallocate instruments for tenants 1..count (tenant 0 is
  // untenanted/system traffic and is never accounted). Call once at ensemble
  // construction, before traffic starts; the arrays never move afterwards so
  // hot paths may cache the TenantData() pointer.
  void ConfigureTenants(uint32_t count, SimTime slow_threshold) {
    tenants_.assign(count, TenantInstruments{});
    for (uint32_t j = 0; j < count; ++j) {
      tenants_[j].tenant = j + 1;
      tenants_[j].slow_threshold = slow_threshold;
    }
  }
  uint32_t num_tenants() const { return static_cast<uint32_t>(tenants_.size()); }
  // O(1) lookup; null for tenant 0 or out-of-range tags.
  TenantInstruments* Tenant(uint32_t tenant) {
    return (tenant >= 1 && tenant <= tenants_.size()) ? &tenants_[tenant - 1] : nullptr;
  }
  // Raw base pointer for the µproxy's allocation-free fast path (index j =
  // tenant j+1); pair with num_tenants() for the bound.
  TenantInstruments* TenantData() { return tenants_.data(); }
  const std::vector<TenantInstruments>& tenants() const { return tenants_; }

 private:
  MetricsParams params_;
  std::map<uint32_t, MetricsRegistry> registries_;  // ordered => deterministic
  std::vector<TenantInstruments> tenants_;          // index j => tenant j+1
};

// --- saturation watchdogs -------------------------------------------------

// How a rule reads its metric each scrape: the sampled value itself, or the
// per-window delta against the previous scrape (for monotonic counters —
// e.g. busy-nanoseconds per window is a utilization measure).
enum class WatchdogMode : uint8_t { kValue = 0, kDelta = 1 };

// Threshold rule with hysteresis, evaluated per host each scrape. Raises
// after `raise_streak` consecutive samples >= raise_threshold; clears after
// `clear_streak` consecutive samples <= clear_threshold.
struct WatchdogRule {
  std::string name;    // alert name, e.g. "disk_backlog"
  std::string metric;  // instrument watched (counter or gauge)
  WatchdogMode mode = WatchdogMode::kValue;
  int64_t raise_threshold = 0;
  int64_t clear_threshold = 0;
  uint32_t raise_streak = 1;
  uint32_t clear_streak = 1;
};

// Structured alert record emitted on every raise/clear edge, consumable by
// tests and serialized into the JSON snapshot.
struct Alert {
  SimTime at = 0;
  std::string rule;
  uint32_t host = 0;
  int64_t value = 0;   // the sample that crossed the edge
  bool raise = true;   // false = cleared
};

// The stock rule set the ensemble installs: disk queue-depth watermark, NIC
// transmit >90% utilization per window, heartbeat-miss streak, declared-dead
// membership, and server CPU backlog.
std::vector<WatchdogRule> DefaultWatchdogRules(SimTime scrape_interval);

}  // namespace slice::obs

#endif  // SLICE_OBS_METRICS_H_
