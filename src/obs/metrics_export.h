// Metrics exporters: Prometheus-style text exposition for eyeballs and
// scrape-shaped tooling, and a canonical JSON snapshot whose byte content is
// deterministic for a given seed — sorted host/metric iteration, integer
// values only (times in nanoseconds), no locale- or platform-dependent
// float formatting anywhere. MetricsContentHash over the JSON is the
// metrics-plane analogue of the trace content hash: any behaviour change
// (extra request, different cache mix, late failover) shows up as a diff.
#ifndef SLICE_OBS_METRICS_EXPORT_H_
#define SLICE_OBS_METRICS_EXPORT_H_

#include <string>
#include <string_view>

#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/timeseries.h"

namespace slice::obs {

// Dotted-quad rendering of a host address ("10.0.3.0") — stable labels for
// both exposition formats.
std::string FormatHostAddr(uint32_t addr);

// Prometheus text exposition: one family per metric name (slice_ prefix),
// one sample per host, histograms as summaries with p50/p95/p99 quantiles.
std::string ExportPrometheus(const Metrics& metrics);

// Canonical JSON snapshot: every instrument's current value per host, plus
// (when a scraper is supplied) the time-series rings and alert log.
// Stable key order; byte-identical across same-seed runs.
//
// When tenants are configured (Metrics::ConfigureTenants) the snapshot
// grows strictly-appended opt-in sections — "tenants" (per-tenant ×
// per-opclass instruments and tail exemplars), "tenant_series" (scrape
// rings) and "slo" (objective + burn alert stream) — so untenanted runs
// export byte-identical JSON to older builds and every pinned golden holds.
std::string ExportMetricsJson(const Metrics& metrics, const Scraper* scraper = nullptr,
                              const SloEngine* slo = nullptr);
// The same snapshot written as one value into `w` (the flight dump nests it).
void WriteMetricsJson(JsonWriter& w, const Metrics& metrics, const Scraper* scraper,
                      const SloEngine* slo);

// FNV-1a over the canonical JSON bytes.
uint64_t MetricsContentHash(std::string_view canonical_json);

}  // namespace slice::obs

#endif  // SLICE_OBS_METRICS_EXPORT_H_
