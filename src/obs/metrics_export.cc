#include "src/obs/metrics_export.h"

#include <cmath>
#include <utility>
#include <vector>

#include "src/common/hash.h"

namespace slice::obs {
namespace {

void AppendHistogramQuantiles(std::string& out, const LatencyStats& stats) {
  out += "\"count\":";
  out += std::to_string(stats.count());
  out += ",\"sum\":";
  out += std::to_string(stats.sum());
  out += ",\"min\":";
  out += std::to_string(stats.min());
  out += ",\"max\":";
  out += std::to_string(stats.max());
  out += ",\"p50\":";
  out += std::to_string(stats.Percentile(50));
  out += ",\"p95\":";
  out += std::to_string(stats.Percentile(95));
  out += ",\"p99\":";
  out += std::to_string(stats.Percentile(99));
}

}  // namespace

std::string FormatHostAddr(uint32_t addr) {
  std::string out;
  out += std::to_string((addr >> 24) & 0xff);
  out += '.';
  out += std::to_string((addr >> 16) & 0xff);
  out += '.';
  out += std::to_string((addr >> 8) & 0xff);
  out += '.';
  out += std::to_string(addr & 0xff);
  return out;
}

void AppendFixed(std::string& out, double value, int decimals) {
  // Render via integer fixed-point so the bytes never depend on locale or
  // printf float behaviour. Good to 9 decimal places.
  static constexpr int64_t kPow10[10] = {1,      10,      100,      1000,      10000,
                                         100000, 1000000, 10000000, 100000000, 1000000000};
  if (decimals < 0) {
    decimals = 0;
  }
  if (decimals > 9) {
    decimals = 9;
  }
  double v = value;
  if (v < 0) {
    out += '-';
    v = -v;
  }
  const int64_t scale = kPow10[decimals];
  const auto scaled = static_cast<int64_t>(std::llround(v * static_cast<double>(scale)));
  out += std::to_string(scaled / scale);
  if (decimals > 0) {
    out += '.';
    const int64_t frac = scaled % scale;
    for (int d = decimals - 1; d >= 0; --d) {
      out += static_cast<char>('0' + (frac / kPow10[d]) % 10);
    }
  }
}

std::string ExportPrometheus(const Metrics& metrics) {
  std::string out;
  out.reserve(4096);
  // Group samples by family (metric name) across hosts, Prometheus-style.
  // Three passes keyed by the ordered registry maps keep it deterministic.
  std::map<std::string, std::vector<std::pair<uint32_t, uint64_t>>, std::less<>> counter_families;
  std::map<std::string, std::vector<std::pair<uint32_t, int64_t>>, std::less<>> gauge_families;
  std::map<std::string, std::vector<std::pair<uint32_t, const LatencyStats*>>, std::less<>>
      histogram_families;
  for (const auto& [host, reg] : metrics.registries()) {
    for (const auto& [name, counter] : reg.counters()) {
      counter_families[name].emplace_back(host, counter->Value());
    }
    for (const auto& [name, gauge] : reg.gauges()) {
      gauge_families[name].emplace_back(host, gauge->Value());
    }
    for (const auto& [name, histogram] : reg.histograms()) {
      histogram_families[name].emplace_back(host, &histogram->stats());
    }
  }
  for (const auto& [name, samples] : counter_families) {
    out += "# TYPE slice_";
    out += name;
    out += " counter\n";
    for (const auto& [host, value] : samples) {
      out += "slice_";
      out += name;
      out += "{host=\"";
      out += FormatHostAddr(host);
      out += "\"} ";
      out += std::to_string(value);
      out += '\n';
    }
  }
  for (const auto& [name, samples] : gauge_families) {
    out += "# TYPE slice_";
    out += name;
    out += " gauge\n";
    for (const auto& [host, value] : samples) {
      out += "slice_";
      out += name;
      out += "{host=\"";
      out += FormatHostAddr(host);
      out += "\"} ";
      out += std::to_string(value);
      out += '\n';
    }
  }
  for (const auto& [name, samples] : histogram_families) {
    out += "# TYPE slice_";
    out += name;
    out += " summary\n";
    for (const auto& [host, stats] : samples) {
      const std::string label = FormatHostAddr(host);
      static constexpr std::pair<const char*, double> kQuantiles[] = {
          {"0.5", 50.0}, {"0.95", 95.0}, {"0.99", 99.0}};
      for (const auto& [q_label, q] : kQuantiles) {
        out += "slice_";
        out += name;
        out += "{host=\"";
        out += label;
        out += "\",quantile=\"";
        out += q_label;
        out += "\"} ";
        out += std::to_string(stats->Percentile(q));
        out += '\n';
      }
      out += "slice_";
      out += name;
      out += "_sum{host=\"";
      out += label;
      out += "\"} ";
      out += std::to_string(stats->sum());
      out += '\n';
      out += "slice_";
      out += name;
      out += "_count{host=\"";
      out += label;
      out += "\"} ";
      out += std::to_string(stats->count());
      out += '\n';
    }
  }
  return out;
}

std::string ExportMetricsJson(const Metrics& metrics, const Scraper* scraper,
                              const SloEngine* slo) {
  std::string out;
  out.reserve(8192);
  out += "{\"hosts\":{";
  bool first_host = true;
  for (const auto& [host, reg] : metrics.registries()) {
    if (!first_host) {
      out += ',';
    }
    first_host = false;
    out += '"';
    out += FormatHostAddr(host);
    out += "\":{\"counters\":{";
    bool first = true;
    for (const auto& [name, counter] : reg.counters()) {
      if (!first) {
        out += ',';
      }
      first = false;
      out += '"';
      out += name;
      out += "\":";
      out += std::to_string(counter->Value());
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, gauge] : reg.gauges()) {
      if (!first) {
        out += ',';
      }
      first = false;
      out += '"';
      out += name;
      out += "\":";
      out += std::to_string(gauge->Value());
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, histogram] : reg.histograms()) {
      if (!first) {
        out += ',';
      }
      first = false;
      out += '"';
      out += name;
      out += "\":{";
      AppendHistogramQuantiles(out, histogram->stats());
      out += '}';
    }
    out += "}}";
  }
  out += '}';
  if (scraper != nullptr) {
    out += ",\"scrapes\":";
    out += std::to_string(scraper->scrapes());
    out += ",\"alerts\":[";
    bool first = true;
    for (const Alert& alert : scraper->alerts()) {
      if (!first) {
        out += ',';
      }
      first = false;
      out += "{\"at\":";
      out += std::to_string(alert.at);
      out += ",\"rule\":\"";
      out += alert.rule;
      out += "\",\"host\":\"";
      out += FormatHostAddr(alert.host);
      out += "\",\"value\":";
      out += std::to_string(alert.value);
      out += ",\"raise\":";
      out += alert.raise ? '1' : '0';
      out += '}';
    }
    out += "],\"series\":{";
    bool first_series_host = true;
    for (const auto& [host, by_metric] : scraper->series()) {
      if (!first_series_host) {
        out += ',';
      }
      first_series_host = false;
      out += '"';
      out += FormatHostAddr(host);
      out += "\":{";
      bool first_metric = true;
      for (const auto& [name, series] : by_metric) {
        if (!first_metric) {
          out += ',';
        }
        first_metric = false;
        out += '"';
        out += name;
        out += "\":[";
        for (size_t i = 0; i < series.size(); ++i) {
          if (i > 0) {
            out += ',';
          }
          out += '[';
          out += std::to_string(series.at(i).at);
          out += ',';
          out += std::to_string(series.at(i).value);
          out += ']';
        }
        out += ']';
      }
      out += '}';
    }
    out += '}';
  }
  // Tenant plane: strictly opt-in sections, so untenanted runs stay
  // byte-identical with pre-tenant exports (pinned goldens).
  if (metrics.num_tenants() > 0) {
    out += ",\"tenants\":{";
    bool first_tenant = true;
    for (const TenantInstruments& ti : metrics.tenants()) {
      if (!first_tenant) {
        out += ',';
      }
      first_tenant = false;
      out += '"';
      out += std::to_string(ti.tenant);
      out += "\":{\"ops\":{";
      for (size_t i = 0; i < kTenantOpClassCount; ++i) {
        if (i > 0) {
          out += ',';
        }
        out += '"';
        out += TenantOpClassName(static_cast<TenantOpClass>(i));
        out += "\":";
        out += std::to_string(ti.ops[i].Value());
      }
      out += "},\"bytes\":{";
      for (size_t i = 0; i < kTenantOpClassCount; ++i) {
        if (i > 0) {
          out += ',';
        }
        out += '"';
        out += TenantOpClassName(static_cast<TenantOpClass>(i));
        out += "\":";
        out += std::to_string(ti.bytes[i].Value());
      }
      out += "},\"latency\":{";
      for (size_t i = 0; i < kTenantOpClassCount; ++i) {
        if (i > 0) {
          out += ',';
        }
        out += '"';
        out += TenantOpClassName(static_cast<TenantOpClass>(i));
        out += "\":{";
        AppendHistogramQuantiles(out, ti.latency[i].stats());
        out += '}';
      }
      out += "},\"errors\":";
      out += std::to_string(ti.errors.Value());
      out += ",\"bad_ops\":";
      out += std::to_string(ti.bad_ops.Value());
      out += ",\"slow_threshold\":";
      out += std::to_string(ti.slow_threshold);
      out += ",\"exemplars\":[";
      for (size_t i = 0; i < ti.exemplars.size(); ++i) {
        if (i > 0) {
          out += ',';
        }
        const TenantExemplar& ex = ti.exemplars.at(i);
        out += "{\"at\":";
        out += std::to_string(ex.at);
        out += ",\"latency\":";
        out += std::to_string(ex.latency);
        out += ",\"trace_id\":";
        out += std::to_string(ex.trace_id);
        out += ",\"class\":\"";
        out += TenantOpClassName(static_cast<TenantOpClass>(ex.opclass));
        out += "\"}";
      }
      out += "]}";
    }
    out += '}';
    if (scraper != nullptr) {
      out += ",\"tenant_series\":{";
      bool first_ts_tenant = true;
      for (const auto& [tenant, by_metric] : scraper->tenant_series()) {
        if (!first_ts_tenant) {
          out += ',';
        }
        first_ts_tenant = false;
        out += '"';
        out += std::to_string(tenant);
        out += "\":{";
        bool first_metric = true;
        for (const auto& [name, series] : by_metric) {
          if (!first_metric) {
            out += ',';
          }
          first_metric = false;
          out += '"';
          out += name;
          out += "\":[";
          for (size_t i = 0; i < series.size(); ++i) {
            if (i > 0) {
              out += ',';
            }
            out += '[';
            out += std::to_string(series.at(i).at);
            out += ',';
            out += std::to_string(series.at(i).value);
            out += ']';
          }
          out += ']';
        }
        out += '}';
      }
      out += '}';
    }
    if (slo != nullptr && slo->params().enabled) {
      const SloParams& sp = slo->params();
      out += ",\"slo\":{\"budget_ppm\":";
      out += std::to_string(sp.error_budget_ppm);
      out += ",\"latency_threshold\":";
      out += std::to_string(sp.latency_threshold);
      out += ",\"burn_threshold_milli\":";
      out += std::to_string(sp.burn_threshold_milli);
      out += ",\"fast_windows\":";
      out += std::to_string(sp.fast_windows);
      out += ",\"slow_windows\":";
      out += std::to_string(sp.slow_windows);
      out += ",\"alerts\":[";
      bool first_alert = true;
      for (const SloAlert& alert : slo->alerts()) {
        if (!first_alert) {
          out += ',';
        }
        first_alert = false;
        out += "{\"at\":";
        out += std::to_string(alert.at);
        out += ",\"tenant\":";
        out += std::to_string(alert.tenant);
        out += ",\"raise\":";
        out += alert.raise ? '1' : '0';
        out += ",\"fast\":";
        out += std::to_string(alert.fast_milli);
        out += ",\"slow\":";
        out += std::to_string(alert.slow_milli);
        out += ",\"trace_id\":";
        out += std::to_string(alert.trace_id);
        out += '}';
      }
      out += "]}";
    }
  }
  out += '}';
  return out;
}

uint64_t MetricsContentHash(std::string_view canonical_json) { return Fnv1a64(canonical_json); }

}  // namespace slice::obs
