#include "src/obs/metrics_export.h"

#include <utility>
#include <vector>

#include "src/common/hash.h"

namespace slice::obs {
namespace {

void WriteHistogram(JsonWriter& w, const LatencyStats& stats) {
  w.BeginObject();
  w.Key("count").UInt(stats.count());
  w.Key("sum").UInt(stats.sum());
  w.Key("min").UInt(stats.min());
  w.Key("max").UInt(stats.max());
  w.Key("p50").UInt(stats.Percentile(50));
  w.Key("p95").UInt(stats.Percentile(95));
  w.Key("p99").UInt(stats.Percentile(99));
  w.EndObject();
}

// {"<key>":{"<metric>":[[at,value],...],...},...}: the scraper's per-host and
// per-tenant rings, keyed by the host address or the tenant number.
void WriteSeries(JsonWriter& w,
                 const std::map<uint32_t, std::map<std::string, TimeSeries, std::less<>>>& series,
                 std::string (*key_name)(uint32_t)) {
  w.BeginObject();
  for (const auto& [key, by_metric] : series) {
    w.Key(key_name(key)).BeginObject();
    for (const auto& [name, ring] : by_metric) {
      w.Key(name).BeginArray();
      for (size_t i = 0; i < ring.size(); ++i) {
        w.BeginArray().UInt(ring.at(i).at).Int(ring.at(i).value).EndArray();
      }
      w.EndArray();
    }
    w.EndObject();
  }
  w.EndObject();
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
  const auto write_families = [&out](const auto& families, std::string_view type) {
    for (const auto& [name, samples] : families) {
      out += "# TYPE slice_";
      out += name;
      out += ' ';
      out += type;
      out += '\n';
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
  };
  write_families(counter_families, "counter");
  write_families(gauge_families, "gauge");
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

void WriteMetricsJson(JsonWriter& w, const Metrics& metrics, const Scraper* scraper,
                      const SloEngine* slo) {
  w.BeginObject();
  w.Key("hosts").BeginObject();
  for (const auto& [host, reg] : metrics.registries()) {
    w.Key(FormatHostAddr(host)).BeginObject();
    w.Key("counters").BeginObject();
    for (const auto& [name, counter] : reg.counters()) {
      w.Key(name).UInt(counter->Value());
    }
    w.EndObject();
    w.Key("gauges").BeginObject();
    for (const auto& [name, gauge] : reg.gauges()) {
      w.Key(name).Int(gauge->Value());
    }
    w.EndObject();
    w.Key("histograms").BeginObject();
    for (const auto& [name, histogram] : reg.histograms()) {
      w.Key(name);
      WriteHistogram(w, histogram->stats());
    }
    w.EndObject().EndObject();
  }
  w.EndObject();
  if (scraper != nullptr) {
    w.Key("scrapes").UInt(scraper->scrapes());
    w.Key("alerts").BeginArray();
    for (const Alert& alert : scraper->alerts()) {
      w.BeginObject();
      w.Key("at").UInt(alert.at);
      w.Key("rule").String(alert.rule);
      w.Key("host").String(FormatHostAddr(alert.host));
      w.Key("value").Int(alert.value);
      w.Key("raise").Int(alert.raise ? 1 : 0);
      w.EndObject();
    }
    w.EndArray();
    w.Key("series");
    WriteSeries(w, scraper->series(), FormatHostAddr);
  }
  // Tenant plane: strictly opt-in sections, so untenanted runs stay
  // byte-identical with pre-tenant exports (pinned goldens).
  if (metrics.num_tenants() > 0) {
    const auto per_class = [&w](std::string_view key, const auto& write_value) {
      w.Key(key).BeginObject();
      for (size_t i = 0; i < kTenantOpClassCount; ++i) {
        w.Key(TenantOpClassName(static_cast<TenantOpClass>(i)));
        write_value(i);
      }
      w.EndObject();
    };
    w.Key("tenants").BeginObject();
    for (const TenantInstruments& ti : metrics.tenants()) {
      w.Key(std::to_string(ti.tenant)).BeginObject();
      per_class("ops", [&](size_t i) { w.UInt(ti.ops[i].Value()); });
      per_class("bytes", [&](size_t i) { w.UInt(ti.bytes[i].Value()); });
      per_class("latency", [&](size_t i) { WriteHistogram(w, ti.latency[i].stats()); });
      w.Key("errors").UInt(ti.errors.Value());
      w.Key("bad_ops").UInt(ti.bad_ops.Value());
      w.Key("slow_threshold").UInt(ti.slow_threshold);
      w.Key("exemplars").BeginArray();
      for (size_t i = 0; i < ti.exemplars.size(); ++i) {
        const TenantExemplar& ex = ti.exemplars.at(i);
        w.BeginObject();
        w.Key("at").UInt(ex.at);
        w.Key("latency").UInt(ex.latency);
        w.Key("trace_id").UInt(ex.trace_id);
        w.Key("class").String(TenantOpClassName(static_cast<TenantOpClass>(ex.opclass)));
        w.EndObject();
      }
      w.EndArray().EndObject();
    }
    w.EndObject();
    if (scraper != nullptr) {
      w.Key("tenant_series");
      WriteSeries(w, scraper->tenant_series(), [](uint32_t t) { return std::to_string(t); });
    }
    if (slo != nullptr && slo->params().enabled) {
      const SloParams& sp = slo->params();
      w.Key("slo").BeginObject();
      w.Key("budget_ppm").UInt(sp.error_budget_ppm);
      w.Key("latency_threshold").UInt(sp.latency_threshold);
      w.Key("burn_threshold_milli").Int(sp.burn_threshold_milli);
      w.Key("fast_windows").UInt(sp.fast_windows);
      w.Key("slow_windows").UInt(sp.slow_windows);
      w.Key("alerts").BeginArray();
      for (const SloAlert& alert : slo->alerts()) {
        w.BeginObject();
        w.Key("at").UInt(alert.at);
        w.Key("tenant").UInt(alert.tenant);
        w.Key("raise").Int(alert.raise ? 1 : 0);
        w.Key("fast").Int(alert.fast_milli);
        w.Key("slow").Int(alert.slow_milli);
        w.Key("trace_id").UInt(alert.trace_id);
        w.EndObject();
      }
      w.EndArray().EndObject();
    }
  }
  w.EndObject();
}

std::string ExportMetricsJson(const Metrics& metrics, const Scraper* scraper,
                              const SloEngine* slo) {
  JsonWriter w;
  WriteMetricsJson(w, metrics, scraper, slo);
  return w.Take();
}

uint64_t MetricsContentHash(std::string_view canonical_json) { return Fnv1a64(canonical_json); }

}  // namespace slice::obs
