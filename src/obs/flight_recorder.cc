#include "src/obs/flight_recorder.h"

#include "src/common/hash.h"
#include "src/obs/json.h"
#include "src/obs/metrics_export.h"

namespace slice::obs {
namespace {

void WriteEvent(JsonWriter& w, const Event& event) {
  w.BeginObject();
  w.Key("at").UInt(event.at);
  w.Key("seq").UInt(event.seq);
  w.Key("host").String(FormatHostAddr(event.host));
  w.Key("sev").String(EventSevName(event.sev));
  w.Key("cat").String(EventCatName(event.cat));
  w.Key("code").UInt(static_cast<uint16_t>(event.code));
  w.Key("name").String(EventCodeName(event.code));
  if (event.detail[0] != '\0') {
    w.Key("detail").String(event.detail_view());
  }
  if (event.trace_id != 0) {
    w.Key("trace").UInt(event.trace_id);
  }
  if (event.nargs > 0) {
    w.Key("args").BeginObject();
    for (uint8_t i = 0; i < event.nargs; ++i) {
      w.Key(event.args[i].key).Int(event.args[i].value);
    }
    w.EndObject();
  }
  w.EndObject();
}

}  // namespace

std::string ExportFlightJson(const EventLog& log, SimTime at, const char* reason,
                             const std::vector<uint64_t>& inflight_traces, const Metrics* metrics,
                             const Scraper* scraper, const SloEngine* slo,
                             const Profiler* profiler) {
  JsonWriter w;
  w.BeginObject();
  w.Key("flight").BeginObject();
  w.Key("reason").String(reason != nullptr ? reason : "manual");
  w.Key("at").UInt(at);
  w.Key("recorded").UInt(log.total_recorded());
  w.Key("evicted").UInt(log.total_evicted());
  w.Key("events").BeginArray();
  for (const Event& event : log.Collect()) {
    WriteEvent(w, event);
  }
  w.EndArray().EndObject();
  w.Key("inflight_traces").BeginArray();
  for (uint64_t trace_id : inflight_traces) {
    w.UInt(trace_id);
  }
  w.EndArray();
  if (metrics != nullptr) {
    w.Key("metrics");
    WriteMetricsJson(w, *metrics, scraper, slo);
  }
  if (profiler != nullptr) {
    // Strictly appended opt-in section (same rule as the tenant sections in
    // the metrics snapshot): unprofiled dumps stay byte-identical to older
    // builds.
    w.Key("profile");
    profiler->WriteProfileJson(w);
  }
  w.EndObject();
  return w.Take();
}

uint64_t FlightContentHash(std::string_view canonical_json) { return Fnv1a64(canonical_json); }

}  // namespace slice::obs
