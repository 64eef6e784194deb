#include "src/obs/flight_recorder.h"

#include <fstream>

#include "src/common/hash.h"
#include "src/obs/metrics_export.h"

namespace slice::obs {
namespace {

// JSON string escaping for the few free-text fields (reason, detail, arg
// keys). Details are short ASCII tags in practice; escape defensively
// anyway so the dump is always valid JSON.
void AppendEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
}

void AppendEvent(std::string& out, const Event& event) {
  out += "{\"at\":";
  out += std::to_string(event.at);
  out += ",\"seq\":";
  out += std::to_string(event.seq);
  out += ",\"host\":\"";
  out += FormatHostAddr(event.host);
  out += "\",\"sev\":\"";
  out += EventSevName(event.sev);
  out += "\",\"cat\":\"";
  out += EventCatName(event.cat);
  out += "\",\"code\":";
  out += std::to_string(static_cast<uint16_t>(event.code));
  out += ",\"name\":\"";
  out += EventCodeName(event.code);
  out += '"';
  if (event.detail[0] != '\0') {
    out += ",\"detail\":\"";
    AppendEscaped(out, event.detail_view());
    out += '"';
  }
  if (event.trace_id != 0) {
    out += ",\"trace\":";
    out += std::to_string(event.trace_id);
  }
  if (event.nargs > 0) {
    out += ",\"args\":{";
    for (uint8_t i = 0; i < event.nargs; ++i) {
      if (i > 0) {
        out += ',';
      }
      out += '"';
      AppendEscaped(out, std::string_view(event.args[i].key));
      out += "\":";
      out += std::to_string(event.args[i].value);
    }
    out += '}';
  }
  out += '}';
}

}  // namespace

std::string ExportFlightJson(const EventLog& log, SimTime at, const char* reason,
                             const std::vector<uint64_t>& inflight_traces, const Metrics* metrics,
                             const Scraper* scraper, const SloEngine* slo,
                             const Profiler* profiler) {
  std::string out;
  out.reserve(1 << 16);
  out += "{\"flight\":{\"reason\":\"";
  AppendEscaped(out, reason != nullptr ? reason : "manual");
  out += "\",\"at\":";
  out += std::to_string(at);
  out += ",\"recorded\":";
  out += std::to_string(log.total_recorded());
  out += ",\"evicted\":";
  out += std::to_string(log.total_evicted());
  out += ",\"events\":[";
  bool first = true;
  for (const Event& event : log.Collect()) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendEvent(out, event);
  }
  out += "]},\"inflight_traces\":[";
  first = true;
  for (uint64_t trace_id : inflight_traces) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += std::to_string(trace_id);
  }
  out += ']';
  if (metrics != nullptr) {
    out += ",\"metrics\":";
    out += ExportMetricsJson(*metrics, scraper, slo);
  }
  if (profiler != nullptr) {
    // Strictly appended opt-in section (same rule as the tenant sections in
    // the metrics snapshot): unprofiled dumps stay byte-identical to older
    // builds. ExportProfileJson wraps itself in {"profile":...} — splice the
    // inner object under our own key.
    const std::string profile = profiler->ExportProfileJson();
    constexpr std::string_view kPrefix = "{\"profile\":";
    out += ",\"profile\":";
    out.append(profile, kPrefix.size(), profile.size() - kPrefix.size() - 1);
  }
  out += '}';
  return out;
}

uint64_t FlightContentHash(std::string_view canonical_json) { return Fnv1a64(canonical_json); }

bool WriteFlightDump(const std::string& path, std::string_view json) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out << json;
  return static_cast<bool>(out);
}

}  // namespace slice::obs
