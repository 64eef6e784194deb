#include "src/obs/export.h"

#include <algorithm>

#include "src/common/hash.h"

namespace slice::obs {
namespace {

// Microsecond timestamp with nanosecond fraction, formatted from integers so
// the output never depends on floating-point printing.
void AppendMicros(std::string& out, SimTime ns) {
  out += std::to_string(ns / 1000);
  out += '.';
  const uint64_t frac = ns % 1000;
  out += static_cast<char>('0' + frac / 100);
  out += static_cast<char>('0' + (frac / 10) % 10);
  out += static_cast<char>('0' + frac % 10);
}

// Incremental FNV-1a: folds the value's in-memory bytes into `h`.
void HashU64(uint64_t& h, uint64_t v) {
  h = Fnv1a64(ByteSpan(reinterpret_cast<const uint8_t*>(&v), sizeof(v)), h);
}

}  // namespace

std::vector<Span> CanonicalOrder(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.start != b.start) {
      return a.start < b.start;
    }
    if (a.end != b.end) {
      return a.end < b.end;
    }
    if (a.host != b.host) {
      return a.host < b.host;
    }
    if (a.trace_id != b.trace_id) {
      return a.trace_id < b.trace_id;
    }
    return a.span_id < b.span_id;
  });
  return spans;
}

std::string ExportChromeTrace(const std::vector<Span>& spans) {
  const std::vector<Span> ordered = CanonicalOrder(spans);
  std::string out;
  out.reserve(ordered.size() * 160 + 64);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const Span& span : ordered) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"name\":\"";
    out += span.name_view();
    out += "\",\"cat\":\"";
    out += SpanCatName(span.cat);
    out += "\",\"ph\":\"";
    out += span.instant ? 'i' : 'X';
    out += "\",\"ts\":";
    AppendMicros(out, span.start);
    if (span.instant) {
      out += ",\"s\":\"t\"";
    } else {
      out += ",\"dur\":";
      AppendMicros(out, span.end - span.start);
    }
    out += ",\"pid\":";
    out += std::to_string(span.host);
    out += ",\"tid\":";
    out += std::to_string(span.trace_id);
    out += ",\"args\":{\"span\":";
    out += std::to_string(span.span_id);
    out += ",\"parent\":";
    out += std::to_string(span.parent_id);
    if (span.root) {
      out += ",\"root\":1";
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

uint64_t TraceContentHash(const std::vector<Span>& spans) {
  const std::vector<Span> ordered = CanonicalOrder(spans);
  uint64_t h = kFnvOffsetBasis;
  for (const Span& span : ordered) {
    HashU64(h, span.trace_id);
    HashU64(h, span.span_id);
    HashU64(h, span.parent_id);
    HashU64(h, span.start);
    HashU64(h, span.end);
    HashU64(h, span.host);
    HashU64(h, static_cast<uint64_t>(span.cat));
    HashU64(h, (span.root ? 2u : 0u) | (span.instant ? 1u : 0u));
    const std::string_view name = span.name_view();
    h = Fnv1a64(name, h);
    HashU64(h, name.size());
  }
  HashU64(h, ordered.size());
  return h;
}

}  // namespace slice::obs
