#include "src/obs/export.h"

#include <algorithm>

#include "src/common/hash.h"
#include "src/obs/json.h"

namespace slice::obs {
namespace {

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
  JsonWriter w;
  w.BeginObject().Key("traceEvents").BeginArray();
  for (const Span& span : CanonicalOrder(spans)) {
    w.BeginObject();
    w.Key("name").String(span.name_view());
    w.Key("cat").String(SpanCatName(span.cat));
    w.Key("ph").String(span.instant ? "i" : "X");
    // Timestamps are microseconds with a nanosecond fraction.
    w.Key("ts").Decimal(static_cast<int64_t>(span.start), 3);
    if (span.instant) {
      w.Key("s").String("t");
    } else {
      w.Key("dur").Decimal(static_cast<int64_t>(span.end - span.start), 3);
    }
    w.Key("pid").UInt(span.host);
    w.Key("tid").UInt(span.trace_id);
    w.Key("args").BeginObject();
    w.Key("span").UInt(span.span_id);
    w.Key("parent").UInt(span.parent_id);
    if (span.root) {
      w.Key("root").Int(1);
    }
    w.EndObject().EndObject();
  }
  w.EndArray().EndObject();
  return w.Take();
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
