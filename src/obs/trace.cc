#include "src/obs/trace.h"

namespace slice::obs {

const char* SpanCatName(SpanCat cat) {
  switch (cat) {
    case SpanCat::kWire:
      return "wire";
    case SpanCat::kQueue:
      return "queue";
    case SpanCat::kCpu:
      return "cpu";
    case SpanCat::kDisk:
      return "disk";
    case SpanCat::kService:
      return "service";
    case SpanCat::kOther:
      return "other";
  }
  return "other";
}

int SpanCatPriority(SpanCat cat) {
  // Overlap resolution for critical-path attribution: the most specific
  // resource wins. Disk I/O subsumes the service window it completes in;
  // CPU beats the queueing that fed it; wire beats the catch-all service.
  switch (cat) {
    case SpanCat::kDisk:
      return 5;
    case SpanCat::kCpu:
      return 4;
    case SpanCat::kQueue:
      return 3;
    case SpanCat::kWire:
      return 2;
    case SpanCat::kService:
      return 1;
    case SpanCat::kOther:
      return 0;
  }
  return 0;
}

uint64_t Tracer::RecordSpan(uint32_t host, const TraceContext& ctx, SpanCat cat,
                            const char* name, SimTime start, SimTime end, bool root) {
  if (!params_.enabled || !ctx.valid()) {
    return 0;
  }
  Span span;
  span.trace_id = ctx.trace_id;
  span.span_id = root ? ctx.span_id : ++last_span_id_;
  span.parent_id = root ? 0 : ctx.span_id;
  span.start = start;
  span.end = end >= start ? end : start;
  span.host = host;
  span.cat = cat;
  span.root = root;
  span.set_name(name);
  auto it = rings_.find(host);
  if (it == rings_.end()) {
    it = rings_.try_emplace(host, params_.ring_capacity).first;
  }
  it->second.Push(span);
  ++recorded_;
  return span.span_id;
}

uint64_t Tracer::RecordInstant(uint32_t host, const TraceContext& ctx, const char* name,
                               SimTime at) {
  if (!params_.enabled || !ctx.valid()) {
    return 0;
  }
  Span span;
  span.trace_id = ctx.trace_id;
  span.span_id = ++last_span_id_;
  span.parent_id = ctx.span_id;
  span.start = at;
  span.end = at;
  span.host = host;
  span.cat = SpanCat::kOther;
  span.instant = true;
  span.set_name(name);
  auto it = rings_.find(host);
  if (it == rings_.end()) {
    it = rings_.try_emplace(host, params_.ring_capacity).first;
  }
  it->second.Push(span);
  ++recorded_;
  return span.span_id;
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> out;
  size_t total = 0;
  for (const auto& [host, ring] : rings_) {
    total += ring.size();
  }
  out.reserve(total);
  for (const auto& [host, ring] : rings_) {
    ring.CopyTo(out);
  }
  return out;
}

uint64_t Tracer::total_evicted() const {
  uint64_t total = 0;
  for (const auto& [host, ring] : rings_) {
    total += ring.overwritten();
  }
  return total;
}

}  // namespace slice::obs
