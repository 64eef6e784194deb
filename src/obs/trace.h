// End-to-end request tracing (observability subsystem).
//
// Every client-originated NFS request is assigned a trace id at the µproxy
// that intercepts it; the (trace id, root span id) pair rides along with the
// request across every hop — network links, RPC retransmissions, server
// dispatch, disk I/O, µproxy fan-outs — as a checksum-neutral packet trailer
// (see Packet::AttachTrace). Each host records completed spans into a
// bounded, preallocated ring buffer; the merged rings reduce to a
// chrome://tracing JSON view (obs/export.h) and a critical-path breakdown
// (obs/critical_path.h).
//
// Design constraints:
//  * Near-zero cost when disabled: every instrumentation site is guarded by
//    a single null/zero check, and the disabled paths allocate nothing.
//  * Deterministic: ids come from plain counters, rings are keyed by host
//    address in an ordered map, and no wall-clock or address-dependent state
//    leaks in — so the same seed yields a byte-identical trace.
#ifndef SLICE_OBS_TRACE_H_
#define SLICE_OBS_TRACE_H_

#include <cstdint>
#include <cstring>
#include <map>
#include <string_view>
#include <vector>

#include "src/obs/ring.h"
#include "src/sim/event_queue.h"

namespace slice::obs {

// Span context propagated with a request. trace_id == 0 means "untraced".
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;  // the span this hop is causally under (root span)

  bool valid() const { return trace_id != 0; }
  bool operator==(const TraceContext&) const = default;
};

// Latency category a span's wall time is attributed to by the critical-path
// analyzer. Order here is storage order, not priority; see SpanCatPriority.
enum class SpanCat : uint8_t {
  kWire = 0,     // NIC serialization + switch latency
  kQueue = 1,    // waiting for a busy resource (NIC, server CPU)
  kCpu = 2,      // µproxy or server CPU service
  kDisk = 3,     // disk positioning + transfer (queue wait included)
  kService = 4,  // server-side completion not otherwise classified
  kOther = 5,    // markers / root spans / unattributed time
};
constexpr size_t kNumSpanCats = 6;

const char* SpanCatName(SpanCat cat);
// Higher wins when intervals overlap: disk > cpu > queue > wire > service.
int SpanCatPriority(SpanCat cat);

// Fixed-capacity name so Span stays trivially copyable and recording a span
// never allocates (ring slots are preallocated up front).
constexpr size_t kSpanNameCap = 24;

struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  SimTime start = 0;
  SimTime end = 0;
  uint32_t host = 0;  // NetAddr of the recording host
  SpanCat cat = SpanCat::kOther;
  bool root = false;     // defines the end-to-end window of its trace
  bool instant = false;  // zero-duration marker (retransmit, drop, route)
  char name[kSpanNameCap] = {};

  void set_name(const char* n) {
    std::strncpy(name, n, kSpanNameCap - 1);
    name[kSpanNameCap - 1] = '\0';
  }
  std::string_view name_view() const { return std::string_view(name); }
};

// Bounded per-host span storage (oldest overwritten first).
using SpanRing = Ring<Span>;

struct TracerParams {
  bool enabled = true;
  size_t ring_capacity = 1 << 16;  // spans per host
};

class Tracer {
 public:
  explicit Tracer(TracerParams params = {}) : params_(params) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return params_.enabled; }

  // Deterministic id generators (ids are minted in event-execution order,
  // which the simulator keeps stable for a given seed).
  uint64_t NewTraceId() { return params_.enabled ? ++last_trace_id_ : 0; }
  uint64_t NewSpanId() { return params_.enabled ? ++last_span_id_ : 0; }

  // Records a completed span on `host`'s ring. No-op (and allocation-free)
  // when the tracer is disabled or `ctx` is untraced. Returns the span id.
  uint64_t RecordSpan(uint32_t host, const TraceContext& ctx, SpanCat cat, const char* name,
                      SimTime start, SimTime end, bool root = false);

  // Zero-duration marker (retransmission, drop, routing decision...).
  uint64_t RecordInstant(uint32_t host, const TraceContext& ctx, const char* name, SimTime at);

  // Implicit context: the request being serviced "right now". Components
  // that issue nested work synchronously (server handlers, µproxy fan-outs)
  // read this to inherit the caller's trace.
  const TraceContext& current() const { return current_; }
  void SetCurrent(const TraceContext& ctx) { current_ = ctx; }

  // Merged view of every ring: hosts in address order, oldest-first within
  // each host.
  std::vector<Span> Collect() const;

  uint64_t total_recorded() const { return recorded_; }
  uint64_t total_evicted() const;
  size_t num_rings() const { return rings_.size(); }
  const std::map<uint32_t, SpanRing>& rings() const { return rings_; }

  void Clear() {
    rings_.clear();
    recorded_ = 0;
  }

 private:
  TracerParams params_;
  uint64_t last_trace_id_ = 0;
  uint64_t last_span_id_ = 0;
  uint64_t recorded_ = 0;
  TraceContext current_;
  std::map<uint32_t, SpanRing> rings_;  // ordered => deterministic export
};

// RAII guard that installs `ctx` as the tracer's current context and
// restores the previous one on exit. Null-tracer safe (no-op).
class ScopedContext {
 public:
  ScopedContext(Tracer* tracer, const TraceContext& ctx) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      prev_ = tracer_->current();
      tracer_->SetCurrent(ctx);
    }
  }
  ~ScopedContext() {
    if (tracer_ != nullptr) {
      tracer_->SetCurrent(prev_);
    }
  }

  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  Tracer* tracer_;
  TraceContext prev_;
};

}  // namespace slice::obs

#endif  // SLICE_OBS_TRACE_H_
