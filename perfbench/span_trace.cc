#include "perfbench/span_trace.h"

#include <cstdio>
#include <cstdlib>
#include <new>

#include "src/common/bytes.h"

// Counting global operator new: the source of every allocation figure the
// benchmark reports. The simulator is single-threaded, so a plain counter is
// exact.
static uint64_t g_allocs = 0;

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

uint64_t AllocCount() { return g_allocs; }

const char* LayerName(Layer layer) {
  static constexpr const char* kNames[kNumLayers] = {"core", "dir",   "sfs",
                                                     "storage", "coord", "net"};
  return kNames[layer];
}

SpanTrace::SpanTrace(slice::EventQueue& queue) : queue_(queue) {
  queue_.SetDispatchHook(&SpanTrace::Hook, this);
}

void SpanTrace::Stop() { queue_.SetDispatchHook(nullptr, nullptr); }

void SpanTrace::Hook(void* ctx, bool begin) {
  auto* self = static_cast<SpanTrace*>(ctx);
  if (begin) {
    self->dispatching_ = true;
    ++self->dispatches_;
    self->depth_sum_ += self->queue_.pending();
    self->dispatch_start_allocs_ = g_allocs;
    self->dispatch_start_ns_ = WallNs();
  } else {
    self->dispatch_ns_ += WallNs() - self->dispatch_start_ns_;
    self->dispatch_allocs_ += g_allocs - self->dispatch_start_allocs_;
    self->dispatching_ = false;
  }
}

int32_t SpanTrace::Begin(Layer layer, const slice::Packet& pkt) {
  if (size_ == chunks_.size() * kChunkSize) {
    // The tracer's own storage must not show up in any layer's allocations.
    const uint64_t before = g_allocs;
    chunks_.push_back(std::make_unique<SpanRec[]>(kChunkSize));
    g_allocs = before;
  }
  const auto idx = static_cast<int32_t>(size_++);
  SpanRec& s = At(static_cast<size_t>(idx));
  s.layer = layer;
  s.parent = open_;
  s.in_dispatch = dispatching_;
  const slice::ByteSpan payload = pkt.payload();
  if (payload.size() >= 8) {
    s.xid = slice::GetU32(payload.data());
    const bool reply = slice::GetU32(payload.data() + 4) == 1;
    s.client = reply ? pkt.dst() : pkt.src();
  } else {
    s.xid = 0;
    s.client = slice::Endpoint{};
  }
  open_ = idx;
  s.allocs = g_allocs;
  s.start_ns = WallNs();
  return idx;
}

void SpanTrace::End(int32_t span) {
  const uint64_t end = WallNs();
  SpanRec& s = At(static_cast<size_t>(span));
  s.end_ns = end;
  s.allocs = g_allocs - s.allocs;
  open_ = s.parent;
}

LayerTotals SpanTrace::Summarize() const {
  LayerTotals t;
  t.core_pkts = core_pkts_;
  t.server_pkts = server_pkts_;
  t.server_batched_pkts = server_batched_pkts_;
  t.dispatches = dispatches_;
  t.depth_sum = depth_sum_;
  t.dispatch_ns = dispatch_ns_;
  std::vector<uint64_t> child_ns(size_, 0);
  std::vector<uint64_t> child_allocs(size_, 0);
  uint64_t top_ns = 0;
  uint64_t top_allocs = 0;
  for (size_t i = 0; i < size_; ++i) {
    const SpanRec& s = At(i);
    const uint64_t dur = s.end_ns - s.start_ns;
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += dur;
      child_allocs[static_cast<size_t>(s.parent)] += s.allocs;
    } else if (s.in_dispatch) {
      top_ns += dur;
      top_allocs += s.allocs;
    } else {
      ++t.stray_spans;
    }
  }
  for (size_t i = 0; i < size_; ++i) {
    const SpanRec& s = At(i);
    t.self_ns[s.layer] += s.end_ns - s.start_ns - child_ns[i];
    t.self_allocs[s.layer] += s.allocs - child_allocs[i];
    ++t.calls[s.layer];
  }
  t.other_ns = dispatch_ns_ > top_ns ? dispatch_ns_ - top_ns : 0;
  t.other_allocs = dispatch_allocs_ > top_allocs ? dispatch_allocs_ - top_allocs : 0;
  return t;
}

bool SpanTrace::WriteTsv(const char* path) const {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    return false;
  }
  const uint64_t origin = size_ > 0 ? At(0).start_ns : 0;
  std::fprintf(f, "#span\tlayer\tstart_ns\tend_ns\tparent\tallocs\txid\tclient\n");
  for (size_t i = 0; i < size_; ++i) {
    const SpanRec& s = At(i);
    std::fprintf(f, "%zu\t%s\t%llu\t%llu\t%d\t%llu\t%u\t%s\n", i, LayerName(s.layer),
                 static_cast<unsigned long long>(s.start_ns - origin),
                 static_cast<unsigned long long>(s.end_ns - origin), s.parent,
                 static_cast<unsigned long long>(s.allocs), s.xid,
                 slice::EndpointToString(s.client).c_str());
  }
  return std::fclose(f) == 0;
}

ServerTap::ServerTap(slice::Network& net, SpanTrace& trace, slice::NetAddr addr, Layer layer)
    : net_(net), trace_(trace), addr_(addr), layer_(layer) {
  net_.InstallTap(addr_, this);
}

ServerTap::~ServerTap() { net_.RemoveTap(addr_); }

void ServerTap::HandleOutbound(slice::Packet&& pkt) {
  const int32_t span = trace_.Begin(kNet, pkt);
  net_.Inject(std::move(pkt));
  trace_.End(span);
}

void ServerTap::HandleInbound(slice::Packet&& pkt) {
  trace_.CountServerPacket();
  const int32_t span = trace_.Begin(layer_, pkt);
  net_.DeliverLocal(addr_, std::move(pkt));
  trace_.End(span);
}

void ServerTap::HandleInboundBatch(std::span<slice::Packet> pkts) {
  if (pkts.size() > 1) {
    trace_.CountBatchedServerPackets(pkts.size());
  }
  for (slice::Packet& pkt : pkts) {
    HandleInbound(std::move(pkt));
  }
}

CoreTap::CoreTap(slice::Network& net, SpanTrace& trace, slice::NetAddr addr,
                 slice::Uproxy& uproxy)
    : net_(net), trace_(trace), addr_(addr), uproxy_(uproxy) {
  net_.RemoveTap(addr_);
  net_.InstallTap(addr_, this);
}

CoreTap::~CoreTap() {
  net_.RemoveTap(addr_);
  net_.InstallTap(addr_, &uproxy_);
}

void CoreTap::HandleOutbound(slice::Packet&& pkt) {
  trace_.CountCorePackets(1);
  const int32_t span = trace_.Begin(kCore, pkt);
  uproxy_.HandleOutbound(std::move(pkt));
  trace_.End(span);
}

void CoreTap::HandleInbound(slice::Packet&& pkt) {
  trace_.CountCorePackets(1);
  const int32_t span = trace_.Begin(kCore, pkt);
  uproxy_.HandleInbound(std::move(pkt));
  trace_.End(span);
}

void CoreTap::HandleInboundBatch(std::span<slice::Packet> pkts) {
  trace_.CountCorePackets(pkts.size());
  const int32_t span = trace_.Begin(kCore, pkts.front());
  uproxy_.HandleInboundBatch(pkts);
  trace_.End(span);
}

}  // namespace perfbench
