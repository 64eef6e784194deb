// Outside-in wall-clock tracing for the benchmark's traced runs.
//
// Everything here hooks the simulator through public entry points only, and
// changes no source file of the simulator:
//   * EventQueue::SetDispatchHook brackets every event dispatch;
//   * a ServerTap on each dir, small-file, storage and coordinator host
//     turns inbound delivery (Network::DeliverLocal) into a span of the
//     host's layer and outbound transmission (Network::Inject) into a `net`
//     span;
//   * a CoreTap replaces each client's µproxy tap and forwards to it, so
//     every µproxy entry (HandleOutbound / HandleInbound /
//     HandleInboundBatch) is a `core` span.
// A span's self time is its duration minus its nested spans; its heap
// allocations come from the counting operator new in span_trace.cc.
//
// The server taps do move those hosts onto Network's tapped path: sends go
// through the tap and Network::Inject rather than straight to Transmit, and
// same-instant deliveries to one host are gathered into a batch
// (HandleInboundBatch) before any handler runs, where an untapped host gets
// them one at a time within the same dispatch. Simulated results are the
// same (the run's digest proves it); ServerTap counts the batched deliveries
// so the run can show they stay negligible.
#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/core/uproxy.h"
#include "src/net/network.h"
#include "src/sim/event_queue.h"

namespace perfbench {

// Heap allocations made through operator new since process start.
uint64_t AllocCount();

inline uint64_t WallNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

enum Layer : uint8_t { kCore, kDir, kSfs, kStorage, kCoord, kNet, kNumLayers };
const char* LayerName(Layer layer);

struct SpanRec {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t allocs = 0;  // operator new calls inside the span, nested spans included
  int32_t parent = -1;  // enclosing span; -1 = directly under an event dispatch
  uint32_t xid = 0;     // RPC xid of the (first) packet
  slice::Endpoint client;  // caller of that RPC: src of a call, dst of a reply
  Layer layer = kCore;
  bool in_dispatch = false;
};

// Per-run totals derived from the spans and the dispatch hook.
struct LayerTotals {
  std::array<uint64_t, kNumLayers> self_ns{};
  std::array<uint64_t, kNumLayers> self_allocs{};
  std::array<uint64_t, kNumLayers> calls{};
  uint64_t core_pkts = 0;
  uint64_t server_pkts = 0;          // delivered to a tapped server host
  uint64_t server_batched_pkts = 0;  // of those, in a same-instant batch of 2+
  uint64_t dispatches = 0;
  uint64_t depth_sum = 0;  // pending events summed over dispatches
  uint64_t dispatch_ns = 0;
  uint64_t other_ns = 0;  // dispatch time under no span
  uint64_t other_allocs = 0;
  uint64_t stray_spans = 0;  // spans opened outside any dispatch (must stay 0)
};

class SpanTrace {
 public:
  // Installs the dispatch hook; Stop() (or destruction) removes it.
  explicit SpanTrace(slice::EventQueue& queue);
  ~SpanTrace() { Stop(); }
  SpanTrace(const SpanTrace&) = delete;
  SpanTrace& operator=(const SpanTrace&) = delete;

  void Stop();

  int32_t Begin(Layer layer, const slice::Packet& pkt);
  void End(int32_t span);
  void CountCorePackets(size_t n) { core_pkts_ += n; }
  void CountServerPacket() { ++server_pkts_; }
  void CountBatchedServerPackets(size_t n) { server_batched_pkts_ += n; }

  LayerTotals Summarize() const;
  // One line per span: layer, start/end (ns from the first span), parent,
  // allocs, xid and client endpoint — enough to join every span of a request.
  bool WriteTsv(const char* path) const;

 private:
  // Fixed-size chunks: growing never moves recorded spans.
  static constexpr size_t kChunkBits = 16;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;

  SpanRec& At(size_t i) { return chunks_[i >> kChunkBits][i & (kChunkSize - 1)]; }
  const SpanRec& At(size_t i) const { return chunks_[i >> kChunkBits][i & (kChunkSize - 1)]; }
  static void Hook(void* ctx, bool begin);

  slice::EventQueue& queue_;
  std::vector<std::unique_ptr<SpanRec[]>> chunks_;
  size_t size_ = 0;
  int32_t open_ = -1;
  bool dispatching_ = false;
  uint64_t dispatch_start_ns_ = 0;
  uint64_t dispatch_start_allocs_ = 0;
  uint64_t dispatches_ = 0;
  uint64_t depth_sum_ = 0;
  uint64_t dispatch_ns_ = 0;
  uint64_t dispatch_allocs_ = 0;
  uint64_t core_pkts_ = 0;
  uint64_t server_pkts_ = 0;
  uint64_t server_batched_pkts_ = 0;
};

// Turns a server host's traffic into spans: inbound delivery is the host's
// layer, outbound transmission is `net`.
class ServerTap : public slice::PacketTap {
 public:
  ServerTap(slice::Network& net, SpanTrace& trace, slice::NetAddr addr, Layer layer);
  ~ServerTap() override;
  ServerTap(const ServerTap&) = delete;
  ServerTap& operator=(const ServerTap&) = delete;

  void HandleOutbound(slice::Packet&& pkt) override;
  void HandleInbound(slice::Packet&& pkt) override;
  // Counts the batch's packets when there are two or more, then delivers
  // them one at a time like the default.
  void HandleInboundBatch(std::span<slice::Packet> pkts) override;

 private:
  slice::Network& net_;
  SpanTrace& trace_;
  slice::NetAddr addr_;
  Layer layer_;
};

// Wraps a client's µproxy: every tap entry is a `core` span. Restores the
// µproxy as the host's tap on destruction.
class CoreTap : public slice::PacketTap {
 public:
  CoreTap(slice::Network& net, SpanTrace& trace, slice::NetAddr addr, slice::Uproxy& uproxy);
  ~CoreTap() override;
  CoreTap(const CoreTap&) = delete;
  CoreTap& operator=(const CoreTap&) = delete;

  void HandleOutbound(slice::Packet&& pkt) override;
  void HandleInbound(slice::Packet&& pkt) override;
  void HandleInboundBatch(std::span<slice::Packet> pkts) override;

 private:
  slice::Network& net_;
  SpanTrace& trace_;
  slice::NetAddr addr_;
  slice::Uproxy& uproxy_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
