// Simulated switched LAN. Hosts attach at addresses; each host has NIC
// transmit/receive serialization at the link rate, packets cross the switch
// with a fixed store-and-forward latency, and optional loss injection models
// drops (which end-to-end RPC retransmission must mask, paper §2.1).
//
// A PacketTap can be interposed on a host's network path — this is where the
// Slice µproxy lives. The tap sees every outbound packet before the network
// and every inbound packet before the host, and may forward, rewrite, absorb,
// or originate packets, mirroring the paper's "request switching filter
// interposed along each client's network path".
#ifndef SLICE_NET_NETWORK_H_
#define SLICE_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/net/packet.h"
#include "src/obs/eventlog.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/sinks.h"
#include "src/obs/trace.h"
#include "src/sim/event_queue.h"

namespace slice {

struct NetworkParams {
  double link_gbit_per_s = 1.0;   // per-host NIC rate
  double switch_latency_us = 30;  // store-and-forward hop
  double loss_rate = 0.0;         // independent per-packet drop probability
  uint64_t loss_seed = 42;
};

// Directional (src→dst) fault shaping on one link, installed by the chaos
// engine (src/chaos). A shaped link can be blocked outright (partition),
// lose packets i.i.d. or in Gilbert-Elliott bursts, and/or add latency
// (gray link). Directionality is the point: an asymmetric partition blocks
// src→dst while dst→src still flows, which is the case that confuses
// heartbeat-based failure detectors the most.
struct LinkShape {
  bool blocked = false;       // full partition: every packet dropped
  double loss = 0.0;          // i.i.d. drop probability
  double burst_loss = 0.0;    // drop probability while in the bad burst state
  double p_enter = 0.0;       // per-packet good→bad transition probability
  double p_exit = 1.0;        // per-packet bad→good transition probability
  SimTime extra_latency = 0;  // added on top of the switch hop
  bool bad = false;           // current Gilbert-Elliott state (engine-owned)
};

// Interposition point on one host's network path.
class PacketTap {
 public:
  virtual ~PacketTap() = default;

  // Called for packets the host is sending. Implementations call
  // Network::Inject to place (possibly rewritten) packets on the wire.
  virtual void HandleOutbound(Packet&& pkt) = 0;
  // Called for packets arriving for the host. Implementations call
  // Network::DeliverLocal to pass packets up to the host.
  virtual void HandleInbound(Packet&& pkt) = 0;
  // The network never calls this: it delivers every packet on its own
  // through HandleInbound. The default per-packet loop remains for taps
  // that still override it or forward to it.
  virtual void HandleInboundBatch(std::span<Packet> pkts) {
    for (Packet& p : pkts) {
      HandleInbound(std::move(p));
    }
  }
};

class Network {
 public:
  using Handler = std::function<void(Packet&&)>;

  // Observability (`sinks`, all four pillars): packets carrying a trace
  // trailer get per-hop wire/queue spans and drop markers; every dropped
  // packet is logged with its trace id; each attached host gets NIC
  // instruments (packet/byte counters on the hot path, busy-time and backlog
  // providers) and, when profiling, a cached ledger pointer charged at the
  // NIC serialization points (one branch + one add per charge) plus its
  // ledger categories as metrics counters.
  Network(EventQueue& queue, NetworkParams params, const obs::Sinks& sinks = {});

  // Attaches a host. `handler` receives packets addressed to `addr`.
  void Attach(NetAddr addr, Handler handler);
  void Detach(NetAddr addr);
  bool IsAttached(NetAddr addr) const { return hosts_.contains(addr); }

  // Installs/removes a tap on a host's path. At most one tap per host.
  void InstallTap(NetAddr addr, PacketTap* tap);
  void RemoveTap(NetAddr addr);

  // Host send path: applies the outbound tap (if any), then puts the packet
  // on the wire.
  void Send(Packet&& pkt);

  // Tap API: places a packet on the wire bypassing the sender-side tap.
  void Inject(Packet&& pkt);
  // Tap API: delivers a packet up to the local host, bypassing the inbound
  // tap. Used by taps to hand accepted packets to their host.
  void DeliverLocal(NetAddr addr, Packet&& pkt);

  // Deferred tap API (allocation-free): the packet waits in the flight table
  // until `ready` (e.g. the µproxy's CPU-done time) and then enters the wire
  // / the local host, replacing the make_shared<Packet>+closure idiom. A
  // `guard` that reads false at dispatch drops the packet silently — the
  // originating tap died in the meantime.
  void InjectAt(Packet&& pkt, SimTime ready, std::shared_ptr<const bool> guard = nullptr);
  void DeliverLocalAt(NetAddr addr, Packet&& pkt, SimTime ready,
                      std::shared_ptr<const bool> guard = nullptr);
  // Deferred host send (allocation-free): at `ready` the packet enters the
  // normal Send path — outbound tap first, then the wire. This is the RPC
  // server's deferred reply: the encoded reply moves into a pooled packet
  // buffer immediately and waits in the flight table until its service-done
  // instant.
  void SendAt(Packet&& pkt, SimTime ready, std::shared_ptr<const bool> guard = nullptr);

  // Marks a host failed: its packets are dropped silently until revived.
  // Models server crashes for failover experiments.
  void SetHostFailed(NetAddr addr, bool failed);
  bool IsHostFailed(NetAddr addr) const { return failed_.contains(addr); }

  void set_loss_rate(double rate) { params_.loss_rate = rate; }

  // Chaos shaping (src/chaos): installs/clears a directional src→dst fault
  // shape. Shaped drops are logged as kPacketDrop with detail "partition"
  // or "chaos_loss" and consume a dedicated RNG stream, so enabling chaos
  // never perturbs the base loss model's draw sequence.
  void SetLinkShape(NetAddr src, NetAddr dst, const LinkShape& shape);
  void ClearLinkShape(NetAddr src, NetAddr dst);
  void ClearAllLinkShapes() { link_shapes_.clear(); }
  size_t num_shaped_links() const { return link_shapes_.size(); }

  // Gray NIC: every packet to or from `addr` pays `delay` extra wire
  // latency (slow-but-alive NIC). delay == 0 clears.
  void SetHostExtraDelay(NetAddr addr, SimTime delay);

  EventQueue& queue() { return queue_; }
  uint64_t packets_sent() const { return packets_sent_; }
  uint64_t packets_dropped() const { return packets_dropped_; }
  uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  struct Host {
    Handler handler;
    PacketTap* tap = nullptr;
    BusyResource tx;
    BusyResource rx;
    // Registry-owned instruments (stable heap slots); null when metrics are
    // off, so the hot path pays one branch and nothing else.
    obs::Counter* m_pkts_tx = nullptr;
    obs::Counter* m_bytes_tx = nullptr;
    obs::Counter* m_pkts_rx = nullptr;
    obs::Counter* m_pkts_dropped = nullptr;
    // Cached profiler ledger (null when profiling is off).
    uint64_t* prof_ledger = nullptr;
  };

  // An in-flight packet and the stage it runs next. Flights live in a slot
  // table; each stage is one ordinary event-queue event at the flight's due
  // time whose closure carries only {this, slot}, so the queue alone orders
  // them and scheduling allocates nothing.
  enum class FlightStage : uint8_t {
    kArrive,   // switch hop done; acquire receiver NIC
    kDeliver,  // receiver serialization done; hand to tap/handler
    kInject,   // tap-deferred wire entry (InjectAt)
    kLocal,    // tap-deferred local delivery (DeliverLocalAt)
    kSend,     // deferred host send (SendAt): outbound tap, then the wire
  };
  struct Flight {
    SimTime due = 0;
    FlightStage stage = FlightStage::kArrive;
    SimTime wire = 0;        // serialization time, reused for the rx side
    NetAddr local_addr = 0;  // kLocal destination
    obs::TraceContext ctx;
    std::shared_ptr<const bool> guard;  // kInject/kLocal/kSend liveness
    Packet pkt;
    uint32_t next_free = 0;  // while the slot is free: the next free slot
  };
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  // Parks the flight in a free slot and schedules its stage at `f.due`.
  void PushFlight(Flight&& f);
  // Runs the stage of the flight parked in `slot` and frees the slot.
  void RunFlight(uint32_t slot);

  void Transmit(Packet&& pkt);
  void RegisterHostMetrics(NetAddr addr, Host& host);

  static uint64_t LinkKey(NetAddr src, NetAddr dst) {
    return (static_cast<uint64_t>(src) << 32) | dst;
  }
  // Returns the drop reason ("partition"/"chaos_loss") for this packet, or
  // nullptr to let it pass; accumulates chaos latency into `extra`.
  const char* ApplyChaosShaping(NetAddr src, NetAddr dst, SimTime* extra);

  EventQueue& queue_;
  NetworkParams params_;
  obs::Tracer* tracer_ = nullptr;
  obs::Metrics* metrics_ = nullptr;
  obs::EventLog* eventlog_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  double ns_per_byte_;
  std::unordered_map<NetAddr, Host> hosts_;
  std::unordered_map<NetAddr, bool> failed_;
  std::unordered_map<uint64_t, LinkShape> link_shapes_;  // LinkKey(src,dst)
  std::unordered_map<NetAddr, SimTime> host_extra_delay_;
  // Slot table. Free slots form a list threaded through next_free, so the
  // table's own growth is the only allocation it makes.
  std::vector<Flight> flights_;
  uint32_t free_head_ = kNoSlot;
  Rng loss_rng_;
  Rng chaos_rng_;
  uint64_t packets_sent_ = 0;
  uint64_t packets_dropped_ = 0;
  uint64_t bytes_sent_ = 0;
};

}  // namespace slice

#endif  // SLICE_NET_NETWORK_H_
