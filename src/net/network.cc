#include "src/net/network.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "src/common/logging.h"

namespace slice {

Network::Network(EventQueue& queue, NetworkParams params, const obs::Sinks& sinks)
    : queue_(queue),
      params_(params),
      tracer_(sinks.tracer),
      metrics_(sinks.metrics),
      eventlog_(sinks.eventlog),
      profiler_(sinks.profiler),
      ns_per_byte_(8.0 / params.link_gbit_per_s),
      loss_rng_(params.loss_seed),
      // Dedicated stream: chaos draws must not advance the base loss model's
      // sequence (same seed with chaos off stays byte-identical).
      chaos_rng_(params.loss_seed ^ 0x9e3779b97f4a7c15ULL) {
  if (profiler_ != nullptr) {
    // Coverage reference: every host's NIC busy time (tx+rx).
    profiler_->AddBusyProvider([this](std::map<uint32_t, uint64_t>* out) {
      for (const auto& [addr, host] : hosts_) {
        (*out)[addr] += static_cast<uint64_t>(host.tx.total_busy_time()) +
                        static_cast<uint64_t>(host.rx.total_busy_time());
      }
    });
  }
}

void Network::SetLinkShape(NetAddr src, NetAddr dst, const LinkShape& shape) {
  link_shapes_[LinkKey(src, dst)] = shape;
}

void Network::ClearLinkShape(NetAddr src, NetAddr dst) {
  link_shapes_.erase(LinkKey(src, dst));
}

void Network::SetHostExtraDelay(NetAddr addr, SimTime delay) {
  if (delay == 0) {
    host_extra_delay_.erase(addr);
  } else {
    host_extra_delay_[addr] = delay;
  }
}

const char* Network::ApplyChaosShaping(NetAddr src, NetAddr dst, SimTime* extra) {
  if (!host_extra_delay_.empty()) {
    if (auto it = host_extra_delay_.find(src); it != host_extra_delay_.end()) {
      *extra += it->second;
    }
    if (auto it = host_extra_delay_.find(dst); it != host_extra_delay_.end()) {
      *extra += it->second;
    }
  }
  if (link_shapes_.empty()) {
    return nullptr;
  }
  auto it = link_shapes_.find(LinkKey(src, dst));
  if (it == link_shapes_.end()) {
    return nullptr;
  }
  LinkShape& shape = it->second;
  if (shape.blocked) {
    return "partition";
  }
  if (shape.p_enter > 0) {  // advance the Gilbert-Elliott state per packet
    if (shape.bad) {
      if (chaos_rng_.NextBool(shape.p_exit)) {
        shape.bad = false;
      }
    } else if (chaos_rng_.NextBool(shape.p_enter)) {
      shape.bad = true;
    }
  }
  const double p = shape.loss + (shape.bad ? shape.burst_loss : 0.0);
  if (p > 0 && chaos_rng_.NextBool(p < 1.0 ? p : 1.0)) {
    return "chaos_loss";
  }
  *extra += shape.extra_latency;
  return nullptr;
}

void Network::Attach(NetAddr addr, Handler handler) {
  SLICE_CHECK(!hosts_.contains(addr));
  Host& host = hosts_[addr];
  host.handler = std::move(handler);
  host.prof_ledger = profiler_ != nullptr ? profiler_->LedgerFor(addr) : nullptr;
  RegisterHostMetrics(addr, host);
}

void Network::RegisterHostMetrics(NetAddr addr, Host& host) {
  if (metrics_ == nullptr || !metrics_->enabled()) {
    return;
  }
  obs::MetricsRegistry& reg = metrics_->Registry(addr);
  host.m_pkts_tx = reg.GetCounter("net_pkts_tx");
  host.m_bytes_tx = reg.GetCounter("net_bytes_tx");
  host.m_pkts_rx = reg.GetCounter("net_pkts_rx");
  host.m_pkts_dropped = reg.GetCounter("net_pkts_dropped");
  // NIC serialization time and backlog come straight from the BusyResources.
  // Providers re-find the host by address each poll — the unordered_map may
  // rehash as hosts attach, so captured element pointers would dangle. A
  // detached host simply reads 0 from then on.
  reg.GetCounter("net_nic_tx_busy_ns")->SetProvider([this, addr]() -> uint64_t {
    const auto host_it = hosts_.find(addr);
    return host_it == hosts_.end()
               ? 0
               : static_cast<uint64_t>(host_it->second.tx.total_busy_time());
  });
  reg.GetCounter("net_nic_rx_busy_ns")->SetProvider([this, addr]() -> uint64_t {
    const auto host_it = hosts_.find(addr);
    return host_it == hosts_.end()
               ? 0
               : static_cast<uint64_t>(host_it->second.rx.total_busy_time());
  });
  reg.GetGauge("net_nic_tx_backlog_ns")->SetProvider([this, addr]() -> int64_t {
    const auto host_it = hosts_.find(addr);
    if (host_it == hosts_.end()) {
      return 0;
    }
    const auto backlog = static_cast<int64_t>(host_it->second.tx.busy_until()) -
                         static_cast<int64_t>(queue_.now());
    return backlog > 0 ? backlog : 0;
  });
  if (uint64_t* ledger = host.prof_ledger) {
    // The host's utilization ledger as provider-backed counters, so the
    // scraper samples it into the same time series as every other
    // instrument.
    static constexpr const char* kNames[obs::kNumLedgerCats] = {
        "profile_cpu_ns", "profile_queue_ns", "profile_disk_ns", "profile_wire_ns"};
    for (size_t cat = 0; cat < obs::kNumLedgerCats; ++cat) {
      reg.GetCounter(kNames[cat])->SetProvider([ledger, cat] { return ledger[cat]; });
    }
  }
}

void Network::Detach(NetAddr addr) { hosts_.erase(addr); }

void Network::InstallTap(NetAddr addr, PacketTap* tap) {
  auto it = hosts_.find(addr);
  SLICE_CHECK(it != hosts_.end());
  SLICE_CHECK(it->second.tap == nullptr);
  it->second.tap = tap;
}

void Network::RemoveTap(NetAddr addr) {
  auto it = hosts_.find(addr);
  if (it != hosts_.end()) {
    it->second.tap = nullptr;
  }
}

void Network::SetHostFailed(NetAddr addr, bool failed) {
  if (failed) {
    failed_[addr] = true;
  } else {
    failed_.erase(addr);
  }
}

void Network::Send(Packet&& pkt) {
  auto it = hosts_.find(pkt.src_addr());
  if (it != hosts_.end() && it->second.tap != nullptr) {
    it->second.tap->HandleOutbound(std::move(pkt));
    return;
  }
  Transmit(std::move(pkt));
}

void Network::Inject(Packet&& pkt) { Transmit(std::move(pkt)); }

void Network::Transmit(Packet&& pkt) {
  // Span context, if the packet carries one and an observer wants it.
  obs::TraceContext ctx;
  if (tracer_ != nullptr || eventlog_ != nullptr) {
    pkt.PeekTrace(&ctx.trace_id, &ctx.span_id);
  }

  if (failed_.contains(pkt.src_addr())) {
    ++packets_dropped_;
    if (tracer_ != nullptr) {
      tracer_->RecordInstant(pkt.src_addr(), ctx, "drop:src_dead", queue_.now());
    }
    obs::LogEvent(eventlog_, pkt.src_addr(), queue_.now(), obs::EventSev::kWarn,
                  obs::EventCat::kNet, obs::EventCode::kPacketDrop, ctx.trace_id, "src_dead",
                  {{"dst", pkt.dst_addr()}, {"bytes", static_cast<int64_t>(pkt.size())}});
    return;
  }
  auto src_it = hosts_.find(pkt.src_addr());
  if (src_it == hosts_.end()) {
    ++packets_dropped_;
    return;
  }

  ++packets_sent_;
  bytes_sent_ += pkt.size();
  obs::Inc(src_it->second.m_pkts_tx);
  obs::Inc(src_it->second.m_bytes_tx, pkt.size());

  if (params_.loss_rate > 0 && loss_rng_.NextBool(params_.loss_rate)) {
    ++packets_dropped_;
    obs::Inc(src_it->second.m_pkts_dropped);
    if (tracer_ != nullptr) {
      tracer_->RecordInstant(pkt.src_addr(), ctx, "drop:loss", queue_.now());
    }
    obs::LogEvent(eventlog_, pkt.src_addr(), queue_.now(), obs::EventSev::kWarn,
                  obs::EventCat::kNet, obs::EventCode::kPacketDrop, ctx.trace_id, "loss",
                  {{"dst", pkt.dst_addr()}, {"bytes", static_cast<int64_t>(pkt.size())}});
    SLICE_DLOG << "net: dropping packet " << EndpointToString(pkt.src()) << " -> "
               << EndpointToString(pkt.dst());
    return;
  }

  // Chaos shaping (partitions, shaped loss, gray links) sits after the base
  // loss model and draws from its own RNG stream.
  SimTime chaos_latency = 0;
  if (const char* why = ApplyChaosShaping(pkt.src_addr(), pkt.dst_addr(), &chaos_latency);
      why != nullptr) {
    ++packets_dropped_;
    obs::Inc(src_it->second.m_pkts_dropped);
    if (tracer_ != nullptr) {
      tracer_->RecordInstant(pkt.src_addr(), ctx,
                             std::strcmp(why, "partition") == 0 ? "drop:partition"
                                                                : "drop:chaos_loss",
                             queue_.now());
    }
    obs::LogEvent(eventlog_, pkt.src_addr(), queue_.now(), obs::EventSev::kWarn,
                  obs::EventCat::kNet, obs::EventCode::kPacketDrop, ctx.trace_id, why,
                  {{"dst", pkt.dst_addr()}, {"bytes", static_cast<int64_t>(pkt.size())}});
    return;
  }

  const SimTime wire = static_cast<SimTime>(static_cast<double>(pkt.size()) * ns_per_byte_);
  const SimTime tx_start = std::max(src_it->second.tx.busy_until(), queue_.now());
  const SimTime tx_done = src_it->second.tx.Acquire(queue_.now(), wire);
  obs::ChargeSim(src_it->second.prof_ledger, obs::LedgerCat::kQueue, tx_start - queue_.now());
  obs::ChargeSim(src_it->second.prof_ledger, obs::LedgerCat::kWire, wire);
  const SimTime arrival = tx_done + FromMicros(params_.switch_latency_us) + chaos_latency;
  if (tracer_ != nullptr && ctx.valid()) {
    const NetAddr src = pkt.src_addr();
    if (tx_start > queue_.now()) {
      tracer_->RecordSpan(src, ctx, obs::SpanCat::kQueue, "nic_tx_wait", queue_.now(),
                          tx_start);
    }
    // Transmit serialization plus the store-and-forward switch hop.
    tracer_->RecordSpan(src, ctx, obs::SpanCat::kWire, "wire_tx", tx_start, arrival);
  }

  // Receiver-side serialization is applied at arrival time; until then the
  // packet waits in the flight table.
  Flight& f = PushFlight(FlightStage::kArrive, arrival, std::move(pkt));
  f.wire = wire;
  f.ctx = ctx;
}

Network::Flight& Network::PushFlight(FlightStage stage, SimTime due, Packet&& pkt,
                                     EventQueue::OwnerId owner) {
  if (due < queue_.now()) {
    due = queue_.now();  // the queue clamps the same way; RunFlight checks it
  }
  uint32_t slot = free_head_;
  Flight* f;
  if (slot == kNoSlot) {
    slot = static_cast<uint32_t>(flights_.size());
    f = &flights_.emplace_back(stage, due, owner, std::move(pkt));
  } else {
    f = &flights_[slot];
    free_head_ = f->next_free;
    std::destroy_at(f);
    std::construct_at(f, stage, due, owner, std::move(pkt));
  }
  queue_.ScheduleAt(due, [this, slot] { RunFlight(slot); });
  return *f;
}

void Network::RunFlight(uint32_t slot) {
  Flight& parked = flights_[slot];
  SLICE_CHECK(parked.due == queue_.now());
  // Arrival (never owned: only Transmit makes it) hands the packet to no
  // one, so the flight waits in its slot again, for its receive
  // serialization.
  if (parked.stage == FlightStage::kArrive && Arrive(parked)) {
    queue_.ScheduleAt(parked.due, [this, slot] { RunFlight(slot); });
    return;
  }
  // Move out first: the stage below may push flights, which can grow the
  // table and reuse this slot.
  Flight f = std::move(parked);
  parked.next_free = free_head_;
  free_head_ = slot;
  if (!queue_.live(f.owner)) {
    return;  // whoever deferred this flight died before it came due
  }

  switch (f.stage) {
    case FlightStage::kArrive:
      return;  // Arrive dropped it
    case FlightStage::kDeliver: {
      const NetAddr addr = f.pkt.dst_addr();
      auto host_it = hosts_.find(addr);
      if (host_it == hosts_.end() || failed_.contains(addr)) {
        ++packets_dropped_;
        if (tracer_ != nullptr) {
          tracer_->RecordInstant(addr, f.ctx, "drop:dst_dead", queue_.now());
        }
        obs::LogEvent(eventlog_, addr, queue_.now(), obs::EventSev::kWarn, obs::EventCat::kNet,
                      obs::EventCode::kPacketDrop, f.ctx.trace_id, "dst_dead",
                      {{"src", f.pkt.src_addr()}, {"bytes", static_cast<int64_t>(f.pkt.size())}});
        return;
      }
      obs::Inc(host_it->second.m_pkts_rx);
      if (host_it->second.tap != nullptr) {
        host_it->second.tap->HandleInbound(std::move(f.pkt));
      } else {
        host_it->second.handler(std::move(f.pkt));
      }
      return;
    }
    case FlightStage::kInject:
      Transmit(std::move(f.pkt));
      return;
    case FlightStage::kLocal:
      DeliverLocal(f.local_addr, std::move(f.pkt));
      return;
    case FlightStage::kSend:
      Send(std::move(f.pkt));
      return;
  }
}

bool Network::Arrive(Flight& f) {
  const NetAddr dst = f.pkt.dst_addr();
  if (failed_.contains(dst)) {
    ++packets_dropped_;
    if (tracer_ != nullptr) {
      tracer_->RecordInstant(dst, f.ctx, "drop:dst_dead", queue_.now());
    }
    obs::LogEvent(eventlog_, dst, queue_.now(), obs::EventSev::kWarn, obs::EventCat::kNet,
                  obs::EventCode::kPacketDrop, f.ctx.trace_id, "dst_dead",
                  {{"src", f.pkt.src_addr()}, {"bytes", static_cast<int64_t>(f.pkt.size())}});
    return false;
  }
  auto it = hosts_.find(dst);
  if (it == hosts_.end()) {
    ++packets_dropped_;
    return false;
  }
  const SimTime rx_start = std::max(it->second.rx.busy_until(), queue_.now());
  const SimTime rx_done = it->second.rx.Acquire(queue_.now(), f.wire);
  obs::ChargeSim(it->second.prof_ledger, obs::LedgerCat::kQueue, rx_start - queue_.now());
  obs::ChargeSim(it->second.prof_ledger, obs::LedgerCat::kWire, f.wire);
  if (tracer_ != nullptr && f.ctx.valid()) {
    if (rx_start > queue_.now()) {
      tracer_->RecordSpan(dst, f.ctx, obs::SpanCat::kQueue, "nic_rx_wait", queue_.now(),
                          rx_start);
    }
    tracer_->RecordSpan(dst, f.ctx, obs::SpanCat::kWire, "wire_rx", rx_start, rx_done);
  }
  f.due = rx_done;
  f.stage = FlightStage::kDeliver;
  return true;
}

void Network::InjectAt(Packet&& pkt, SimTime ready, EventQueue::OwnerId owner) {
  PushFlight(FlightStage::kInject, ready, std::move(pkt), owner);
}

void Network::SendAt(Packet&& pkt, SimTime ready, EventQueue::OwnerId owner) {
  PushFlight(FlightStage::kSend, ready, std::move(pkt), owner);
}

void Network::DeliverLocalAt(NetAddr addr, Packet&& pkt, SimTime ready,
                             EventQueue::OwnerId owner) {
  PushFlight(FlightStage::kLocal, ready, std::move(pkt), owner).local_addr = addr;
}

void Network::DeliverLocal(NetAddr addr, Packet&& pkt) {
  auto it = hosts_.find(addr);
  if (it == hosts_.end()) {
    ++packets_dropped_;
    return;
  }
  it->second.handler(std::move(pkt));
}

}  // namespace slice
