#include "src/mgmt/manager.h"

#include <algorithm>
#include <cstdio>

#include "src/common/logging.h"
#include "src/core/routing_table.h"
#include "src/net/network.h"

namespace slice {
namespace {

const char* NodeClassName(NodeClass cls) {
  switch (cls) {
    case NodeClass::kStorage:
      return "storage";
    case NodeClass::kDir:
      return "dir";
    case NodeClass::kSfs:
      return "sfs";
    case NodeClass::kCoord:
      return "coord";
    case NodeClass::kClient:
      return "client";
  }
  return "?";
}

}  // namespace

EnsembleManager::EnsembleManager(Network& net, EventQueue& queue, NetAddr addr,
                                 ClusterView view, MgmtParams params, const obs::Sinks& sinks)
    : RpcServerNode(net, queue, addr, kMgmtPort, kMgmtProgram, kMgmtVersion, {}, sinks),
      view_(std::move(view)),
      params_(params),
      detector_(FailureDetectorParams{params.failure_timeout}),
      owner_(queue) {
  if (metrics() == nullptr || !metrics()->enabled()) {
    return;
  }
  obs::MetricsRegistry& reg = metrics()->Registry(addr);
  reg.GetCounter("mgmt_heartbeats_rx")->SetProvider([this]() { return heartbeats_received_; });
  reg.GetCounter("mgmt_reconfigurations")->SetProvider([this]() { return reconfigurations_; });
  reg.GetCounter("mgmt_rebalances")->SetProvider([this]() { return rebalances_; });
  reg.GetGauge("mgmt_epoch")->SetProvider(
      [this]() { return static_cast<int64_t>(tables_.epoch); });
  reg.GetGauge("mgmt_nodes_dead")->SetProvider(
      [this]() { return static_cast<int64_t>(detector_.dead_count()); });
  // Suspicion ahead of the timeout: alive nodes silent for two heartbeat
  // intervals or more (the heartbeat_miss watchdog's input).
  reg.GetGauge("mgmt_silent_nodes")->SetProvider([this]() {
    return static_cast<int64_t>(
        detector_.SilentCount(now(), 2 * params_.heartbeat_interval));
  });
}

void EnsembleManager::Start() {
  SLICE_CHECK(!started_);
  started_ = true;
  const SimTime t = now();
  for (uint32_t i = 0; i < view_.storage_nodes.size(); ++i) {
    detector_.Register(NodeId(NodeClass::kStorage, i), t);
  }
  for (uint32_t i = 0; i < view_.dir_servers.size(); ++i) {
    detector_.Register(NodeId(NodeClass::kDir, i), t);
  }
  for (uint32_t i = 0; i < view_.small_file_servers.size(); ++i) {
    detector_.Register(NodeId(NodeClass::kSfs, i), t);
  }
  for (uint32_t i = 0; i < view_.coordinators.size(); ++i) {
    detector_.Register(NodeId(NodeClass::kCoord, i), t);
  }
  RecomputeTables();
  queue().ScheduleBackgroundAfter(params_.sweep_interval, [this] { Sweep(); }, owner_.id());
  if (params_.hotspot_enabled && view_.dir_servers.size() >= 2) {
    hotspot_last_ops_.assign(view_.dir_servers.size(), 0);
    if (params_.hotspot_per_slot) {
      hotspot_last_slot_ops_.assign(view_.dir_servers.size() * view_.logical_slots, 0);
    }
    ArmHotspotCheck();
  }
}

void EnsembleManager::ArmHotspotCheck() {
  auto check = [this] {
    CheckHotspots();
    ArmHotspotCheck();
  };
  queue().ScheduleBackgroundAfter(params_.hotspot_interval, check, owner_.id());
}

void EnsembleManager::CheckHotspots() {
  if (metrics() == nullptr || !metrics()->enabled()) {
    return;  // detector needs the metrics plane
  }
  const size_t num_dir = view_.dir_servers.size();
  // Sample per-dir local-op deltas since the previous pass. A restarted
  // server's counter may be below our last sample; clamp to zero.
  std::vector<uint64_t> delta(num_dir, 0);
  for (uint32_t i = 0; i < num_dir; ++i) {
    const obs::Counter* c =
        metrics()->Registry(view_.dir_servers[i].addr).FindCounter("dir_local_ops");
    const uint64_t total = c != nullptr ? c->Value() : 0;
    delta[i] = total - std::min(total, hotspot_last_ops_[i]);
    hotspot_last_ops_[i] = total;
  }
  // Per-slot deltas (hotspot_per_slot), sampled every pass — even when the
  // episode budget is spent — so they stay current for the slot ranking.
  std::vector<uint64_t> slot_delta;
  if (params_.hotspot_per_slot) {
    slot_delta.assign(num_dir * view_.logical_slots, 0);
    for (uint32_t i = 0; i < num_dir; ++i) {
      obs::MetricsRegistry& reg = metrics()->Registry(view_.dir_servers[i].addr);
      for (uint32_t s = 0; s < view_.logical_slots; ++s) {
        char name[32];
        std::snprintf(name, sizeof(name), "dir_slot%02u_ops", s);
        const obs::Counter* c = reg.FindCounter(name);
        const uint64_t total = c != nullptr ? c->Value() : 0;
        const size_t idx = i * view_.logical_slots + s;
        slot_delta[idx] = total - std::min(total, hotspot_last_slot_ops_[idx]);
        hotspot_last_slot_ops_[idx] = total;
      }
    }
  }
  if (hotspot_episodes_ >= params_.hotspot_max_episodes) {
    return;  // budget spent; keep sampling so deltas stay current
  }
  // Hottest and coldest among live servers only: moving load onto a dead
  // server is pointless, and a dead server's zero delta is not "cold".
  bool have_hot = false, have_cold = false;
  uint32_t hot = 0, cold = 0;
  for (uint32_t i = 0; i < num_dir; ++i) {
    if (!detector_.alive(NodeId(NodeClass::kDir, i))) {
      continue;
    }
    if (!have_hot || delta[i] > delta[hot]) {
      hot = i;
      have_hot = true;
    }
    if (!have_cold || delta[i] < delta[cold]) {
      cold = i;
      have_cold = true;
    }
  }
  if (!have_hot || hot == cold) {
    return;
  }
  const uint64_t hot_delta = delta[hot];
  const uint64_t cold_delta = delta[cold];
  if (hot_delta < params_.hotspot_min_ops ||
      static_cast<double>(hot_delta) <
          params_.hotspot_imbalance * static_cast<double>(std::max<uint64_t>(cold_delta, 1))) {
    return;
  }
  // Re-bind up to max_slots of the hot server's name slots to the cold one.
  // Only slots >= num_dir are movable: the low slots double as the dir
  // peer-protocol's static cell ownership (ensemble SetPeers), which a
  // fronting change must not disturb.
  std::vector<uint32_t> moved;
  if (params_.hotspot_per_slot) {
    // Rank the hot server's movable slots by their own measured heat and move
    // the hottest ones. Stable sort keeps the pick deterministic on ties
    // (lower slot index wins); slots with zero delta are never moved.
    std::vector<uint32_t> candidates;
    for (uint32_t slot = static_cast<uint32_t>(num_dir); slot < tables_.dir_slots.size();
         ++slot) {
      if (tables_.dir_slots[slot] == hot) {
        candidates.push_back(slot);
      }
    }
    const size_t base = static_cast<size_t>(hot) * view_.logical_slots;
    std::stable_sort(candidates.begin(), candidates.end(), [&](uint32_t a, uint32_t b) {
      return slot_delta[base + a] > slot_delta[base + b];
    });
    for (uint32_t slot : candidates) {
      if (moved.size() >= params_.hotspot_max_slots || slot_delta[base + slot] == 0) {
        break;
      }
      moved.push_back(slot);
      slot_overrides_[slot] = cold;
    }
  } else {
    for (uint32_t slot = static_cast<uint32_t>(num_dir);
         slot < tables_.dir_slots.size() && moved.size() < params_.hotspot_max_slots; ++slot) {
      if (tables_.dir_slots[slot] == hot) {
        moved.push_back(slot);
        slot_overrides_[slot] = cold;
      }
    }
  }
  if (moved.empty()) {
    return;
  }
  ++hotspot_episodes_;
  ++rebalances_;
  // Each rebalance episode gets its own trace id so begin/commit (and any
  // downstream cache flushes) correlate in the flight recorder.
  obs::TraceContext ctx;
  if (tracer() != nullptr && tracer()->enabled()) {
    ctx.trace_id = tracer()->NewTraceId();
    ctx.span_id = tracer()->NewSpanId();
    tracer()->RecordInstant(addr(), ctx, "rebalance", now());
  }
  obs::LogEvent(eventlog(), addr(), now(), obs::EventSev::kInfo, obs::EventCat::kMgmt,
                obs::EventCode::kRebalanceBegin, ctx.trace_id, "dir",
                {{"from", static_cast<int64_t>(hot)},
                 {"to", static_cast<int64_t>(cold)},
                 {"slots", static_cast<int64_t>(moved.size())}});
  SLICE_ILOG << "mgmt: rebalance dir " << hot << " -> " << cold << " ("
             << moved.size() << " slots)";
  // Move the slots' directory entries before anyone sees the new binding:
  // the migrate + table install happen in one sim instant, so a lookup
  // routed by the new tables always finds its names on the new owner.
  if (rebalance_hook_) {
    for (uint32_t slot : moved) {
      rebalance_hook_(slot, static_cast<uint32_t>(tables_.dir_slots.size()), hot, cold);
    }
  }
  RecomputeTables();
  ++reconfigurations_;
  if (hook_) {
    hook_(tables_, {}, {});
  }
  PushTables();
  obs::LogEvent(eventlog(), addr(), now(), obs::EventSev::kInfo, obs::EventCat::kMgmt,
                obs::EventCode::kRebalanceCommit, ctx.trace_id, "dir",
                {{"epoch", static_cast<int64_t>(tables_.epoch)}});
}

obs::TraceContext EnsembleManager::OpenEpisode(uint64_t id, const char* marker) {
  auto it = episodes_.find(id);
  if (it == episodes_.end()) {
    obs::TraceContext ctx;
    if (tracer() != nullptr && tracer()->enabled()) {
      ctx.trace_id = tracer()->NewTraceId();
      ctx.span_id = tracer()->NewSpanId();
    }
    it = episodes_.emplace(id, ctx).first;
  }
  if (tracer() != nullptr && it->second.valid()) {
    tracer()->RecordInstant(addr(), it->second, marker, now());
  }
  return it->second;
}

void EnsembleManager::NoteSilentNodes() {
  for (uint64_t id : detector_.SilentNodes(now(), 2 * params_.heartbeat_interval)) {
    if (!suspected_.insert(id).second) {
      continue;  // already reported this episode
    }
    const obs::TraceContext ctx = OpenEpisode(id, "hb_miss");
    obs::LogEvent(eventlog(), addr(), now(), obs::EventSev::kWarn, obs::EventCat::kMgmt,
                  obs::EventCode::kHeartbeatMiss, ctx.trace_id, NodeClassName(NodeIdClass(id)),
                  {{"node", NodeIdIndex(id)}});
  }
}

void EnsembleManager::Sweep() {
  NoteSilentNodes();
  std::vector<uint64_t> died = detector_.Sweep(now());
  if (!died.empty()) {
    for (uint64_t id : died) {
      const obs::TraceContext ctx = OpenEpisode(id, "node_dead");
      obs::LogEvent(eventlog(), addr(), now(), obs::EventSev::kError, obs::EventCat::kMgmt,
                    obs::EventCode::kNodeDead, ctx.trace_id, NodeClassName(NodeIdClass(id)),
                    {{"node", NodeIdIndex(id)}});
    }
    OnMembershipChange(std::move(died), {});
  }
  queue().ScheduleBackgroundAfter(params_.sweep_interval, [this] { Sweep(); }, owner_.id());
}

RpcAcceptStat EnsembleManager::HandleCall(const RpcMessageView& call,
                                          XdrEncoder& reply,
                                          ServiceCost& cost) {
  cost.AddCpu(FromMicros(params_.op_cpu_us));
  switch (static_cast<MgmtProc>(call.proc)) {
    case MgmtProc::kNull:
      return RpcAcceptStat::kSuccess;
    case MgmtProc::kHeartbeat:
      return Serve<HeartbeatArgs>(call, [&](const HeartbeatArgs& args) {
        ++heartbeats_received_;
        const uint64_t id = NodeId(args.node_class, args.index);
        if (detector_.Touch(id, now())) {
          const obs::TraceContext ctx = OpenEpisode(id, "node_rejoin");
          obs::LogEvent(eventlog(), addr(), now(), obs::EventSev::kInfo, obs::EventCat::kMgmt,
                        obs::EventCode::kNodeRejoin, ctx.trace_id,
                        NodeClassName(NodeIdClass(id)), {{"node", NodeIdIndex(id)}});
          OnMembershipChange({}, {id});
          CloseEpisode(id);
        } else if (suspected_.erase(id) > 0) {
          // Suspicion was a false alarm (lost heartbeats, not a crash).
          const auto ep = episodes_.find(id);
          obs::LogEvent(eventlog(), addr(), now(), obs::EventSev::kInfo, obs::EventCat::kMgmt,
                        obs::EventCode::kHeartbeatResume,
                        ep != episodes_.end() ? ep->second.trace_id : 0,
                        NodeClassName(NodeIdClass(id)), {{"node", NodeIdIndex(id)}});
          episodes_.erase(id);
        }
        HeartbeatRes res;
        res.current_epoch = tables_.epoch;
        res.Encode(reply);
      });
    case MgmtProc::kFetchTables:
      tables_.Encode(reply);
      return RpcAcceptStat::kSuccess;
  }
  return RpcAcceptStat::kProcUnavail;
}

void EnsembleManager::RecomputeTables() {
  MgmtTableSet t;
  t.epoch = tables_.epoch + 1;

  t.dir_servers = view_.dir_servers;
  const size_t num_dir = view_.dir_servers.size();
  t.dir_alive.resize(num_dir);
  for (uint32_t i = 0; i < num_dir; ++i) {
    t.dir_alive[i] = detector_.alive(NodeId(NodeClass::kDir, i)) ? 1 : 0;
  }
  if (num_dir > 0) {
    t.dir_slots.resize(view_.logical_slots);
    for (size_t slot = 0; slot < t.dir_slots.size(); ++slot) {
      // Default round-robin owner; if dead, rebind to the next live server.
      uint32_t phys = static_cast<uint32_t>(slot % num_dir);
      for (size_t step = 0; step < num_dir && !t.dir_alive[phys]; ++step) {
        phys = static_cast<uint32_t>((phys + 1) % num_dir);
      }
      t.dir_slots[slot] = phys;
    }
    // Hotspot re-striping decisions ride on top of the default walk; an
    // override only holds while its target is alive.
    for (const auto& [slot, phys] : slot_overrides_) {
      if (slot < t.dir_slots.size() && phys < num_dir && t.dir_alive[phys]) {
        t.dir_slots[slot] = phys;
      }
    }
  }

  // Small-file slots keep their identity binding: a replacement server would
  // not have the files. µproxies consult sfs_alive and fail fast instead.
  t.sfs_servers = view_.small_file_servers;
  const size_t num_sfs = view_.small_file_servers.size();
  t.sfs_alive.resize(num_sfs);
  for (uint32_t i = 0; i < num_sfs; ++i) {
    t.sfs_alive[i] = detector_.alive(NodeId(NodeClass::kSfs, i)) ? 1 : 0;
  }
  if (num_sfs > 0) {
    if (params_.rendezvous_sfs_slots) {
      // Rendezvous-filled slots: adding/removing a server perturbs only the
      // minimal slot set, so most of the fleet's cached mappings survive.
      t.sfs_slots = RendezvousAssignment(view_.logical_slots, num_sfs);
    } else {
      t.sfs_slots.resize(view_.logical_slots);
      for (size_t slot = 0; slot < t.sfs_slots.size(); ++slot) {
        t.sfs_slots[slot] = static_cast<uint32_t>(slot % num_sfs);
      }
    }
  }

  t.storage_alive.resize(view_.storage_nodes.size());
  for (uint32_t i = 0; i < view_.storage_nodes.size(); ++i) {
    t.storage_alive[i] = detector_.alive(NodeId(NodeClass::kStorage, i)) ? 1 : 0;
  }

  tables_ = std::move(t);
}

void EnsembleManager::OnMembershipChange(std::vector<uint64_t> died,
                                         std::vector<uint64_t> revived) {
  RecomputeTables();
  ++reconfigurations_;
  SLICE_ILOG << "mgmt: epoch " << tables_.epoch << " (" << died.size()
             << " died, " << revived.size() << " rejoined)";
  // The epoch bump belongs to the episode that caused it; pick the first
  // affected node's trace (reconfigurations are single-cause in practice).
  uint64_t episode_trace = 0;
  for (const auto& ids : {died, revived}) {
    for (uint64_t id : ids) {
      if (episode_trace == 0) {
        episode_trace = EpisodeContext(id).trace_id;
      }
    }
  }
  obs::LogEvent(eventlog(), addr(), now(), obs::EventSev::kInfo, obs::EventCat::kMgmt,
                obs::EventCode::kEpochBump, episode_trace, nullptr,
                {{"epoch", static_cast<int64_t>(tables_.epoch)},
                 {"died", static_cast<int64_t>(died.size())},
                 {"rejoined", static_cast<int64_t>(revived.size())}});
  if (hook_) {
    hook_(tables_, died, revived);
  }
  PushTables();
}

void EnsembleManager::PushTables() {
  const Bytes push = EncodeTablePush(tables_);
  for (const Endpoint& sub : subscribers_) {
    SendPacket(Packet::MakeUdp(endpoint(), sub, push));
  }
}

}  // namespace slice
