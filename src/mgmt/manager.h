// Ensemble manager: the control plane's single authority (paper §4). Runs as
// a real RPC endpoint on the simulated network, collects heartbeats from
// every server, declares nodes dead on heartbeat timeout, recomputes
// epoch-stamped slot assignments (directory slot rebinding; identity-bound
// small-file slots with liveness bits; mirrored-partner promotion happens in
// the µproxy via storage liveness bits), and distributes tables eagerly by
// pushing to subscribed µproxy control ports. Lazy distribution — misdirect
// notices and stale-epoch fetches — is driven by the servers and µproxies
// against this manager's kFetchTables procedure.
#ifndef SLICE_MGMT_MANAGER_H_
#define SLICE_MGMT_MANAGER_H_

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "src/mgmt/failure_detector.h"
#include "src/mgmt/mgmt_proto.h"
#include "src/rpc/rpc_server.h"

namespace slice {

struct MgmtParams {
  bool enabled = true;
  SimTime heartbeat_interval = FromMillis(50);
  SimTime failure_timeout = FromMillis(500);
  SimTime sweep_interval = FromMillis(50);
  double op_cpu_us = 5.0;

  // Fleet routing: fill small-file slots by rendezvous (HRW) hashing instead
  // of round-robin, so a membership change moves only the minimal slot set.
  bool rendezvous_sfs_slots = false;

  // Hotspot detector: periodically sample each directory server's local-op
  // counter from the metrics plane; when the hottest live server's
  // per-interval delta exceeds `hotspot_imbalance` × the coldest's, re-bind
  // up to `hotspot_max_slots` of its name slots to the coldest server and
  // push the re-striped tables (a "rebalance episode", bounded by
  // `hotspot_max_episodes` per run). Requires metrics to be enabled.
  bool hotspot_enabled = false;
  SimTime hotspot_interval = FromMillis(250);
  uint64_t hotspot_min_ops = 64;   // hot server's delta must reach this
  double hotspot_imbalance = 2.0;  // hottest/coldest delta ratio trigger
  uint32_t hotspot_max_slots = 4;  // slots re-bound per episode
  uint32_t hotspot_max_episodes = 4;
  // Finer signal: also sample each dir server's per-slot op counters
  // ("dir_slotNN_ops", requires DirServerParams::slot_metrics) and move the
  // hot server's *hottest* movable slots, instead of the first ones found in
  // slot order. Slots with no measured heat are never moved.
  bool hotspot_per_slot = false;
};

// Static membership the manager supervises.
struct ClusterView {
  std::vector<Endpoint> dir_servers;
  std::vector<Endpoint> small_file_servers;
  std::vector<Endpoint> storage_nodes;
  std::vector<Endpoint> coordinators;
  size_t logical_slots = 64;
};

class EnsembleManager : public RpcServerNode {
 public:
  // Invoked after every epoch change, with the new tables and the node ids
  // that died / rejoined in this reconfiguration. The embedding ensemble uses
  // it to drive failover orchestration (dir site adoption, peer remapping,
  // storage resync).
  using ReconfigureHook =
      std::function<void(const MgmtTableSet& tables,
                         const std::vector<uint64_t>& died,
                         const std::vector<uint64_t>& revived)>;

  // Invoked once per slot a hotspot episode moves, before the new tables are
  // installed anywhere: (slot, num_slots, from_phys, to_phys). The ensemble
  // uses it to migrate the slot's directory entries to the new owner in the
  // same sim instant, so a rebound lookup never sees a nameless server.
  using RebalanceHook =
      std::function<void(uint32_t slot, uint32_t num_slots, uint32_t from, uint32_t to)>;

  // Beyond the base server's observability (`sinks`), registers
  // control-plane instruments: heartbeat totals, epoch, declared-dead count,
  // and the silent-node gauge the heartbeat_miss watchdog watches (silence
  // >= 2 heartbeat intervals). The tracer carries the failure episodes below.
  EnsembleManager(Network& net, EventQueue& queue, NetAddr addr,
                  ClusterView view, MgmtParams params = {}, const obs::Sinks& sinks = {});

  // Registers all members as alive now and arms the background sweep.
  void Start();

  void SetReconfigureHook(ReconfigureHook hook) { hook_ = std::move(hook); }
  void SetRebalanceHook(RebalanceHook hook) { rebalance_hook_ = std::move(hook); }
  // Adds a µproxy control endpoint that receives eager table pushes.
  void Subscribe(Endpoint proxy_control) { subscribers_.push_back(proxy_control); }

  const MgmtTableSet& tables() const { return tables_; }
  uint64_t current_epoch() const { return tables_.epoch; }
  bool NodeAlive(NodeClass cls, uint32_t index) const {
    return detector_.alive(NodeId(cls, index));
  }
  uint64_t reconfigurations() const { return reconfigurations_; }
  uint64_t heartbeats_received() const { return heartbeats_received_; }
  uint64_t rebalances() const { return rebalances_; }
  // Hotspot re-striping decisions currently in force (slot -> physical dir).
  const std::map<uint32_t, uint32_t>& slot_overrides() const {
    return slot_overrides_;
  }

  // Cross-pillar correlation: the first heartbeat miss for a node opens a
  // "failure episode" — a trace context whose instants (hb_miss, node_dead,
  // node_rejoin) land in the PR 2 trace export, and whose trace id stamps
  // every eventlog record of that episode (death, epoch bump, adoption,
  // handoff, resync). The embedding ensemble reads it in its reconfigure
  // hook to tag its own failover events. Returns an invalid context if no
  // episode is open for `node_id`.
  obs::TraceContext EpisodeContext(uint64_t node_id) const {
    const auto it = episodes_.find(node_id);
    return it != episodes_.end() ? it->second : obs::TraceContext{};
  }

 protected:
  RpcAcceptStat HandleCall(const RpcMessageView& call, XdrEncoder& reply,
                           ServiceCost& cost) override;

 private:
  void Sweep();
  void RecomputeTables();
  // Hotspot detector (hotspot_enabled): one sampling pass, possibly opening
  // a rebalance episode; re-arms itself every hotspot_interval.
  void CheckHotspots();
  void ArmHotspotCheck();
  void OnMembershipChange(std::vector<uint64_t> died,
                          std::vector<uint64_t> revived);
  void PushTables();
  // Marks newly-silent nodes (the suspicion window is two heartbeat
  // intervals), opening an episode trace + heartbeat_miss event for each.
  void NoteSilentNodes();
  // Opens (or returns) the failure episode for `id`, recording `marker` as
  // a trace instant at the manager.
  obs::TraceContext OpenEpisode(uint64_t id, const char* marker);
  void CloseEpisode(uint64_t id) {
    episodes_.erase(id);
    suspected_.erase(id);
  }

  ClusterView view_;
  MgmtParams params_;
  HeartbeatFailureDetector detector_;
  MgmtTableSet tables_;
  ReconfigureHook hook_;
  RebalanceHook rebalance_hook_;
  std::vector<Endpoint> subscribers_;
  uint64_t reconfigurations_ = 0;
  uint64_t heartbeats_received_ = 0;
  // Open failure episodes (node id -> trace context) and the nodes already
  // flagged silent, so each miss is reported once per episode.
  std::map<uint64_t, obs::TraceContext> episodes_;
  std::set<uint64_t> suspected_;
  // Hotspot detector state: last-sampled per-dir op totals, re-striping
  // overrides applied on top of the default slot walk, episode budget.
  std::vector<uint64_t> hotspot_last_ops_;
  // Per-slot sampling state (hotspot_per_slot): flat dir×slot op totals,
  // index = dir * logical_slots + slot.
  std::vector<uint64_t> hotspot_last_slot_ops_;
  std::map<uint32_t, uint32_t> slot_overrides_;
  uint32_t hotspot_episodes_ = 0;
  uint64_t rebalances_ = 0;
  bool started_ = false;
  EventQueue::Owner owner_;  // owns the sweep and hotspot timers
};

}  // namespace slice

#endif  // SLICE_MGMT_MANAGER_H_
