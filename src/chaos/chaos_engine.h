// ChaosEngine: schedules a ChaosConfig's fault plan as DES events and applies
// each primitive through narrow hooks into the layers that implement it —
// link shaping in src/net, disk multipliers in src/sim//src/storage, crash /
// restart and heartbeat skew in src/mgmt. The engine itself holds no
// component pointers beyond the hooks, so it has no dependency on the
// ensemble assembly (src/slice wires the hooks up; see
// EnsembleConfig::chaos).
//
// Every application and heal is recorded in the event log (fault_inject /
// fault_clear on the chaos controller pseudo-host), which is what makes
// chaos runs auditable: the invariant checker (src/chaos/invariants.h) and
// the flight dump both see exactly when each fault was live.
#ifndef SLICE_CHAOS_CHAOS_ENGINE_H_
#define SLICE_CHAOS_CHAOS_ENGINE_H_

#include <functional>
#include <vector>

#include "src/chaos/chaos.h"
#include "src/net/network.h"
#include "src/obs/eventlog.h"
#include "src/sim/event_queue.h"

namespace slice::chaos {

// The surface the engine needs from the deployment. All hooks must be valid
// for the engine's lifetime; `log` may be null (chaos still works, just
// unrecorded).
struct ChaosHooks {
  EventQueue* queue = nullptr;
  Network* net = nullptr;
  obs::EventLog* log = nullptr;
  // Crash / restart a node (RpcServerNode::Fail / Restart semantics).
  std::function<void(NodeClass, uint32_t)> fail_node;
  std::function<void(NodeClass, uint32_t)> restart_node;
  // Gray disk: scale storage node i's disk service times.
  std::function<void(uint32_t, double)> set_storage_disk_multiplier;
  // Clock skew: scale a node's heartbeat interval.
  std::function<void(NodeClass, uint32_t, double)> set_heartbeat_scale;
  // Ensemble coordinates → host address (0 when the node doesn't exist).
  std::function<uint32_t(NodeClass, uint32_t)> addr_of;
  // Every attached host (servers, manager, clients): the "rest of the
  // world" a partition separates the targets from.
  std::vector<uint32_t> all_hosts;
};

class ChaosEngine {
 public:
  ChaosEngine(ChaosHooks hooks, ChaosConfig config);

  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;

  // Schedules every fault's apply (and, for finite durations, heal) as
  // background DES events. Idempotent-hostile: call once.
  void Arm();

  size_t faults_armed() const { return config_.faults.size(); }
  uint64_t injections() const { return injections_; }
  uint64_t clears() const { return clears_; }

 private:
  void Apply(size_t fault_index);
  void Heal(size_t fault_index);
  // Links between each target and every non-target host, honoring
  // spec.asymmetric; invokes fn(src, dst) per directed link to shape.
  void ForEachShapedLink(const FaultSpec& spec,
                         const std::function<void(uint32_t, uint32_t)>& fn);
  void LogFault(const FaultSpec& spec, size_t fault_index, bool inject);

  ChaosHooks hooks_;
  ChaosConfig config_;
  EventQueue::Owner owner_;  // fault events queued past the engine's death never run
  uint64_t injections_ = 0;
  uint64_t clears_ = 0;
};

}  // namespace slice::chaos

#endif  // SLICE_CHAOS_CHAOS_ENGINE_H_
