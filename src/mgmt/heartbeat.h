// Heartbeat agent: lives on a server's host and sends a periodic one-shot
// heartbeat RPC to the ensemble manager. Heartbeats are fire-and-forget
// (max_transmissions = 1) so each tick is an independent liveness sample —
// retransmitting a stale beat would only mask real silence. When the host is
// failed (crash simulation) the network drops its packets, so silence at the
// manager is exactly host death; when the host restarts, beats resume and the
// manager observes the rejoin with no agent-side logic.
#ifndef SLICE_MGMT_HEARTBEAT_H_
#define SLICE_MGMT_HEARTBEAT_H_

#include "src/mgmt/mgmt_proto.h"
#include "src/obs/metrics.h"
#include "src/rpc/rpc_client.h"

namespace slice {

struct HeartbeatAgentParams {
  NodeClass node_class = NodeClass::kStorage;
  uint32_t index = 0;
  Endpoint manager;
  SimTime interval = FromMillis(50);
};

class HeartbeatAgent {
 public:
  // Of `sinks` the agent uses metrics only: beat counters against its host's
  // registry.
  HeartbeatAgent(Host& host, EventQueue& queue, HeartbeatAgentParams params,
                 const obs::Sinks& sinks = {});

  HeartbeatAgent(const HeartbeatAgent&) = delete;
  HeartbeatAgent& operator=(const HeartbeatAgent&) = delete;

  // Sends the first beat immediately and arms the background timer.
  void Start();

  uint64_t beats_sent() const { return beats_sent_; }
  uint64_t beats_acked() const { return beats_acked_; }
  // Last epoch the manager reported in a heartbeat reply.
  uint64_t known_epoch() const { return known_epoch_; }

  NodeClass node_class() const { return params_.node_class; }
  uint32_t index() const { return params_.index; }

  // Clock-skew fault (src/chaos): scales the beat interval. The node is
  // healthy — its clock just runs slow — so a scale that pushes the
  // effective interval past the detector timeout makes an alive node look
  // dead; a milder one keeps it flapping in and out of suspicion. Takes
  // effect from the next tick; 1.0 restores nominal pacing.
  void set_interval_scale(double scale) { interval_scale_ = scale > 0 ? scale : 1.0; }
  double interval_scale() const { return interval_scale_; }

 private:
  void Tick();

  EventQueue& queue_;
  HeartbeatAgentParams params_;
  NetAddr addr_;
  RpcClient rpc_;
  double interval_scale_ = 1.0;
  uint64_t beats_sent_ = 0;
  uint64_t beats_acked_ = 0;
  uint64_t known_epoch_ = 0;
  EventQueue::Owner owner_;  // owns the tick timer
};

}  // namespace slice

#endif  // SLICE_MGMT_HEARTBEAT_H_
