#include "src/mgmt/heartbeat.h"

namespace slice {

namespace {
RpcClientParams OneShotParams() {
  RpcClientParams p;
  // A heartbeat that outlives its interval is worthless; give the reply one
  // interval's worth of time and never retransmit.
  p.retransmit_timeout = FromMillis(45);
  p.max_transmissions = 1;
  return p;
}
}  // namespace

HeartbeatAgent::HeartbeatAgent(Host& host, EventQueue& queue, HeartbeatAgentParams params,
                               const obs::Sinks& sinks)
    : queue_(queue), params_(params), addr_(host.addr()), rpc_(host, queue, OneShotParams()),
      owner_(queue) {
  if (sinks.metrics == nullptr || !sinks.metrics->enabled()) {
    return;
  }
  obs::MetricsRegistry& reg = sinks.metrics->Registry(addr_);
  reg.GetCounter("hb_beats_sent")->SetProvider([this]() { return beats_sent_; });
  reg.GetCounter("hb_beats_acked")->SetProvider([this]() { return beats_acked_; });
  reg.GetGauge("hb_known_epoch")->SetProvider(
      [this]() { return static_cast<int64_t>(known_epoch_); });
}

void HeartbeatAgent::Start() { queue_.ScheduleBackgroundAfter(0, [this] { Tick(); }, owner_.id()); }

void HeartbeatAgent::Tick() {
  HeartbeatArgs args;
  args.node_class = params_.node_class;
  args.index = params_.index;
  args.known_epoch = known_epoch_;
  ++beats_sent_;
  // Safe to capture `this`: the handler lives in rpc_, which dies with the
  // agent.
  CallTyped<HeartbeatRes>(rpc_, params_.manager, kMgmtProgram, kMgmtVersion,
                          static_cast<uint32_t>(MgmtProc::kHeartbeat), args,
                          [this](Status status, const HeartbeatRes& res) {
                            if (status.ok()) {
                              ++beats_acked_;
                              known_epoch_ = res.current_epoch;
                            }
                          });
  const auto interval = static_cast<SimTime>(
      static_cast<double>(params_.interval) * interval_scale_);
  queue_.ScheduleBackgroundAfter(interval, [this] { Tick(); }, owner_.id());
}

}  // namespace slice
