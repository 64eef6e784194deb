#include "src/rpc/rpc_server.h"

#include <algorithm>
#include <cstdio>

#include "src/common/logging.h"

namespace slice {

RpcServerNode::RpcServerNode(Network& net, EventQueue& queue, NetAddr addr, NetPort port,
                             RpcServerParams params, const obs::Sinks& sinks)
    : net_(net), queue_(queue), host_(std::make_unique<Host>(net, addr)), port_(port),
      params_(params), tracer_(sinks.tracer), metrics_(sinks.metrics),
      eventlog_(sinks.eventlog), profiler_(sinks.profiler),
      prof_ledger_(profiler_ != nullptr ? profiler_->LedgerFor(addr) : nullptr),
      drc_(params_.duplicate_cache_entries) {
  host_->Bind(port_, [this](Packet&& pkt) { OnPacket(std::move(pkt)); });
  if (profiler_ != nullptr) {
    profiler_->AddBusyProvider([this, addr](std::map<uint32_t, uint64_t>* out) {
      (*out)[addr] += static_cast<uint64_t>(cpu_.total_busy_time());
    });
  }
  if (metrics_ == nullptr || !metrics_->enabled()) {
    return;
  }
  obs::MetricsRegistry& reg = metrics_->Registry(addr);
  reg.GetCounter("srv_requests")->SetProvider([this]() { return requests_served_; });
  reg.GetCounter("srv_drc_replays")->SetProvider([this]() { return duplicates_answered_; });
  reg.GetCounter("srv_cpu_busy_ns")->SetProvider([this]() {
    return static_cast<uint64_t>(cpu_.total_busy_time());
  });
  reg.GetGauge("srv_cpu_backlog_ns")->SetProvider([this]() -> int64_t {
    const auto backlog =
        static_cast<int64_t>(cpu_.busy_until()) - static_cast<int64_t>(queue_.now());
    return backlog > 0 ? backlog : 0;
  });
  // Tenant plane (opt-in: registered only when tenants are configured, so
  // untenanted metrics exports stay byte-identical to older builds). Shows
  // which tenant's requests land on which node — the demand side of the
  // hotspot picture.
  if (const uint32_t tenants = metrics_->num_tenants(); tenants > 0) {
    tenant_requests_.assign(tenants, 0);
    for (uint32_t j = 0; j < tenants; ++j) {
      char name[32];
      std::snprintf(name, sizeof(name), "srv_tenant%u_requests", j + 1);
      reg.GetCounter(name)->SetProvider([this, j]() { return tenant_requests_[j]; });
    }
  }
}

RpcServerNode::~RpcServerNode() = default;

void RpcServerNode::Fail() {
  failed_ = true;
  net_.SetHostFailed(host_->addr(), true);
  obs::LogEvent(eventlog_, addr(), queue_.now(), obs::EventSev::kError, obs::EventCat::kFailover,
                obs::EventCode::kNodeKill);
}

void RpcServerNode::Restart() {
  failed_ = false;
  net_.SetHostFailed(host_->addr(), false);
  // A restarted server has an empty DRC: retransmits of pre-crash calls
  // re-execute, which is exactly the at-least-once contract NFS retries
  // assume.
  drc_.Clear();
  obs::LogEvent(eventlog_, addr(), queue_.now(), obs::EventSev::kInfo, obs::EventCat::kFailover,
                obs::EventCode::kNodeRecover);
  OnRestart();
}

void RpcServerNode::DispatchCall(const RpcMessageView& call, const Endpoint& client,
                                 ReplyFn done) {
  (void)client;
  dispatch_result_.Clear();
  ServiceCost cost;
  const RpcAcceptStat stat = HandleCall(call, dispatch_result_, cost);
  CompleteCall(done.key_, done.client_, done.trace_, stat,
               ByteSpan(dispatch_result_.bytes()), cost);
}

void RpcServerNode::OnPacket(Packet&& pkt) {
  // Lift the span context off the wire (the trailer sits outside payload(),
  // so decoding below is oblivious to it either way).
  obs::TraceContext trace;
  if (tracer_ != nullptr || eventlog_ != nullptr) {
    pkt.PeekTrace(&trace.trace_id, &trace.span_id);
  }

  Result<RpcMessageView> decoded = DecodeRpcMessage(pkt.payload());
  if (!decoded.ok() || decoded->type != RpcMsgType::kCall) {
    SLICE_WLOG << "rpc-server: undecodable packet from " << EndpointToString(pkt.src());
    return;
  }

  const Endpoint client = pkt.src();
  const DrcKey key{(static_cast<uint64_t>(client.addr) << 16) | client.port, decoded->xid,
                   decoded->prog, decoded->vers, decoded->proc};

  if (const Bytes* cached = drc_.FindReply(key)) {
    ++duplicates_answered_;
    Packet out = Packet::MakeUdp(endpoint(), client, *cached);
    if (tracer_ != nullptr && trace.valid()) {
      tracer_->RecordInstant(addr(), trace, "drc_replay", queue_.now());
      out.AttachTrace(trace.trace_id, trace.span_id);
    }
    obs::LogEvent(eventlog_, addr(), queue_.now(), obs::EventSev::kInfo, obs::EventCat::kRpc,
                  obs::EventCode::kDrcReplay, trace.trace_id, nullptr,
                  {{"xid", decoded->xid}});
    SendPacket(std::move(out));
    return;
  }
  if (drc_.InProgress(key)) {
    return;  // async execution already under way; let the DRC answer later
  }
  drc_.BeginCall(key);

  // Tenant attribution from the decoded AUTH_SYS credential. Counted after
  // the DRC/in-progress checks: one executed request, one count.
  if (!tenant_requests_.empty()) {
    const uint32_t tenant = decoded->cred.uid;
    if (tenant >= 1 && tenant <= tenant_requests_.size()) {
      ++tenant_requests_[tenant - 1];
    }
  }

  // Run the dispatch under the request's context so handlers that issue
  // their own network I/O (small-file backing fetches, WAL appends) chain
  // those calls into this trace.
  obs::ScopedContext scope(tracer_, trace);
  obs::Profiler::Scope prof_scope(profiler_, obs::ProfScope::kRpcDispatch);
  DispatchCall(*decoded, client, ReplyFn(this, key, client, trace));
}

void RpcServerNode::CompleteCall(const DrcKey& key, const Endpoint& client,
                                 const obs::TraceContext& trace, RpcAcceptStat stat,
                                 ByteSpan result, const ServiceCost& cost) {
  // Reply envelope straight into the member scratch — bytes identical to the
  // old RpcReply::Encode (null verifier, opaque-fixed result body with XDR
  // padding), with no intermediate RpcReply/Bytes materialization.
  reply_enc_.Clear();
  reply_enc_.PutUint32(key.xid);
  reply_enc_.PutEnum(static_cast<uint32_t>(RpcMsgType::kReply));
  reply_enc_.PutEnum(static_cast<uint32_t>(RpcReplyStat::kAccepted));
  reply_enc_.PutEnum(static_cast<uint32_t>(RpcAuthFlavor::kNone));
  reply_enc_.PutUint32(0);  // zero-length verifier body
  reply_enc_.PutEnum(static_cast<uint32_t>(stat));
  if (stat == RpcAcceptStat::kSuccess) {
    reply_enc_.PutOpaqueFixed(result);
  }

  drc_.CompleteCall(key, ByteSpan(reply_enc_.bytes()));
  ++requests_served_;

  const SimTime ready_at = queue_.now();
  const SimTime cpu_start = std::max(cpu_.busy_until(), ready_at);
  const SimTime cpu_done = cpu_.Acquire(ready_at, cost.cpu());
  const SimTime done_at = cpu_done > cost.completion() ? cpu_done : cost.completion();
  obs::ChargeSim(prof_ledger_, obs::LedgerCat::kQueue, cpu_start - ready_at);
  obs::ChargeSim(prof_ledger_, obs::LedgerCat::kCpu, cost.cpu());
  if (tracer_ != nullptr && trace.valid()) {
    if (cpu_start > ready_at) {
      tracer_->RecordSpan(addr(), trace, obs::SpanCat::kQueue, "srv_cpu_wait", ready_at,
                          cpu_start);
    }
    if (cpu_done > cpu_start) {
      tracer_->RecordSpan(addr(), trace, obs::SpanCat::kCpu, "srv_cpu", cpu_start,
                          cpu_done);
    }
    if (done_at > cpu_done) {
      // Completion-bound tail (disk I/O finishing after the CPU); storage
      // nodes record the precise disk spans underneath this window.
      tracer_->RecordSpan(addr(), trace, obs::SpanCat::kService, "srv_completion",
                          cpu_done, done_at);
    }
  }

  // The reply is a deferred send flight, not a heap-allocated closure: the
  // wire bytes move into a pooled packet buffer now, and the network sends
  // it at the service-done instant from an ordinary, allocation-free queue
  // event.
  Packet out = Packet::MakeUdp(endpoint(), client, ByteSpan(reply_enc_.bytes()));
  if (tracer_ != nullptr && trace.valid()) {
    out.AttachTrace(trace.trace_id, trace.span_id);
  }
  net_.SendAt(std::move(out), done_at);
}

}  // namespace slice
