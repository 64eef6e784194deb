#include "src/rpc/rpc_client.h"

#include <cmath>

#include "src/common/logging.h"

namespace slice {

RpcClient::RpcClient(Host& host, EventQueue& queue, RpcClientParams params,
                     const obs::Sinks& sinks)
    : host_(host), queue_(queue), params_(params), tracer_(sinks.tracer),
      eventlog_(sinks.eventlog), owner_(queue) {
  port_ = host_.Bind(0, [this](Packet&& pkt) { OnPacket(std::move(pkt)); });
  set_tenant(0);
}

RpcClient::~RpcClient() { host_.Unbind(port_); }

void RpcClient::set_tenant(uint32_t tenant) {
  tenant_ = tenant;
  AuthSysCred cred;
  cred.machine_name = "host" + std::to_string(host_.addr() & 0xff);
  cred.uid = tenant_;
  cred.gids = {0, 5};
  cred_ = EncodeAuthSysCred(cred);
}

void RpcClient::Call(Endpoint server, uint32_t prog, uint32_t vers, uint32_t proc,
                     ByteSpan args, ResponseHandler handler) {
  XdrEncoder enc = NewCall(prog, vers, proc);
  enc.PutOpaqueFixed(args);
  Send(server, std::move(enc), std::move(handler));
}

XdrEncoder RpcClient::NewCall(uint32_t prog, uint32_t vers, uint32_t proc) {
  XdrEncoder enc(Packet::AcquireFrame());
  EncodeCallHeader(enc, next_xid_++, prog, vers, proc, cred_);
  return enc;
}

void RpcClient::Send(Endpoint server, XdrEncoder&& call, ResponseHandler handler) {
  Bytes frame = call.Take();
  const ByteSpan wire = ByteSpan(frame).subspan(kPacketHeaderSize);
  const uint32_t xid = GetU32(wire.data());

  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back().small_wire.reserve(kSmallWire);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  *slot_of_xid_.Insert(xid).first = slot;
  PendingCall& pc = slots_[slot];
  pc.server = server;
  if (wire.size() <= kSmallWire) {
    pc.small_wire.assign(wire.begin(), wire.end());
  } else {
    pc.large_wire.assign(wire.begin(), wire.end());
  }
  pc.handler = std::move(handler);
  pc.transmissions = 0;
  pc.generation = next_generation_++;
  pc.trace = tracer_ != nullptr ? tracer_->current() : obs::TraceContext{};

  Transmit(xid, std::move(frame));
}

RpcClient::ResponseHandler RpcClient::Finish(uint32_t xid, uint32_t slot) {
  PendingCall& pc = slots_[slot];
  ResponseHandler handler = std::move(pc.handler);
  Bytes().swap(pc.large_wire);
  slot_of_xid_.Erase(xid);
  free_slots_.push_back(slot);
  return handler;
}

void RpcClient::Transmit(uint32_t xid, Bytes frame) {
  const uint32_t* slot = slot_of_xid_.Find(xid);
  if (slot == nullptr) {
    return;
  }
  PendingCall& pc = slots_[*slot];

  if (pc.transmissions >= params_.max_transmissions) {
    const obs::TraceContext trace = pc.trace;
    ResponseHandler handler = Finish(xid, *slot);
    if (tracer_ != nullptr) {
      tracer_->RecordInstant(host_.addr(), trace, "rpc_give_up", queue_.now());
    }
    obs::LogEvent(eventlog_, host_.addr(), queue_.now(), obs::EventSev::kError,
                  obs::EventCat::kRpc, obs::EventCode::kRpcGiveUp, trace.trace_id, nullptr,
                  {{"xid", xid}, {"tries", params_.max_transmissions}});
    RpcMessageView empty;
    obs::ScopedContext scope(tracer_, trace);
    handler(Status(StatusCode::kTimedOut, "rpc: call timed out"), empty);
    return;
  }

  if (pc.transmissions > 0) {
    ++retransmissions_;
    if (tracer_ != nullptr) {
      tracer_->RecordInstant(host_.addr(), pc.trace, "rpc_retransmit", queue_.now());
    }
    obs::LogEvent(eventlog_, host_.addr(), queue_.now(), obs::EventSev::kWarn,
                  obs::EventCat::kRpc, obs::EventCode::kRpcRetransmit, pc.trace.trace_id,
                  nullptr, {{"xid", xid}, {"attempt", pc.transmissions + 1}});
    SLICE_DLOG << "rpc: retransmit xid=" << xid << " attempt=" << pc.transmissions + 1;
  }
  ++pc.transmissions;
  ++calls_sent_;

  Packet pkt = frame.empty() ? Packet::MakeUdp(local(), pc.server, pc.wire())
                             : Packet::MakeUdpFramed(local(), pc.server, std::move(frame));
  if (tracer_ != nullptr && pc.trace.valid()) {
    pkt.AttachTrace(pc.trace.trace_id, pc.trace.span_id);
  }

  // Clamp in double space: pow() runs away long before the cast back to
  // SimTime would saturate, so the comparison must happen before the cast.
  const double scale =
      pc.transmissions > 1
          ? std::pow(params_.backoff_factor, static_cast<double>(pc.transmissions - 1))
          : 1.0;
  const double scaled = static_cast<double>(params_.retransmit_timeout) * scale;
  const double ceiling = static_cast<double>(params_.max_retransmit_timeout);
  const SimTime timeout = static_cast<SimTime>(scaled < ceiling ? scaled : ceiling);
  // {this, generation:xid} is 16 trivially-copyable bytes, so the timer
  // closure sits in std::function's inline buffer and arming it allocates
  // nothing. It is read off the slot before the send: `pc` dangles once a
  // call issued from inside the send grows the slot table.
  const uint64_t key = (static_cast<uint64_t>(pc.generation) << 32) | xid;
  host_.Send(std::move(pkt));

  auto expire = [this, key] {
    const auto timer_xid = static_cast<uint32_t>(key);
    const uint32_t* timer_slot = slot_of_xid_.Find(timer_xid);
    if (timer_slot == nullptr || slots_[*timer_slot].generation != key >> 32) {
      return;  // already answered (or replaced)
    }
    Transmit(timer_xid);
  };
  queue_.ScheduleAfter(timeout, expire, owner_.id());
}

void RpcClient::OnPacket(Packet&& pkt) {
  Result<RpcMessageView> decoded = DecodeRpcMessage(pkt.payload());
  if (!decoded.ok() || decoded->type != RpcMsgType::kReply) {
    SLICE_WLOG << "rpc: dropping undecodable packet on client port";
    return;
  }
  const uint32_t* slot = slot_of_xid_.Find(decoded->xid);
  if (slot == nullptr) {
    return;  // duplicate reply after retransmission; ignore
  }
  const obs::TraceContext trace = slots_[*slot].trace;
  ResponseHandler handler = Finish(decoded->xid, *slot);

  // Restore the originating context so the handler's own nested calls (and
  // any spans it records) stay in the same trace.
  obs::ScopedContext scope(tracer_, trace);
  if (decoded->accept_stat != RpcAcceptStat::kSuccess) {
    handler(Status(StatusCode::kInternal,
                   "rpc: accept_stat=" +
                       std::to_string(static_cast<uint32_t>(decoded->accept_stat))),
            *decoded);
    return;
  }
  handler(OkStatus(), *decoded);
}

}  // namespace slice
