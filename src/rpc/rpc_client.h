// Asynchronous ONC RPC client over simulated UDP with XID matching and
// timeout-driven retransmission. End-to-end retransmission is what lets the
// µproxy "discard its state and/or pending packets without compromising
// correctness" (paper §2.1) — drops in the network or the µproxy are masked
// here.
//
// Each call is encoded once: the header, the client's cached AUTH_SYS
// credential and the caller's args go straight into a pooled packet frame,
// which becomes the first transmission. The per-call state lives in a slot
// table that is reused from one call to the next: a pending call's slot
// holds its reply handler inline (an InlineFunction) and a copy of the
// message for retransmission. A message of at most kSmallWire bytes (every
// call but a bulk WRITE) is copied into the slot's own buffer, which keeps
// its capacity; a larger one gets an exact-size copy that is freed when the
// call ends (keeping large buffers per slot, or holding the pooled frame,
// would pin a 9 KB or 32 KB buffer per outstanding call). A warmed READ,
// GETATTR or LOOKUP therefore allocates nothing.
#ifndef SLICE_RPC_RPC_CLIENT_H_
#define SLICE_RPC_RPC_CLIENT_H_

#include <vector>

#include "src/common/inline_function.h"
#include "src/core/pending_map.h"
#include "src/net/host.h"
#include "src/obs/eventlog.h"
#include "src/obs/sinks.h"
#include "src/obs/trace.h"
#include "src/rpc/rpc_message.h"
#include "src/sim/event_queue.h"

namespace slice {

struct RpcClientParams {
  SimTime retransmit_timeout = FromMillis(400);
  int max_transmissions = 5;   // initial send + 4 retries
  double backoff_factor = 2.0;
  // Ceiling on the exponentially scaled timeout. Without it the pow()-scaled
  // interval grows without bound (and overflows SimTime once the double
  // exceeds 2^63), so a generous max_transmissions could park a call for
  // centuries of sim-time instead of giving up.
  SimTime max_retransmit_timeout = FromSeconds(10);
};

class RpcClient {
 public:
  // `handler(status, reply)`: status is kOk with a decoded reply view, or
  // kTimedOut / kUnavailable on failure. Its 64 inline bytes hold CallTyped's
  // wrapper around an NfsClient::Callback, so neither allocates.
  using ResponseHandler = InlineFunction<void(Status, const RpcMessageView&), 64>;

  // Observability (`sinks`: the tracer and the event log). Calls issued
  // while the tracer has a current context carry that context on every
  // (re)transmission, and response handlers run with it restored — so nested
  // calls chain into the same trace. Retransmissions and give-ups are logged
  // with the call's trace id so a timed-out request explains itself in the
  // flight dump.
  RpcClient(Host& host, EventQueue& queue, RpcClientParams params = {},
            const obs::Sinks& sinks = {});
  // Pending calls die with the client: their handlers never run, and their
  // queued retransmit timers dispatch as no-ops.
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  // Issues a call whose args are `args.Encode(enc)`: any value with that
  // member (every *Args struct in src/nfs, src/coord and src/mgmt) encodes
  // itself straight into the call's frame.
  template <typename Args>
    requires requires(const Args& a, XdrEncoder& enc) { a.Encode(enc); }
  void Call(Endpoint server, uint32_t prog, uint32_t vers, uint32_t proc, const Args& args,
            ResponseHandler handler) {
    XdrEncoder enc = NewCall(prog, vers, proc);
    args.Encode(enc);
    Send(server, std::move(enc), std::move(handler));
  }
  // The same for args the caller already holds encoded (empty for none).
  void Call(Endpoint server, uint32_t prog, uint32_t vers, uint32_t proc, ByteSpan args,
            ResponseHandler handler);

  Endpoint local() const { return Endpoint{host_.addr(), port_}; }
  uint64_t calls_sent() const { return calls_sent_; }
  uint64_t retransmissions() const { return retransmissions_; }
  size_t pending() const { return slot_of_xid_.size(); }

  // Tenant tag: stamped into the AUTH_SYS uid of every subsequent call, so
  // the µproxy and servers can attribute the request end-to-end. 0 (the
  // default) means untenanted/system traffic.
  void set_tenant(uint32_t tenant);
  uint32_t tenant() const { return tenant_; }

 private:
  // Messages up to this size are retained in their slot's reusable buffer.
  static constexpr size_t kSmallWire = 512;

  // One pending call. Slots are recycled through free_slots_; a recycled
  // slot keeps its small buffer's capacity.
  struct PendingCall {
    Endpoint server;
    Bytes small_wire;  // the retained message when it fits kSmallWire
    Bytes large_wire;  // an exact-size copy of a larger one, freed at the end
    ResponseHandler handler;
    int transmissions = 0;
    uint32_t generation = 0;
    obs::TraceContext trace;  // context captured at Call() time

    ByteSpan wire() const { return large_wire.empty() ? small_wire : large_wire; }
  };

  // An encoder over a fresh frame holding the next xid's call header and
  // credential; Send registers the call and transmits the frame.
  XdrEncoder NewCall(uint32_t prog, uint32_t vers, uint32_t proc);
  void Send(Endpoint server, XdrEncoder&& call, ResponseHandler handler);
  void OnPacket(Packet&& pkt);
  // Sends `frame` (the first transmission) or, when it is empty, a copy of
  // the retained wire; gives the call up once it has been sent
  // max_transmissions times.
  void Transmit(uint32_t xid, Bytes frame = {});
  // Ends the call `xid` (held in `slot`): frees its slot and returns its
  // handler, which the caller runs after the slot is gone, so the handler
  // may issue calls of its own.
  ResponseHandler Finish(uint32_t xid, uint32_t slot);

  Host& host_;
  EventQueue& queue_;
  RpcClientParams params_;
  obs::Tracer* tracer_ = nullptr;
  obs::EventLog* eventlog_ = nullptr;
  NetPort port_;
  EventQueue::Owner owner_;  // owns the retransmit timers
  uint32_t next_xid_ = 1;
  uint32_t tenant_ = 0;
  Bytes cred_;  // the AUTH_SYS credential, encoded (rebuilt by set_tenant)
  uint32_t next_generation_ = 1;
  std::vector<PendingCall> slots_;
  std::vector<uint32_t> free_slots_;
  FlatMap<uint32_t, uint32_t> slot_of_xid_;
  uint64_t calls_sent_ = 0;
  uint64_t retransmissions_ = 0;
};

// The one typed call: issues `proc` of program `prog`, version `vers`, to
// `server` on `rpc`, encoding `args` straight into the call, and hands `cb`
// (any callable taking `(Status, const Res&)`, captured as is) the reply
// body decoded into a Res (DecodeBody), or a failed status and an empty Res.
// CallNfs (src/nfs/nfs_client.h) is its NFS form; the µproxy's coordinator
// and manager calls and the heartbeat agent use it directly.
template <typename Res, typename Args, typename Cb>
void CallTyped(RpcClient& rpc, Endpoint server, uint32_t prog, uint32_t vers, uint32_t proc,
               const Args& args, Cb cb) {
  rpc.Call(server, prog, vers, proc, args,
           [cb = std::move(cb), proc](Status st, const RpcMessageView& reply) {
             if (!st.ok()) {
               cb(st, Res{});
               return;
             }
             Result<Res> res = DecodeBody<Res>(reply.body, proc);
             if (!res.ok()) {
               cb(res.status(), Res{});
               return;
             }
             cb(OkStatus(), *res);
           });
}

}  // namespace slice

#endif  // SLICE_RPC_RPC_CLIENT_H_
