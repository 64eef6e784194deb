// Server-node skeleton: receives RPC calls from the simulated network,
// dispatches to a subclass handler, charges simulated service time (CPU +
// any disk completions the handler reports), and replies.
//
// Includes a duplicate-request cache so retransmitted non-idempotent calls
// (create, remove, rename...) return the original reply instead of
// re-executing — standard NFS/UDP server behavior that the loss-injection
// tests depend on.
//
// Fast-path discipline (DESIGN.md, server-side pools): the reply envelope is
// encoded into a member scratch encoder, the DRC is a fixed reply ring plus
// a flat open-addressing index, the completion token is a concrete value
// (not a std::function), and the deferred reply send waits in the network's
// flight table — so a steady-state served request never touches the heap.
#ifndef SLICE_RPC_RPC_SERVER_H_
#define SLICE_RPC_RPC_SERVER_H_

#include <memory>
#include <vector>

#include "src/core/pending_map.h"
#include "src/net/host.h"
#include "src/obs/eventlog.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/sinks.h"
#include "src/obs/trace.h"
#include "src/rpc/rpc_message.h"
#include "src/sim/event_queue.h"

namespace slice {

// Accumulates the simulated cost of servicing one request.
class ServiceCost {
 public:
  void AddCpu(SimTime t) { cpu_ += t; }
  // Records an asynchronous completion (e.g. a disk I/O finishing at `t`).
  void MergeCompletion(SimTime t) {
    if (t > completion_) {
      completion_ = t;
    }
  }
  SimTime cpu() const { return cpu_; }
  SimTime completion() const { return completion_; }

 private:
  SimTime cpu_ = 0;
  SimTime completion_ = 0;
};

struct RpcServerParams {
  size_t duplicate_cache_entries = 4096;
};

// Duplicate-request cache key. The identity must cover the full call, not
// just (client, xid): xids are a per-client-socket sequence, so a
// retransmitted xid arriving for a different program/version/procedure must
// execute rather than replay the wrong cached reply (RFC 1813 DRC guidance).
struct DrcKey {
  uint64_t client = 0;  // (addr << 16) | port
  uint32_t xid = 0;
  uint32_t prog = 0;
  uint32_t vers = 0;
  uint32_t proc = 0;
  bool operator==(const DrcKey&) const = default;
};

struct DrcKeyHash {
  uint64_t operator()(const DrcKey& k) const {
    return MixU64(k.client) ^
           MixU64((static_cast<uint64_t>(k.xid) << 32) | k.proc) ^
           MixU64((static_cast<uint64_t>(k.prog) << 32) | k.vers);
  }
};

// Duplicate-request cache: a fixed FIFO ring of completed replies plus a
// flat open-addressing index, replacing the unordered_map + deque +
// unordered_set trio. In steady state a completing call reuses the evicted
// ring slot's wire buffer and the flat index never allocates. Semantics are
// unchanged: completed entries are evicted FIFO in completion order, an
// evicted key that re-executes re-enters the FIFO as a fresh entry, and
// calls still executing are marked in-progress so their duplicates can be
// dropped.
class DuplicateRequestCache {
 public:
  explicit DuplicateRequestCache(size_t capacity)
      : ring_(capacity > 0 ? capacity : 1), index_(2 * ring_.size()) {}

  // The cached reply wire for `key`, or null (unknown, or still executing).
  const Bytes* FindReply(const DrcKey& key) const {
    const uint32_t* slot = index_.Find(key);
    if (slot == nullptr || *slot == kInProgress) {
      return nullptr;
    }
    return &ring_[*slot].wire;
  }

  bool InProgress(const DrcKey& key) const {
    const uint32_t* slot = index_.Find(key);
    return slot != nullptr && *slot == kInProgress;
  }

  // Marks `key` as executing; the caller drops duplicates that arrive before
  // CompleteCall via InProgress().
  void BeginCall(const DrcKey& key) { *index_.Insert(key).first = kInProgress; }

  // Records the encoded reply, evicting the oldest completed entry when the
  // ring is full. The victim's wire buffer keeps its capacity.
  void CompleteCall(const DrcKey& key, ByteSpan wire) {
    index_.Erase(key);  // clear the in-progress marker
    Entry& e = ring_[head_];
    if (count_ == ring_.size()) {
      index_.Erase(e.key);  // FIFO eviction of the oldest entry
    } else {
      ++count_;
    }
    e.key = key;
    e.wire.assign(wire.begin(), wire.end());
    *index_.Insert(key).first = static_cast<uint32_t>(head_);
    head_ = (head_ + 1) % ring_.size();
  }

  void Clear() {
    index_.Clear();
    head_ = 0;
    count_ = 0;  // ring buffers keep their capacity for reuse
  }

  size_t size() const { return count_; }

 private:
  // Ring capacities sit far below 2^32-1, so the top value is a free
  // in-progress sentinel in the slot index.
  static constexpr uint32_t kInProgress = 0xffffffffu;
  struct Entry {
    DrcKey key{};
    Bytes wire;
  };
  std::vector<Entry> ring_;
  FlatMap<DrcKey, uint32_t, DrcKeyHash> index_;
  size_t head_ = 0;
  size_t count_ = 0;
};

class RpcServerNode {
 public:
  // Observability (`sinks`, all four pillars): requests carrying a trace
  // trailer get queue/CPU/service spans and their replies carry the context
  // back; node kill/recover and DRC replays are logged; the node registers
  // its provider-backed request/DRC/CPU instruments (nothing on the request
  // hot path); and the profiler gets the rpc.dispatch wall scope around
  // every served call plus cpu/queue ledger charges at the CPU acquire
  // point. Subclasses register their own instruments in their constructors.
  RpcServerNode(Network& net, EventQueue& queue, NetAddr addr, NetPort port,
                RpcServerParams params = {}, const obs::Sinks& sinks = {});
  virtual ~RpcServerNode();

  RpcServerNode(const RpcServerNode&) = delete;
  RpcServerNode& operator=(const RpcServerNode&) = delete;

  Endpoint endpoint() const { return Endpoint{host_->addr(), port_}; }
  NetAddr addr() const { return host_->addr(); }
  Network& network() { return net_; }
  EventQueue& queue() { return queue_; }
  SimTime now() const { return queue_.now(); }
  Host& host() { return *host_; }

  // Crash simulation: a failed node drops all traffic. Restart() clears the
  // failure and invokes OnRestart() so subclasses can run recovery.
  void Fail();
  void Restart();
  bool failed() const { return failed_; }

  uint64_t requests_served() const { return requests_served_; }
  uint64_t duplicates_answered() const { return duplicates_answered_; }
  const BusyResource& cpu() const { return cpu_; }

 protected:
  obs::Tracer* tracer() const { return tracer_; }
  obs::Metrics* metrics() const { return metrics_; }
  obs::EventLog* eventlog() const { return eventlog_; }
  obs::Profiler* profiler() const { return profiler_; }
  uint64_t* prof_ledger() const { return prof_ledger_; }

  // Completion token for asynchronous dispatch: subclasses invoke it exactly
  // once with the accept stat, encoded result body, and accumulated cost. A
  // concrete copyable value (node pointer + call identity) rather than a
  // std::function — moving it through async continuation chains (the
  // small-file server's backing fetches) never allocates.
  class ReplyFn {
   public:
    ReplyFn() = default;
    void operator()(RpcAcceptStat stat, const Bytes& result, const ServiceCost& cost) {
      node_->CompleteCall(key_, client_, trace_, stat, ByteSpan(result), cost);
    }

   private:
    friend class RpcServerNode;
    ReplyFn(RpcServerNode* node, const DrcKey& key, const Endpoint& client,
            const obs::TraceContext& trace)
        : node_(node), key_(key), client_(client), trace_(trace) {}

    RpcServerNode* node_ = nullptr;
    DrcKey key_{};
    Endpoint client_{};
    obs::TraceContext trace_{};
  };

  // Subclass request handler. Decodes args from `call.body`, encodes the
  // procedure-specific result into `reply`, reports simulated time in
  // `cost`. Returning a non-success accept stat suppresses `reply`.
  virtual RpcAcceptStat HandleCall(const RpcMessageView& call, XdrEncoder& reply,
                                   ServiceCost& cost) = 0;

  // Dispatch hook. The default implementation runs HandleCall synchronously
  // into a member scratch encoder; servers whose handlers must wait on their
  // own network I/O (e.g. the small-file server fetching from the storage
  // array) override this and invoke `done` when the reply is ready.
  virtual void DispatchCall(const RpcMessageView& call, const Endpoint& client, ReplyFn done);

  // Recovery hook; default does nothing.
  virtual void OnRestart() {}

  // For subclasses that originate their own traffic (e.g. log writes).
  void SendPacket(Packet&& pkt) { host_->Send(std::move(pkt)); }

 private:
  void OnPacket(Packet&& pkt);
  // The single completion point behind ReplyFn: encodes the reply envelope
  // around `result` into the member scratch, records it in the DRC, charges
  // CPU/queue time, and schedules the deferred send flight at the
  // service-done instant.
  void CompleteCall(const DrcKey& key, const Endpoint& client,
                    const obs::TraceContext& trace, RpcAcceptStat stat, ByteSpan result,
                    const ServiceCost& cost);

  Network& net_;
  EventQueue& queue_;
  std::unique_ptr<Host> host_;
  NetPort port_;
  RpcServerParams params_;
  obs::Tracer* tracer_ = nullptr;
  obs::Metrics* metrics_ = nullptr;
  obs::EventLog* eventlog_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  uint64_t* prof_ledger_ = nullptr;  // cached LedgerFor(addr()); null when off
  BusyResource cpu_;
  bool failed_ = false;
  uint64_t requests_served_ = 0;
  uint64_t duplicates_answered_ = 0;
  // Per-tenant request counts (index j = tenant j+1, from the AUTH_SYS uid).
  // Sized once at construction when the hub has tenants configured; empty
  // otherwise, so the untenanted hot path pays one empty() check.
  std::vector<uint64_t> tenant_requests_;

  DuplicateRequestCache drc_;
  // Reply-envelope scratch and the default sync dispatch's result scratch
  // (capacities reused across calls). Distinct buffers: CompleteCall runs
  // inside DispatchCall while the result scratch is still being read.
  XdrEncoder reply_enc_;
  XdrEncoder dispatch_result_;
};

}  // namespace slice

#endif  // SLICE_RPC_RPC_SERVER_H_
