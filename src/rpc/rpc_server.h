// Server-node skeleton: receives RPC calls from the simulated network,
// dispatches to a subclass handler, charges simulated service time (CPU +
// any disk completions the handler reports), and replies.
//
// Includes a duplicate-request cache (DRC) that answers a retransmitted call
// by replaying its first reply instead of re-executing it: standard NFS/UDP
// server behavior for non-idempotent calls (create, remove, rename...), which
// the loss-injection tests depend on. Every reply is replayed, READs
// included, so a retransmitted READ costs no disk time.
//
// Fast-path discipline (DESIGN.md §7.1): a handler encodes its result
// straight into a pooled packet frame with the reply envelope reserved, the
// envelope is filled in place and the frame itself becomes the reply packet;
// the DRC is a fixed reply ring plus a flat open-addressing index, and each
// slot keeps one reused buffer with the reply's bytes, except that a READ's
// data stays in the object store's pages, pinned, rather than copied; the
// completion token is a concrete value (not a std::function); and the
// deferred reply send waits in the network's flight table — so a
// steady-state served request never touches the heap.
#ifndef SLICE_RPC_RPC_SERVER_H_
#define SLICE_RPC_RPC_SERVER_H_

#include <memory>
#include <span>
#include <vector>

#include "src/common/page_slab.h"
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

// Page data that ends a reply (before its XDR padding), held as views of
// slab pages rather than as the reply's own bytes: segments[i] lies in
// `slab`'s page pages[i] (kNoPage: zeros, nothing to pin). A null slab means
// the reply has no such data.
struct ReplyPages {
  PageSlab* slab = nullptr;
  std::span<const ByteSpan> segments;
  std::span<const PageId> pages;
};

// Duplicate-request cache: a fixed FIFO ring of completed replies plus a
// flat open-addressing index. Completed entries are evicted FIFO in
// completion order, an evicted key that re-executes re-enters the FIFO as a
// fresh entry, and calls still executing are marked in-progress so their
// duplicates can be dropped.
//
// Every entry has one shape, in its slot's one buffer, which keeps its
// capacity when the slot is reused: the reply's bytes before any page data,
// the pieces of that data as {bytes, length, page}, each page pinned
// (PageSlab::Ref), and the number of pieces. Page data never changes while
// pinned (the store copies a pinned page before writing it), so a replay
// that gathers the bytes, the pieces and the XDR padding is byte-identical
// to the first reply. Eviction and Clear() unpin; the destructor does not,
// because a server's DRC outlives the store whose pages it pins (the store
// is a member of the derived node) and the pages die with it.
class DuplicateRequestCache {
 public:
  explicit DuplicateRequestCache(size_t capacity)
      : ring_(capacity > 0 ? capacity : 1), index_(2 * ring_.size()) {}

  // Gathers the cached reply for `key` into `*frame`, a pooled frame
  // (Packet::AcquireFrame) whose payload is the reply. False when `key` is
  // unknown or still executing.
  bool Replay(const DrcKey& key, Bytes* frame) const;

  bool InProgress(const DrcKey& key) const {
    const uint32_t* slot = index_.Find(key);
    return slot != nullptr && *slot == kInProgress;
  }

  // Marks `key` as executing; the caller drops duplicates that arrive before
  // CompleteCall via InProgress().
  void BeginCall(const DrcKey& key) { *index_.Insert(key).first = kInProgress; }

  // Records the sealed reply `message`, which ends with `data` and its XDR
  // padding when `data.slab` is set, evicting the oldest completed entry
  // when the ring is full.
  void CompleteCall(const DrcKey& key, ByteSpan message, const ReplyPages& data = {});

  void Clear();

  size_t size() const { return count_; }

 private:
  // Ring capacities sit far below 2^32-1, so the top value is a free
  // in-progress sentinel in the slot index.
  static constexpr uint32_t kInProgress = 0xffffffffu;
  // A pinned run of a reply's page data, stored as raw bytes in its entry's
  // buffer.
  struct Piece {
    const uint8_t* bytes;
    uint32_t length;
    PageId page;
  };
  struct Entry {
    DrcKey key{};
    Bytes wire;  // reply bytes before the page data, the Pieces, their count
  };
  static uint32_t PieceCount(const Entry& e);
  static Piece PieceAt(const Entry& e, uint32_t count, uint32_t i);
  void Unpin(Entry& e);

  std::vector<Entry> ring_;
  FlatMap<DrcKey, uint32_t, DrcKeyHash> index_;
  PageSlab* slab_ = nullptr;  // the one slab every pinned page lives in
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
  //
  // The node serves one RPC program, `prog` version `vers`: a call for any
  // other is answered PROG_UNAVAIL here, at zero service cost, and never
  // reaches the subclass.
  RpcServerNode(Network& net, EventQueue& queue, NetAddr addr, NetPort port, uint32_t prog,
                uint32_t vers, RpcServerParams params = {}, const obs::Sinks& sinks = {});
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
  // once with the accept stat, the result and the accumulated cost. A
  // concrete copyable value (node pointer + call identity) rather than a
  // std::function — moving it through async continuation chains (the
  // small-file server's backing fetches) never allocates. The result is any
  // value with `Encode(XdrEncoder&)`, as RpcClient::Call takes its args, and
  // is encoded straight into the reply frame.
  class ReplyFn {
   public:
    ReplyFn() = default;
    template <typename Res>
      requires requires(const Res& r, XdrEncoder& enc) { r.Encode(enc); }
    void operator()(RpcAcceptStat stat, const Res& result, const ServiceCost& cost) {
      XdrEncoder reply = NewReplyEncoder();
      result.Encode(reply);
      node_->SendReply(key_, client_, trace_, stat, reply.Take(), cost);
    }
    // A rejection (a non-success accept stat) carries no result body.
    void operator()(RpcAcceptStat stat) {
      node_->SendReply(key_, client_, trace_, stat, NewReplyEncoder().Take(), ServiceCost{});
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

  // Subclass request handler, for a call to the node's program. Decodes args
  // from `call.body` (through Serve), encodes the procedure-specific result
  // into `reply` (an encoder over the reply's packet frame), reports
  // simulated time in `cost`. Returning a non-success accept stat drops
  // whatever `reply` holds.
  virtual RpcAcceptStat HandleCall(const RpcMessageView& call, XdrEncoder& reply,
                                   ServiceCost& cost) = 0;

  // Decodes `call`'s args as an Args (DecodeBody: READDIRPLUS takes its plus
  // flag from the procedure) and runs `handle(args)`. Args that do not
  // decode run nothing and yield GARBAGE_ARGS, which a handler returns (or
  // a DispatchCall passes to its ReplyFn) as the call's answer.
  template <typename Args, typename Handle>
  static RpcAcceptStat Serve(const RpcMessageView& call, Handle&& handle) {
    Result<Args> args = DecodeBody<Args>(call.body, call.proc);
    if (!args.ok()) {
      return RpcAcceptStat::kGarbageArgs;
    }
    handle(*args);
    return RpcAcceptStat::kSuccess;
  }

  // Dispatch hook. The default implementation runs HandleCall synchronously
  // into a fresh reply frame (NewReplyEncoder); servers whose handlers must
  // wait on their own network I/O (e.g. the small-file server fetching from
  // the storage array) override this and invoke `done` when the reply is
  // ready.
  virtual void DispatchCall(const RpcMessageView& call, const Endpoint& client, ReplyFn done);

  // Recovery hook; default does nothing.
  virtual void OnRestart() {}

  // Called by a HandleCall whose reply ends with `segments` (then their XDR
  // padding), views of `slab`'s pages `pages` (kNoPage for zeros). The DRC
  // records the reply with those pages pinned instead of copying the data.
  // A reply that is not a success pins nothing.
  void PinReplyData(PageSlab& slab, std::span<const ByteSpan> segments,
                    std::span<const PageId> pages) {
    reply_pages_ = ReplyPages{&slab, segments, pages};
  }

  // For subclasses that originate their own traffic (e.g. log writes).
  void SendPacket(Packet&& pkt) { host_->Send(std::move(pkt)); }

 private:
  void OnPacket(Packet&& pkt);
  // The single completion point: fills the envelope of the reply frame in
  // place (SealReplyFrame), records the reply in the DRC (with the page data
  // PinReplyData named), charges CPU/queue time, and sends the frame itself
  // as the reply packet at the service-done instant.
  void SendReply(const DrcKey& key, const Endpoint& client, const obs::TraceContext& trace,
                 RpcAcceptStat stat, Bytes&& frame, const ServiceCost& cost);

  Network& net_;
  EventQueue& queue_;
  std::unique_ptr<Host> host_;
  NetPort port_;
  uint32_t prog_;
  uint32_t vers_;
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
  ReplyPages reply_pages_;  // from PinReplyData, for the reply SendReply seals next
};

}  // namespace slice

#endif  // SLICE_RPC_RPC_SERVER_H_
