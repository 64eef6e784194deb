// The Slice µproxy: a request-switching packet filter interposed on a
// client's network path to the storage service (paper §2.1, §3, §4.1).
//
// It intercepts NFS packets addressed to the virtual server endpoint and:
//   * classifies each request (bulk I/O / small-file I/O / name space),
//   * selects a physical server via the configured routing policies
//     (threshold-split I/O, static or mirrored striping, optional
//     coordinator block maps; mkdir switching or name hashing for names),
//   * rewrites destination (requests) and source (replies) address/port with
//     incremental checksum adjustment,
//   * maintains soft state only: pending-request records, routing tables, a
//     file-attribute cache patched into every reply and written back to the
//     directory servers, and
//   * originates its own packets where an operation spans servers (mirrored
//     writes, multi-site commit, remove/truncate fan-out under coordinator
//     intention logging).
//
// Everything here may be discarded at any time (DropSoftState); end-to-end
// RPC retransmission recovers.
#ifndef SLICE_CORE_UPROXY_H_
#define SLICE_CORE_UPROXY_H_

#include <memory>
#include <optional>
#include <unordered_map>

#include "src/coord/coord_proto.h"
#include "src/core/attr_cache.h"
#include "src/core/pending_map.h"
#include "src/core/request_decode.h"
#include "src/core/routing_table.h"
#include "src/dir/dir_server.h"
#include "src/mgmt/mgmt_proto.h"
#include "src/net/host.h"
#include "src/obs/eventlog.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/sinks.h"
#include "src/obs/trace.h"
#include "src/rpc/rpc_client.h"
#include "src/sim/stats.h"

namespace slice {

struct UproxyConfig {
  Endpoint virtual_server;
  std::vector<Endpoint> dir_servers;         // logical site -> physical
  std::vector<Endpoint> small_file_servers;  // may be empty
  std::vector<Endpoint> storage_nodes;
  std::vector<Endpoint> coordinators;        // may be empty

  NamePolicy name_policy = NamePolicy::kMkdirSwitching;
  double mkdir_redirect_probability = 0.25;  // p (mkdir switching only)
  uint32_t threshold = 65536;                // small-file threshold offset
  uint32_t stripe_unit = 32768;              // bulk striping unit
  bool use_block_maps = false;               // dynamic placement via coordinator

  size_t logical_name_slots = 64;
  size_t attr_cache_entries = 65536;
  SimTime attr_writeback_interval = FromSeconds(1);

  // Fleet routing (PR 7): rendezvous (HRW) hashing for storage striping and
  // small-file selection, so node add/remove moves only the minimal key
  // range instead of reshuffling nearly everything (modular placement).
  bool rendezvous_routing = false;
  // In-proxy metadata cache: serve LOOKUP (and complete GETATTR) replies
  // from the interposition point; entries are invalidated per logical name
  // slot when an epoch-stamped table push rebinds their slot.
  bool proxy_cache = false;
  size_t lookup_cache_entries = 4096;
  SimTime proxy_cache_ttl = 0;  // 0 = entries live until invalidated
  double per_packet_cpu_us = 10.0;  // client-side interposition cost
  // Per-byte CPU cost of duplicating a mirrored write's payload for each
  // extra replica ("the client host writes to both mirrors", §5).
  double mirror_copy_ns_per_byte = 8.0;

  // Ensemble control plane (src/mgmt) integration. When enabled the µproxy
  // accepts epoch-stamped table pushes and misdirect notices on
  // `control_port`, fetches fresh tables from `manager` on stale-epoch or
  // repeated-retransmission suspicion, routes around storage/SFS nodes the
  // manager has declared dead, and reports degraded mirrored writes to the
  // coordinator for later resync.
  bool mgmt_enabled = false;
  Endpoint manager;
  NetPort control_port = kMgmtClientPort;
  // Retransmission policy for µproxy-originated calls. The ensemble tightens
  // this when mgmt is on so fan-outs to a just-died node fail well inside the
  // client's own retransmission budget.
  RpcClientParams own_rpc_params;
};

class Uproxy : public PacketTap {
 public:
  // Installs itself as the tap on `client_host`'s network path.
  //
  // Observability (`sinks`, all four pillars; its own RpcClient gets the
  // tracer and the event log). The µproxy is where traces begin: each
  // intercepted client request is assigned a trace id, its root span spans
  // intercept to reply delivery, and the context is attached to every
  // forwarded packet. Routing decisions, misdirect-driven reloads, table
  // installs and soft-state drops are logged with the request's trace id.
  // Route-mix and soft-state counters are provider-backed over the
  // OpCounters the µproxy already keeps; only the per-request CPU histogram
  // and the cache hit/miss counters touch the hot path. The profiler gets
  // per-stage wall scopes plus cpu/queue ledger charges at the interposition
  // CPU, through a ledger pointer cached here.
  Uproxy(Network& net, EventQueue& queue, Host& client_host, UproxyConfig config,
         const obs::Sinks& sinks = {});
  ~Uproxy() override;

  void HandleOutbound(Packet&& pkt) override;
  void HandleInbound(Packet&& pkt) override;

  // Discards all soft state (pending records, attribute cache, block-map
  // cache). Correctness must survive this (paper §2.1).
  void DropSoftState();

  // Reconfiguration: reload the directory-server routing table.
  void ReloadDirServers(std::vector<Endpoint> servers) { dir_table_.Reload(std::move(servers)); }
  RoutingTable& dir_table() { return dir_table_; }

  // Directory server owning fileID-embedded site `site`. Fixed placement by
  // default (site -> site % N); a manager-installed table rebinds dead sites
  // to their adopters without disturbing the name-hash slot table.
  Endpoint DirServerForSite(uint64_t site) const {
    if (!dir_site_binding_.empty()) {
      return dir_table_.ByPhysical(dir_site_binding_[site % dir_site_binding_.size()]);
    }
    return dir_table_.ByPhysical(site);
  }

  // Installs a manager-computed table set. Stale epochs are ignored unless
  // `force` (tests use force to simulate a µproxy that missed pushes).
  // Returns true if the tables were installed.
  bool InstallTables(const MgmtTableSet& tables, bool force = false);
  uint64_t table_epoch() const { return table_epoch_; }
  bool StorageAlive(uint32_t node) const {
    return storage_alive_.empty() || (node < storage_alive_.size() && storage_alive_[node] != 0);
  }
  bool SfsAlive(uint32_t index) const {
    return sfs_alive_.empty() || (index < sfs_alive_.size() && sfs_alive_[index] != 0);
  }

  const OpCounters& counters() const { return counters_; }
  // Proxy CPU busy-time accounting (the profiler's coverage reference).
  const BusyResource& cpu() const { return cpu_; }
  const AttrCache& attr_cache() const { return attr_cache_; }
  const LookupCache& lookup_cache() const { return lookup_cache_; }
  size_t pending_count() const { return pending_.size(); }

  // Appends the trace ids of requests currently pending at this proxy
  // (deduped and sorted by the caller); the flight recorder snapshots these
  // so a dump names the requests that never completed.
  void CollectInflightTraceIds(std::vector<uint64_t>& out) const {
    pending_.ForEach([&out](uint64_t, const Pending& pending) {
      if (pending.trace_id != 0) {
        out.push_back(pending.trace_id);
      }
    });
  }

  // --- routing decisions, exposed for tests and the Table 3 bench ---

  // Target server class for one decoded request.
  enum class RouteClass : uint8_t {
    kDirServer,      // simple rewrite to a directory server
    kSmallFile,      // simple rewrite to a small-file server
    kStorage,        // simple rewrite to one storage node
    kMirrorWrite,    // absorb + fan out to replicas
    kMultiCommit,    // absorb + commit fan-out (+ intent)
    kPassThrough,    // not NFS / not ours
    kUnavailable,    // every server that could answer is dead; fail fast
  };

  struct RouteDecision {
    RouteClass cls = RouteClass::kPassThrough;
    Endpoint target;
    uint32_t storage_index = 0;  // selected node (kStorage)
    Nfsstat3 error = Nfsstat3::kOk;  // synthesized status (kUnavailable)
  };

  // `payload` is the UDP payload the view was decoded from (names are
  // payload offsets).
  RouteDecision SelectRoute(const DecodedView& req, ByteSpan payload);

  // Storage-node index for (file, byte offset) under static striping;
  // `replica` < fh.replication() selects a mirror.
  uint32_t StripeSite(const FileHandle& fh, uint64_t offset, uint32_t replica = 0) const;

 private:
  struct Pending {
    NfsProc proc = NfsProc::kNull;
    FileHandle fh;
    uint64_t offset = 0;
    uint32_t count = 0;
    bool absorbed = false;  // fan-out in progress; drop duplicate requests
    // Client retransmissions seen; repeated retransmission of the same call
    // suggests a stale routing table (the target may be dead).
    uint8_t retransmits = 0;
    // Trace root assigned at intercept (0 when tracing is off).
    uint64_t trace_id = 0;
    uint64_t root_span_id = 0;
    SimTime trace_start = 0;
    // Name fingerprint of an in-flight LOOKUP (proxy cache fill key; 0 when
    // the proxy cache is off or the op is not a lookup).
    uint64_t name_fp = 0;
    // Tenant tag (AUTH_SYS uid) and first-forward time: the µproxy is the
    // end-to-end QoS observation point, so per-tenant latency is measured
    // from first forward to reply delivery (client retransmissions keep the
    // original issue time).
    uint32_t tenant = 0;
    SimTime issued_at = 0;
  };
  static uint64_t KeyOf(NetPort port, uint32_t xid) {
    return (static_cast<uint64_t>(port) << 32) | xid;
  }

  NfsTime Now() const;
  // What the µproxy-originated RpcClient sees of the pillars.
  obs::Sinks OwnRpcSinks() const { return obs::Sinks{.tracer = tracer_, .eventlog = eventlog_}; }
  SimTime ChargeCpu();
  // Traced variant: records queue + cpu spans for the charge under `ctx`.
  SimTime ChargeCpu(const obs::TraceContext& ctx);

  // Trace bookkeeping: mints (or re-uses, on client retransmission) the
  // trace root for `pending`, recording a `route` marker on first sight.
  obs::TraceContext BeginTrace(Pending& pending, const char* route);
  // Records the root span for a completed operation ending at `end`.
  void FinishTrace(const Pending& pending, SimTime end);

  // Simple rewrite-and-forward path (allocation-free in steady state).
  void ForwardRequest(Packet&& pkt, const DecodedView& req, Endpoint target,
                      const char* route);
  void PassThroughOutbound(Packet&& pkt);

  // Absorb paths (the µproxy acts as a client toward the ensemble).
  void AbsorbMirrorWrite(const DecodedView& req, Endpoint client, ByteSpan payload);
  void AbsorbMultiCommit(const DecodedView& req, Endpoint client);
  // Background fan-outs triggered by observed name-space operations.
  void ScheduleDataRemove(const FileHandle& fh);
  void ScheduleDataTruncate(const FileHandle& fh, uint64_t size);

  // Sends a synthesized NFS reply to the local client.
  void ReplyToClient(Endpoint client, uint32_t xid, const Bytes& result_body);
  // Synthesizes a proc-appropriate error reply (dead-server fail-fast path).
  // `tenant` attributes the failure when no pending record exists to carry it.
  void SynthesizeErrorReply(NfsProc proc, uint32_t xid, Endpoint client, Nfsstat3 status,
                            uint32_t tenant = 0);

  // Per-tenant QoS accounting against the hub-owned tenant instruments:
  // O(1) array index, Counter::Add / LatencyStats::Record only — nothing on
  // this path allocates (fastpath_alloc_test holds with tenants on).
  void AccountTenant(uint32_t tenant, NfsProc proc, uint32_t nbytes, SimTime latency,
                     uint64_t trace_id, bool error);

  // Control-plane integration.
  void HandleControl(ByteSpan payload);
  void FetchTables();
  void LogDegradedWrite(const FileHandle& fh, uint64_t offset, uint32_t count,
                        uint32_t node, std::function<void(bool)> cb);

  // In-proxy metadata cache (proxy_cache). The serve paths are zero-alloc in
  // steady state: probe is a hash find + LRU splice, the reply is encoded
  // into the reused `reply_enc_` and carried by a pool-backed packet.
  // Each returns true when the request was answered from the cache.
  bool TryServeLookup(const Packet& pkt, const DecodedView& req, uint64_t name_fp);
  bool TryServeGetattr(const Packet& pkt, const DecodedView& req);
  // Delivers `reply_enc_`'s current contents to the local client; returns
  // the CPU-done delivery instant (cache-hit latency for QoS accounting).
  SimTime SendCachedReply(Endpoint client);
  // Conservative request-time invalidation for name-mutating operations.
  void InvalidateOnNameOp(const DecodedView& req, ByteSpan payload);
  // Reply-side cache fill from a successful LOOKUP.
  void FillLookupCache(const Packet& pkt, const Pending& pending);

  // Reply-side attribute patching.
  void PatchReplyAttrs(Packet& pkt, const Pending& pending, const DecodedReply& reply);
  // Finds the absolute packet offset of the target file's fattr3 within the
  // reply, or nullopt. Exposed via FRIEND_TEST-free design: tests go through
  // public packet behavior instead.
  std::optional<size_t> LocateTargetAttr(ByteSpan payload, const Pending& pending,
                                         const DecodedReply& reply) const;

  // Attribute writeback to the directory service.
  void WritebackAttrs(uint64_t fileid, const Fattr3& attr);
  void FlushDirtyAttrs();
  void ArmWritebackTimer();

  // Coordinator helpers.
  Endpoint CoordinatorFor(const FileHandle& fh) const;
  void WithIntent(IntentOp op, const FileHandle& fh, uint64_t arg,
                  std::function<void(std::function<void()> complete)> body);

  // Typed µproxy-originated NFS calls.
  void OwnWrite(Endpoint server, const FileHandle& fh, uint64_t offset, ByteSpan data,
                StableHow stable, std::function<void(Status, const WriteRes&)> cb);
  void OwnCommit(Endpoint server, const FileHandle& fh,
                 std::function<void(Status, const CommitRes&)> cb);
  void OwnSetattrSize(Endpoint server, const FileHandle& fh, uint64_t size,
                      std::function<void(Status)> cb);
  void OwnRemoveObject(Endpoint server, const FileHandle& fh, std::function<void(Status)> cb);
  void OwnLookup(Endpoint server, const FileHandle& dir, const std::string& name,
                 std::function<void(Status, const LookupRes&)> cb);

  Network& net_;
  EventQueue& queue_;
  Host& client_host_;
  UproxyConfig config_;
  RoutingTable dir_table_;
  RoutingTable sfs_table_;
  AttrCache attr_cache_;
  LookupCache lookup_cache_;
  obs::Tracer* tracer_ = nullptr;
  obs::EventLog* eventlog_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  uint64_t* prof_ledger_ = nullptr;  // cached LedgerFor(client host); null when off
  // Hot-path instruments (null when metrics are off — see obs::Inc/Observe).
  obs::Histogram* m_cpu_ = nullptr;
  obs::Counter* m_attr_hits_ = nullptr;
  obs::Counter* m_attr_misses_ = nullptr;
  obs::Counter* m_lookup_hits_ = nullptr;
  obs::Counter* m_lookup_misses_ = nullptr;
  // Tenant instrument LUT (hub-owned, stable storage; index j = tenant j+1).
  obs::TenantInstruments* tenant_data_ = nullptr;
  uint32_t tenant_count_ = 0;
  std::unique_ptr<RpcClient> own_rpc_;  // µproxy-originated traffic
  BusyResource cpu_;
  // Flat open-addressing table: pending insert/erase is once per forwarded
  // request and must not allocate in steady state.
  FlatU64Map<Pending> pending_;
  // Scratch encoder for reply attribute patching (capacity reused).
  XdrEncoder patch_enc_;
  // Scratch encoder for cache-served replies (capacity reused).
  XdrEncoder reply_enc_;
  // Scratch slot-changed bitmap for epoch invalidation (capacity reused).
  std::vector<uint8_t> changed_slots_;
  // Block-map cache (dynamic placement): fileid -> site per block.
  std::unordered_map<uint64_t, std::vector<uint32_t>> map_cache_;
  OpCounters counters_;
  // Control-plane view: epoch of the installed tables plus liveness bits for
  // the identity-bound server classes (empty = everything assumed alive).
  uint64_t table_epoch_ = 0;
  // fileID-embedded site -> physical dir index (empty = identity placement).
  std::vector<uint32_t> dir_site_binding_;
  std::vector<uint8_t> storage_alive_;
  std::vector<uint8_t> sfs_alive_;
  bool table_fetch_inflight_ = false;
  bool writeback_timer_armed_ = false;
  // Guards event-queue callbacks against running after destruction.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace slice

#endif  // SLICE_CORE_UPROXY_H_
