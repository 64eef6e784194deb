#include "src/core/uproxy.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "src/common/logging.h"
#include "src/nfs/nfs_client.h"

namespace slice {
namespace {

constexpr size_t kMaxPending = 8192;
constexpr size_t kAttrCacheEntries = 65536;
constexpr size_t kLookupCacheEntries = 4096;
// Per-byte CPU cost of duplicating a mirrored write's payload for each extra
// replica ("the client host writes to both mirrors", §5).
constexpr double kMirrorCopyNsPerByte = 8.0;

// Coin in [0,1) derived from the (parent, name) fingerprint, so retransmitted
// mkdirs take the same redirect decision (paper §3.2).
double RedirectCoin(uint64_t fingerprint) {
  return static_cast<double>(MixU64(fingerprint) >> 11) * 0x1.0p-53;
}

// NFS procedure -> coarse tenant op class (per-tenant accounting buckets).
obs::TenantOpClass ClassOfProc(NfsProc proc) {
  switch (proc) {
    case NfsProc::kRead:
      return obs::TenantOpClass::kRead;
    case NfsProc::kWrite:
    case NfsProc::kCommit:
      return obs::TenantOpClass::kWrite;
    case NfsProc::kLookup:
    case NfsProc::kCreate:
    case NfsProc::kMkdir:
    case NfsProc::kSymlink:
    case NfsProc::kRemove:
    case NfsProc::kRmdir:
    case NfsProc::kRename:
    case NfsProc::kLink:
    case NfsProc::kReaddir:
    case NfsProc::kReaddirplus:
      return obs::TenantOpClass::kName;
    case NfsProc::kGetattr:
    case NfsProc::kSetattr:
    case NfsProc::kAccess:
      return obs::TenantOpClass::kAttr;
    default:
      return obs::TenantOpClass::kOther;
  }
}

}  // namespace

Uproxy::Uproxy(Network& net, EventQueue& queue, Host& client_host, UproxyConfig config,
               const obs::Sinks& sinks)
    : net_(net),
      queue_(queue),
      client_host_(client_host),
      config_(std::move(config)),
      attr_cache_(kAttrCacheEntries),
      lookup_cache_(kLookupCacheEntries),
      tracer_(sinks.tracer),
      eventlog_(sinks.eventlog),
      profiler_(sinks.profiler),
      prof_ledger_(profiler_ != nullptr ? profiler_->LedgerFor(client_host_.addr()) : nullptr),
      owner_(queue) {
  SLICE_CHECK(!config_.dir_servers.empty());
  SLICE_CHECK(!config_.storage_nodes.empty());
  dir_table_ = RoutingTable(kDefaultLogicalSlots, config_.dir_servers);
  if (!config_.small_file_servers.empty()) {
    sfs_table_ = RoutingTable(kDefaultLogicalSlots, config_.small_file_servers);
    if (config_.rendezvous_routing) {
      // HRW slot fill: a small-file server's death (manager-installed
      // assignment) or addition rebinds only the slots it owns/wins.
      sfs_table_.InstallAssignment(
          0, config_.small_file_servers,
          RendezvousAssignment(kDefaultLogicalSlots, config_.small_file_servers.size()));
    }
  }
  own_rpc_ =
      std::make_unique<RpcClient>(client_host_, queue_, config_.own_rpc_params, OwnRpcSinks());
  net_.InstallTap(client_host_.addr(), this);
  if (profiler_ != nullptr) {
    profiler_->AddBusyProvider([this](std::map<uint32_t, uint64_t>* out) {
      (*out)[client_host_.addr()] += static_cast<uint64_t>(cpu_.total_busy_time());
    });
  }
  obs::Metrics* metrics = sinks.metrics;
  if (metrics == nullptr || !metrics->enabled()) {
    return;
  }
  obs::MetricsRegistry& reg = metrics->Registry(client_host_.addr());
  // Hot-path instruments.
  m_cpu_ = reg.GetHistogram("uproxy_cpu_ns");
  m_attr_hits_ = reg.GetCounter("uproxy_attr_hits");
  m_attr_misses_ = reg.GetCounter("uproxy_attr_misses");
  // Route mix and soft-state counters: providers over the OpCounters the
  // µproxy already maintains — nothing new on the request path.
  static constexpr std::pair<const char*, const char*> kFromOpCounters[] = {
      {"uproxy_intercepted", "intercepted"},
      {"uproxy_pass_through", "pass_through"},
      {"uproxy_duplicates_absorbed", "duplicate_absorbed"},
      {"uproxy_route_dir", "routed_dir"},
      {"uproxy_route_sfs", "routed_sfs"},
      {"uproxy_route_storage", "routed_storage"},
      {"uproxy_mirrored_writes", "mirrored_writes"},
      {"uproxy_small_commits", "small_commits"},
      {"uproxy_multi_commits", "multi_commits"},
      {"uproxy_unavailable_rejected", "unavailable_rejected"},
      {"uproxy_map_fetches", "map_fetches"},
      {"uproxy_attrs_patched", "attrs_patched"},
      {"uproxy_table_installs", "table_installs"},
      {"uproxy_table_fetches", "table_fetches"},
      {"uproxy_misdirect_notices", "misdirect_notices"},
      {"uproxy_soft_state_drops", "soft_state_drops"},
  };
  for (const auto& [metric, op] : kFromOpCounters) {
    reg.GetCounter(metric)->SetProvider(
        [this, op = std::string_view(op)]() { return counters_.Get(op); });
  }
  if (config_.proxy_cache) {
    // Registered only when the proxy cache is on so metrics snapshots of
    // cache-off runs stay byte-identical to earlier builds.
    static constexpr std::pair<const char*, const char*> kCacheFromOpCounters[] = {
        {"uproxy_cache_lookup_hits", "cache_lookup_hits"},
        {"uproxy_cache_lookup_misses", "cache_lookup_misses"},
        {"uproxy_cache_getattr_hits", "cache_getattr_hits"},
        {"uproxy_cache_flushed_entries", "cache_flushed_entries"},
    };
    for (const auto& [metric, op] : kCacheFromOpCounters) {
      reg.GetCounter(metric)->SetProvider(
          [this, op = std::string_view(op)]() { return counters_.Get(op); });
    }
    reg.GetCounter("uproxy_lookup_cache_evictions")
        ->SetProvider([this]() { return lookup_cache_.evictions(); });
    reg.GetGauge("uproxy_lookup_cache_size")->SetProvider([this]() {
      return static_cast<int64_t>(lookup_cache_.size());
    });
  }
  reg.GetCounter("uproxy_attr_evictions")->SetProvider(
      [this]() { return attr_cache_.evictions(); });
  reg.GetCounter("uproxy_own_retransmits")->SetProvider(
      [this]() { return own_rpc_->retransmissions(); });
  reg.GetGauge("uproxy_pending")->SetProvider(
      [this]() { return static_cast<int64_t>(pending_.size()); });
  reg.GetGauge("uproxy_table_epoch")->SetProvider(
      [this]() { return static_cast<int64_t>(table_epoch_); });
  // Tenant plane: cache the hub's preallocated instrument array so the hot
  // path is one bounds check and an array index (no map, no allocation).
  tenant_data_ = metrics->TenantData();
  tenant_count_ = metrics->num_tenants();
}

Uproxy::~Uproxy() { net_.RemoveTap(client_host_.addr()); }

void Uproxy::AccountTenant(uint32_t tenant, NfsProc proc, uint32_t nbytes, SimTime latency,
                           uint64_t trace_id, bool error) {
  if (tenant == 0 || tenant > tenant_count_) {
    return;  // untenanted/system traffic, or a tag we were not configured for
  }
  tenant_data_[tenant - 1].Account(ClassOfProc(proc), nbytes, latency, trace_id,
                                   queue_.now(), error);
}

NfsTime Uproxy::Now() const {
  return NfsTime{static_cast<uint32_t>(queue_.now() / kNanosPerSec),
                 static_cast<uint32_t>(queue_.now() % kNanosPerSec)};
}

SimTime Uproxy::ChargeCpu(const obs::TraceContext& ctx) {
  const SimTime now = queue_.now();
  const SimTime start = std::max(cpu_.busy_until(), now);
  const SimTime done = cpu_.Acquire(now, FromMicros(config_.per_packet_cpu_us));
  obs::ChargeSim(prof_ledger_, obs::LedgerCat::kQueue, start - now);
  obs::ChargeSim(prof_ledger_, obs::LedgerCat::kCpu, done - start);
  obs::Observe(m_cpu_, done - now);
  if (tracer_ != nullptr && ctx.valid()) {
    if (start > now) {
      tracer_->RecordSpan(client_host_.addr(), ctx, obs::SpanCat::kQueue, "uproxy_cpu_wait",
                          now, start);
    }
    if (done > start) {
      tracer_->RecordSpan(client_host_.addr(), ctx, obs::SpanCat::kCpu, "uproxy_cpu", start,
                          done);
    }
  }
  return done;
}

obs::TraceContext Uproxy::BeginTrace(Pending& pending, const char* route) {
  if (tracer_ == nullptr || !tracer_->enabled()) {
    return obs::TraceContext{};
  }
  if (pending.trace_id == 0) {
    pending.trace_id = tracer_->NewTraceId();
    pending.root_span_id = tracer_->NewSpanId();
    pending.trace_start = queue_.now();
    tracer_->RecordInstant(client_host_.addr(),
                           obs::TraceContext{pending.trace_id, pending.root_span_id}, route,
                           queue_.now());
  } else {
    tracer_->RecordInstant(client_host_.addr(),
                           obs::TraceContext{pending.trace_id, pending.root_span_id},
                           "client_retransmit", queue_.now());
  }
  return obs::TraceContext{pending.trace_id, pending.root_span_id};
}

void Uproxy::FinishTrace(const Pending& pending, SimTime end) {
  if (tracer_ == nullptr || pending.trace_id == 0) {
    return;
  }
  char name[obs::kSpanNameCap];
  std::snprintf(name, sizeof(name), "op:%s", NfsProcName(pending.proc));
  tracer_->RecordSpan(client_host_.addr(),
                      obs::TraceContext{pending.trace_id, pending.root_span_id},
                      obs::SpanCat::kOther, name, pending.trace_start, end, /*root=*/true);
}

void Uproxy::DropSoftState() {
  pending_.Clear();
  attr_cache_.Clear();
  lookup_cache_.Clear();
  map_cache_.clear();
  // "It is free to discard its state and/or pending packets without
  // compromising correctness" (§2.1): in-flight µproxy-originated calls die
  // too; coordinators finish any orphaned multi-site operations.
  own_rpc_ =
      std::make_unique<RpcClient>(client_host_, queue_, config_.own_rpc_params, OwnRpcSinks());
  table_fetch_inflight_ = false;
  counters_.Add("soft_state_drops");
  obs::LogEvent(eventlog_, client_host_.addr(), queue_.now(), obs::EventSev::kWarn,
                obs::EventCat::kCache, obs::EventCode::kSoftStateDrop);
}

uint32_t Uproxy::StripeSite(const FileHandle& fh, uint64_t offset, uint32_t replica) const {
  if (config_.rendezvous_routing) {
    return RendezvousStripeSite(Fnv1a64(fh.bytes()), offset, config_.stripe_unit,
                                config_.storage_nodes.size(), replica);
  }
  return StripeSiteFor(fh, offset, config_.stripe_unit,
                       static_cast<uint32_t>(config_.storage_nodes.size()), replica);
}

Uproxy::RouteDecision Uproxy::SelectRoute(const DecodedView& req, ByteSpan payload) {
  const NfsProc proc = req.proc;
  const FileHandle& fh = req.fh;
  const uint64_t offset = req.offset;
  RouteDecision out;
  switch (proc) {
    case NfsProc::kNull:
    case NfsProc::kFsstat:
    case NfsProc::kFsinfo:
      out.cls = RouteClass::kDirServer;
      out.target = DirServerForSite(0);
      return out;

    case NfsProc::kGetattr:
    case NfsProc::kSetattr:
    case NfsProc::kAccess:
    case NfsProc::kReadlink:
    case NfsProc::kReaddir:
    case NfsProc::kReaddirplus:
      // fhandle-keyed: fixed placement embeds the owning site in the fileID;
      // a manager-installed binding rebinds a dead site to its adopter.
      out.cls = RouteClass::kDirServer;
      out.target = DirServerForSite(SiteOfFileid(fh.fileid()));
      return out;

    case NfsProc::kLookup:
    case NfsProc::kCreate:
    case NfsProc::kSymlink:
    case NfsProc::kRemove:
    case NfsProc::kRmdir:
    case NfsProc::kLink:
    case NfsProc::kRename: {
      out.cls = RouteClass::kDirServer;
      if (config_.name_policy == NamePolicy::kNameHashing) {
        out.target = dir_table_.Lookup(NameFingerprint(fh, req.name(payload)));
      } else {
        out.target = DirServerForSite(SiteOfFileid(fh.fileid()));
      }
      return out;
    }

    case NfsProc::kMkdir: {
      out.cls = RouteClass::kDirServer;
      const uint64_t fingerprint = NameFingerprint(fh, req.name(payload));
      if (config_.name_policy == NamePolicy::kNameHashing) {
        out.target = dir_table_.Lookup(fingerprint);
      } else if (RedirectCoin(fingerprint) < config_.mkdir_redirect_probability) {
        // Mkdir switching: place the new directory (and its descendants) on
        // a different site chosen by hash — races involve at most two sites.
        out.target = dir_table_.Lookup(fingerprint);
      } else {
        out.target = DirServerForSite(SiteOfFileid(fh.fileid()));
      }
      return out;
    }

    case NfsProc::kRead:
    case NfsProc::kWrite: {
      const bool small = !config_.small_file_servers.empty() && offset < config_.threshold;
      if (small) {
        // Small-file slots are identity-bound (a replacement server would not
        // have the file data), so a dead SFS fails fast with a retryable
        // error instead of misrouting.
        const uint32_t sfs = sfs_table_.PhysicalIndexFor(MixU64(fh.fileid()));
        if (!SfsAlive(sfs)) {
          out.cls = RouteClass::kUnavailable;
          out.error = Nfsstat3::kErrJukebox;
          return out;
        }
        out.cls = RouteClass::kSmallFile;
        out.target = sfs_table_.Lookup(MixU64(fh.fileid()));
        return out;
      }
      const uint32_t replication = std::max<uint32_t>(1, fh.replication());
      if (proc == NfsProc::kWrite && replication > 1) {
        out.cls = RouteClass::kMirrorWrite;
        return out;
      }
      // Mirrored reads alternate between the replicas to balance load; a
      // replica the manager declared dead is skipped (mirrored-partner
      // promotion). With every replica dead, fail fast instead of hanging.
      const uint32_t replica =
          replication > 1
              ? static_cast<uint32_t>((offset / config_.stripe_unit) % replication)
              : 0;
      uint32_t node = StripeSite(fh, offset, replica);
      if (!StorageAlive(node)) {
        bool found = false;
        for (uint32_t step = 1; step < replication && !found; ++step) {
          const uint32_t alt = StripeSite(fh, offset, (replica + step) % replication);
          if (StorageAlive(alt)) {
            node = alt;
            found = true;
          }
        }
        if (!found) {
          out.cls = RouteClass::kUnavailable;
          out.error = Nfsstat3::kErrIo;
          return out;
        }
        counters_.Add("failover_redirects");
        obs::LogEvent(eventlog_, client_host_.addr(), queue_.now(), obs::EventSev::kWarn,
                      obs::EventCat::kRoute, obs::EventCode::kRouteFailoverRedirect,
                      /*trace_id=*/0, nullptr, {{"node", node}});
      }
      out.cls = RouteClass::kStorage;
      out.storage_index = node;
      out.target = config_.storage_nodes[node];
      return out;
    }

    case NfsProc::kCommit: {
      // A commit may cover data on several sites (striped blocks, mirrors,
      // the small-file portion); fan out unless one storage node holds
      // everything.
      if (config_.storage_nodes.size() > 1 || !config_.small_file_servers.empty() ||
          fh.replication() > 1) {
        out.cls = RouteClass::kMultiCommit;
        return out;
      }
      if (!StorageAlive(0)) {
        out.cls = RouteClass::kUnavailable;
        out.error = Nfsstat3::kErrIo;
        return out;
      }
      out.cls = RouteClass::kStorage;
      out.storage_index = 0;
      out.target = config_.storage_nodes[0];
      return out;
    }

    default:
      out.cls = RouteClass::kPassThrough;
      return out;
  }
}

void Uproxy::PassThroughOutbound(Packet&& pkt) {
  counters_.Add("pass_through");
  net_.Inject(std::move(pkt));
}

void Uproxy::HandleOutbound(Packet&& pkt) {
  if (!(pkt.dst() == config_.virtual_server)) {
    net_.Inject(std::move(pkt));
    return;
  }
  obs::Profiler::Scope prof(profiler_, obs::ProfScope::kUproxyOutbound);
  // First sight decodes once; a retransmission that already carries the
  // cached view (e.g. re-forwarded by the RPC layer) skips the parse.
  DecodedView req;
  {
    obs::Profiler::Scope prof_decode(profiler_, obs::ProfScope::kUproxyDecode);
    if (!pkt.get_view(kDecodedViewTag, &req)) {
      if (!DecodeNfsRequestView(pkt.payload(), &req).ok()) {
        PassThroughOutbound(std::move(pkt));
        return;
      }
      pkt.set_view(kDecodedViewTag, req);
    }
  }
  counters_.Add("intercepted");

  const uint64_t key = KeyOf(pkt.src_port(), req.xid);
  {
    obs::Profiler::Scope prof_soft(profiler_, obs::ProfScope::kUproxySoftState);
    if (const Pending* dup = pending_.Find(key); dup != nullptr && dup->absorbed) {
      counters_.Add("duplicate_absorbed");
      return;  // fan-out already in flight; our own RPC layer retransmits
    }
  }

  // Dynamic placement: bulk I/O consults the coordinator block maps.
  if (config_.use_block_maps && !config_.coordinators.empty() &&
      (req.proc == NfsProc::kRead || req.proc == NfsProc::kWrite) &&
      (config_.small_file_servers.empty() || req.offset >= config_.threshold)) {
    const uint64_t block = req.offset / config_.stripe_unit;
    auto map_it = map_cache_.find(req.fh.fileid());
    if (map_it == map_cache_.end() || map_it->second.size() <= block ||
        map_it->second[block] == kUnmappedBlock) {
      // Hold the request, fetch a map fragment, then route.
      counters_.Add("map_fetches");
      GetMapArgs margs;
      margs.file = req.fh;
      margs.first_block = block;
      margs.count = 64;
      margs.allocate = req.proc == NfsProc::kWrite;
      auto held = std::make_shared<Packet>(std::move(pkt));
      CallTyped<GetMapRes>(
          *own_rpc_, CoordinatorFor(req.fh), kCoordProgram, kCoordVersion,
          static_cast<uint32_t>(CoordProc::kGetMap), margs,
          [this, held, req](Status st, const GetMapRes& res) {
            if (st.ok()) {
              std::vector<uint32_t>& map = map_cache_[req.fh.fileid()];
              if (map.size() < res.first_block + res.sites.size()) {
                map.resize(res.first_block + res.sites.size(), kUnmappedBlock);
              }
              for (size_t i = 0; i < res.sites.size(); ++i) {
                map[res.first_block + i] = res.sites[i];
              }
            }
            // Re-process; a still-unmapped read block falls back to static
            // striping (reading a hole).
            const uint64_t blk = req.offset / config_.stripe_unit;
            const std::vector<uint32_t>& map = map_cache_[req.fh.fileid()];
            Endpoint target;
            if (blk < map.size() && map[blk] != kUnmappedBlock) {
              target = config_.storage_nodes[map[blk] % config_.storage_nodes.size()];
            } else {
              target = config_.storage_nodes[StripeSite(req.fh, req.offset)];
            }
            ForwardRequest(std::move(*held), req, target, "route:map");
          });
      return;
    }
    const Endpoint target =
        config_.storage_nodes[map_it->second[block] % config_.storage_nodes.size()];
    ForwardRequest(std::move(pkt), req, target, "route:map");
    return;
  }

  RouteDecision route;
  {
    obs::Profiler::Scope prof_route(profiler_, obs::ProfScope::kUproxyRoute);
    route = SelectRoute(req, pkt.payload());
  }
  switch (route.cls) {
    case RouteClass::kPassThrough:
      PassThroughOutbound(std::move(pkt));
      return;
    case RouteClass::kUnavailable:
      counters_.Add("unavailable_rejected");
      obs::LogEvent(eventlog_, client_host_.addr(), queue_.now(), obs::EventSev::kError,
                    obs::EventCat::kRoute, obs::EventCode::kRouteUnavailable, /*trace_id=*/0,
                    NfsProcName(req.proc), {{"xid", req.xid}});
      SynthesizeErrorReply(req.proc, req.xid, pkt.src(), route.error, req.tenant);
      return;
    case RouteClass::kDirServer: {
      if (config_.proxy_cache) {
        if (req.proc == NfsProc::kLookup) {
          if (TryServeLookup(pkt, req,
                             NameFingerprint(req.fh, req.name(pkt.payload())))) {
            return;
          }
        } else if (req.proc == NfsProc::kGetattr) {
          if (TryServeGetattr(pkt, req)) {
            return;
          }
        } else {
          // Name-mutating ops invalidate at request time: conservative (the
          // op may yet fail) but never serves a name past its removal.
          InvalidateOnNameOp(req, pkt.payload());
        }
      }
      counters_.Add("routed_dir");
      // Removes need the victim's identity to reclaim its data afterwards;
      // ask ahead (FIFO ordering guarantees the lookup is served first).
      if (req.proc == NfsProc::kRemove) {
        CallNfs<LookupRes>(*own_rpc_, route.target, NfsProc::kLookup,
                           DirOpArgs{req.fh, std::string(req.name(pkt.payload()))},
                           [this, key](Status st, const LookupRes& res) {
                             Pending* p = pending_.Find(key);
                             if (!st.ok() || p == nullptr || res.status != Nfsstat3::kOk) {
                               return;
                             }
                             // Only reclaim data when the last link goes away.
                             if (res.object.type() == FileType3::kReg && res.obj_attributes &&
                                 res.obj_attributes->nlink <= 1) {
                               p->fh = res.object;
                               p->count = 1;  // marks "data removal armed"
                             }
                           });
      }
      ForwardRequest(std::move(pkt), req, route.target, "route:dir");
      return;
    }
    case RouteClass::kSmallFile:
      counters_.Add("routed_sfs");
      ForwardRequest(std::move(pkt), req, route.target, "route:sfs");
      return;
    case RouteClass::kStorage:
      counters_.Add("routed_storage");
      ForwardRequest(std::move(pkt), req, route.target, "route:storage");
      return;
    case RouteClass::kMirrorWrite:
      counters_.Add("mirrored_writes");
      AbsorbMirrorWrite(req, pkt.src(), pkt.payload());
      return;
    case RouteClass::kMultiCommit: {
      // A file the µproxy knows to be wholly below the threshold has all of
      // its data at one small-file server: commit there directly instead of
      // fanning out (the common case — 94% of an SFS file set is small).
      if (!config_.small_file_servers.empty()) {
        const AttrCache::Entry* entry = attr_cache_.Find(req.fh.fileid());
        if (entry != nullptr && entry->attr.size <= config_.threshold) {
          counters_.Add("small_commits");
          ForwardRequest(std::move(pkt), req, sfs_table_.Lookup(MixU64(req.fh.fileid())),
                         "route:small_commit");
          return;
        }
      }
      counters_.Add("multi_commits");
      AbsorbMultiCommit(req, pkt.src());
      return;
    }
  }
}

void Uproxy::ForwardRequest(Packet&& pkt, const DecodedView& req, Endpoint target,
                            const char* route) {
  Pending* p = nullptr;
  {
    obs::Profiler::Scope prof_soft(profiler_, obs::ProfScope::kUproxySoftState);
    if (pending_.size() >= kMaxPending) {
      pending_.Clear();  // soft state; clients retransmit
    }
    bool inserted = false;
    std::tie(p, inserted) = pending_.Insert(KeyOf(pkt.src_port(), req.xid));
    if (inserted) {
      p->proc = req.proc;
      p->fh = req.fh;
      p->offset = req.offset;
      p->tenant = req.tenant;
      p->issued_at = queue_.now();
      if (req.proc != NfsProc::kRemove) {
        p->count = req.count;
      }
      if (config_.proxy_cache && req.proc == NfsProc::kLookup) {
        // Arm the reply-side cache fill with the (dir, name) key.
        p->name_fp = NameFingerprint(req.fh, req.name(pkt.payload()));
      }
    } else {
      // Retransmission: keep existing record (it may hold the remove lookup).
      // Repeated retransmissions of one call suggest the target is dead and
      // our table is stale — ask the manager for a fresh one (lazy pull; the
      // re-forward below re-routes with whatever table is current).
      if (config_.mgmt_enabled && ++p->retransmits >= 2) {
        FetchTables();
      }
    }
  }
  obs::TraceContext ctx;
  {
    obs::Profiler::Scope prof_trace(profiler_, obs::ProfScope::kUproxyTrace);
    ctx = BeginTrace(*p, route);
    obs::LogEvent(eventlog_, client_host_.addr(), queue_.now(), obs::EventSev::kDebug,
                  obs::EventCat::kRoute, obs::EventCode::kRouteDecision, ctx.trace_id, route,
                  {{"dst", target.addr}, {"xid", req.xid}});
  }

  {
    obs::Profiler::Scope prof_rewrite(profiler_, obs::ProfScope::kUproxyRewrite);
    pkt.RewriteDst(target);
    if (ctx.valid()) {
      pkt.AttachTrace(ctx.trace_id, ctx.span_id);
    }
  }
  // Hand the rewritten packet straight to the network's flight queue at the
  // CPU-done instant — no closure, no shared_ptr, no per-packet allocation.
  SimTime ready;
  {
    obs::Profiler::Scope prof_metrics(profiler_, obs::ProfScope::kUproxyMetrics);
    ready = ChargeCpu(ctx);
  }
  net_.InjectAt(std::move(pkt), ready, owner_.id());
}

void Uproxy::HandleInbound(Packet&& pkt) {
  // Control-plane messages (table pushes from the manager, misdirect notices
  // from servers) arrive on the dedicated control port and terminate here.
  if (config_.mgmt_enabled && pkt.dst_port() == kMgmtClientPort) {
    HandleControl(pkt.payload());
    return;
  }
  // The µproxy's own RPC traffic (fan-outs, writebacks, coordinator calls)
  // rides on a separate port; hand it up without interference.
  if (pkt.dst_port() == own_rpc_->local().port) {
    net_.DeliverLocal(pkt.dst_addr(), std::move(pkt));
    return;
  }
  obs::Profiler::Scope prof(profiler_, obs::ProfScope::kUproxyInbound);
  RpcMessageView reply;
  {
    obs::Profiler::Scope prof_decode(profiler_, obs::ProfScope::kUproxyDecode);
    Result<RpcMessageView> decoded = DecodeRpcMessage(pkt.payload());
    if (!decoded.ok() || decoded->type != RpcMsgType::kReply) {
      net_.DeliverLocal(pkt.dst_addr(), std::move(pkt));
      return;
    }
    reply = *decoded;
  }
  const uint64_t key = KeyOf(pkt.dst_port(), reply.xid);
  const Pending* found;
  {
    obs::Profiler::Scope prof_soft(profiler_, obs::ProfScope::kUproxySoftState);
    found = pending_.Find(key);
  }
  if (found == nullptr) {
    net_.DeliverLocal(pkt.dst_addr(), std::move(pkt));
    return;
  }
  Pending pending = *found;
  {
    obs::Profiler::Scope prof_soft(profiler_, obs::ProfScope::kUproxySoftState);
    pending_.Erase(key);
  }

  // Reply-side work (attr writebacks, remove/truncate fan-outs) chains into
  // the originating trace.
  const obs::TraceContext ctx{pending.trace_id, pending.root_span_id};
  obs::ScopedContext scope(tracer_, ctx);

  if (reply.accept_stat == RpcAcceptStat::kSuccess) {
    // Track I/O side effects on attributes, then patch a complete, current
    // attribute set into the reply.
    if (pending.proc == NfsProc::kRead) {
      attr_cache_.NoteRead(pending.fh.fileid(), Now());
    } else if (pending.proc == NfsProc::kWrite) {
      attr_cache_.NoteWrite(pending.fh.fileid(), pending.offset + pending.count, Now());
      ArmWritebackTimer();
    } else if (pending.proc == NfsProc::kRemove && pending.count == 1) {
      // Forwarded remove succeeded and the lookup armed data reclamation.
      XdrDecoder dec(reply.body);
      Result<RemoveRes> res = RemoveRes::Decode(dec);
      if (res.ok() && res->status == Nfsstat3::kOk) {
        ScheduleDataUpdate(IntentOp::kRemove, pending.fh, 0);
        attr_cache_.Erase(pending.fh.fileid());
      }
    } else if (pending.proc == NfsProc::kSetattr && pending.count == 1) {
      // Truncate observed: propagate to the data servers.
      XdrDecoder dec(reply.body);
      Result<SetattrRes> res = SetattrRes::Decode(dec);
      if (res.ok() && res->status == Nfsstat3::kOk) {
        ScheduleDataUpdate(IntentOp::kTruncate, pending.fh, pending.offset);
      }
    } else if (pending.proc == NfsProc::kCommit) {
      // Push the committed file's attributes home; the periodic timer
      // handles the rest of the dirty set.
      if (const AttrCache::Entry* entry = attr_cache_.Find(pending.fh.fileid());
          entry != nullptr && entry->dirty) {
        WritebackAttrs(pending.fh.fileid(), entry->attr);
      }
    }
    {
      obs::Profiler::Scope prof_patch(profiler_, obs::ProfScope::kUproxyAttrPatch);
      PatchReplyAttrs(pkt, pending, reply.body_offset);
    }
    if (config_.proxy_cache && pending.proc == NfsProc::kLookup &&
        pending.name_fp != 0) {
      // Fill after patching so the cached attributes match what the client
      // sees in this reply.
      obs::Profiler::Scope prof_soft(profiler_, obs::ProfScope::kUproxySoftState);
      FillLookupCache(pkt, pending, reply.body_offset);
    }
  }

  {
    obs::Profiler::Scope prof_rewrite(profiler_, obs::ProfScope::kUproxyRewrite);
    pkt.RewriteSrc(config_.virtual_server);
  }
  DeliverReply(std::move(pkt), pending, reply.accept_stat != RpcAcceptStat::kSuccess,
               reply.body_offset);
}

void Uproxy::DeliverReply(Packet&& pkt, const Pending& pending, bool rpc_error,
                          size_t body_offset) {
  SimTime ready;
  {
    obs::Profiler::Scope prof_metrics(profiler_, obs::ProfScope::kUproxyMetrics);
    ready = ChargeCpu(obs::TraceContext{pending.trace_id, pending.root_span_id});
  }
  {
    obs::Profiler::Scope prof_trace(profiler_, obs::ProfScope::kUproxyTrace);
    FinishTrace(pending, ready);
  }
  if (pending.tenant != 0 && pending.tenant <= tenant_count_) {
    // Error = RPC-level rejection or a nonzero nfsstat3 (always the first
    // word of the result body). Read in place; nothing allocates.
    obs::Profiler::Scope prof_metrics(profiler_, obs::ProfScope::kUproxyMetrics);
    bool error = rpc_error;
    const ByteSpan payload = pkt.payload();
    if (!error && payload.size() >= body_offset + 4) {
      error = GetU32(payload.data() + body_offset) != 0;
    }
    const uint32_t nbytes =
        (pending.proc == NfsProc::kRead || pending.proc == NfsProc::kWrite) ? pending.count
                                                                            : 0;
    AccountTenant(pending.tenant, pending.proc, nbytes, ready - pending.issued_at,
                  pending.trace_id, error);
  }
  const NetAddr client_addr = pkt.dst_addr();
  net_.DeliverLocalAt(client_addr, std::move(pkt), ready, owner_.id());
}

std::optional<size_t> Uproxy::LocateTargetAttr(ByteSpan payload, const Pending& pending,
                                               size_t body_offset) const {
  ByteSpan body = payload.subspan(body_offset);
  if (body.size() < 4) {
    return std::nullopt;
  }
  const uint32_t status = GetU32(body.data());
  size_t pos = 4;
  auto post_op_attr_here = [&]() -> std::optional<size_t> {
    if (body.size() < pos + 4) {
      return std::nullopt;
    }
    const bool present = GetU32(body.data() + pos) == 1;
    pos += 4;
    if (!present || body.size() < pos + kFattr3WireSize) {
      return std::nullopt;
    }
    return body_offset + pos;
  };

  switch (pending.proc) {
    case NfsProc::kGetattr:
      if (status != 0 || body.size() < 4 + kFattr3WireSize) {
        return std::nullopt;
      }
      return body_offset + 4;
    case NfsProc::kRead:
    case NfsProc::kAccess:
      return post_op_attr_here();
    case NfsProc::kWrite:
    case NfsProc::kCommit: {
      // wcc_data: pre-op bool (+24) then post-op attr.
      if (body.size() < pos + 4) {
        return std::nullopt;
      }
      const bool pre = GetU32(body.data() + pos) == 1;
      pos += 4 + (pre ? 24 : 0);
      return post_op_attr_here();
    }
    case NfsProc::kLookup: {
      if (status != 0) {
        return std::nullopt;
      }
      // fh is a variable opaque: length word + padded bytes.
      if (body.size() < pos + 4) {
        return std::nullopt;
      }
      const uint32_t fh_len = GetU32(body.data() + pos);
      pos += 4 + fh_len + XdrPad(fh_len);
      return post_op_attr_here();
    }
    case NfsProc::kCreate:
    case NfsProc::kMkdir: {
      if (status != 0) {
        return std::nullopt;
      }
      if (body.size() < pos + 4) {
        return std::nullopt;
      }
      const bool has_fh = GetU32(body.data() + pos) == 1;
      pos += 4;
      if (has_fh) {
        if (body.size() < pos + 4) {
          return std::nullopt;
        }
        const uint32_t fh_len = GetU32(body.data() + pos);
        pos += 4 + fh_len + XdrPad(fh_len);
      }
      return post_op_attr_here();
    }
    default:
      return std::nullopt;
  }
}

void Uproxy::PatchReplyAttrs(Packet& pkt, const Pending& pending, size_t body_offset) {
  const std::optional<size_t> attr_offset = LocateTargetAttr(pkt.payload(), pending, body_offset);
  if (!attr_offset.has_value()) {
    return;
  }
  ByteSpan attr_bytes = pkt.payload().subspan(*attr_offset, kFattr3WireSize);
  XdrDecoder dec(attr_bytes);
  Result<Fattr3> server_attr = XdrDecode<Fattr3>(dec);
  if (!server_attr.ok()) {
    return;
  }
  // Hit = the cache already knew this file before the reply merged in
  // (merge always inserts, so the check must precede it).
  if (attr_cache_.Find(server_attr->fileid) != nullptr) {
    obs::Inc(m_attr_hits_);
  } else {
    obs::Inc(m_attr_misses_);
  }
  attr_cache_.MergeFromReply(server_attr->fileid, *server_attr);
  const AttrCache::Entry* entry = attr_cache_.Find(server_attr->fileid);
  if (entry == nullptr || entry->attr == *server_attr) {
    return;  // nothing to patch
  }
  patch_enc_.Clear();
  XdrField(patch_enc_, entry->attr);
  pkt.RewriteBytes(kPacketHeaderSize + *attr_offset, patch_enc_.bytes());
  counters_.Add("attrs_patched");
}

// --- in-proxy metadata cache (proxy_cache) ---

bool Uproxy::TryServeLookup(const Packet& pkt, const DecodedView& req, uint64_t name_fp) {
  const LookupCache::Entry* e = lookup_cache_.Find(req.fh.fileid(), name_fp);
  if (e == nullptr) {
    counters_.Add("cache_lookup_misses");
    return false;
  }
  counters_.Add("cache_lookup_hits");
  obs::LogEvent(eventlog_, client_host_.addr(), queue_.now(), obs::EventSev::kDebug,
                obs::EventCat::kCache, obs::EventCode::kCacheHit, /*trace_id=*/0,
                "lookup",
                {{"epoch", static_cast<int64_t>(table_epoch_)}, {"xid", req.xid}});
  LookupRes res;
  res.status = Nfsstat3::kOk;
  res.object = e->fh;
  res.obj_attributes = e->attr;
  // Serve the freshest attribute view held: the attr cache may have absorbed
  // I/O since the lookup was cached (same merge the patch stage applies).
  if (const AttrCache::Entry* a = attr_cache_.Find(e->fh.fileid());
      a != nullptr && a->complete) {
    res.obj_attributes = a->attr;
  }
  XdrEncoder reply = NewReplyEncoder();
  res.Encode(reply);
  const SimTime ready = SendDirectReply(pkt.src(), req.xid, std::move(reply));
  AccountTenant(req.tenant, req.proc, 0, ready - queue_.now(), /*trace_id=*/0,
                /*error=*/false);
  return true;
}

bool Uproxy::TryServeGetattr(const Packet& pkt, const DecodedView& req) {
  const AttrCache::Entry* a = attr_cache_.Find(req.fh.fileid());
  if (a == nullptr || !a->complete) {
    return false;  // partial (write-only) entries go to the directory server
  }
  counters_.Add("cache_getattr_hits");
  obs::LogEvent(eventlog_, client_host_.addr(), queue_.now(), obs::EventSev::kDebug,
                obs::EventCat::kCache, obs::EventCode::kCacheHit, /*trace_id=*/0,
                "getattr",
                {{"epoch", static_cast<int64_t>(table_epoch_)}, {"xid", req.xid}});
  GetattrRes res;
  res.status = Nfsstat3::kOk;
  res.attributes = a->attr;
  XdrEncoder reply = NewReplyEncoder();
  res.Encode(reply);
  const SimTime ready = SendDirectReply(pkt.src(), req.xid, std::move(reply));
  AccountTenant(req.tenant, req.proc, 0, ready - queue_.now(), /*trace_id=*/0,
                /*error=*/false);
  return true;
}

void Uproxy::InvalidateOnNameOp(const DecodedView& req, ByteSpan payload) {
  switch (req.proc) {
    case NfsProc::kCreate:
    case NfsProc::kMkdir:
    case NfsProc::kSymlink:
    case NfsProc::kLink:
    case NfsProc::kRemove:
    case NfsProc::kRmdir: {
      const uint64_t fp = NameFingerprint(req.fh, req.name(payload));
      if (req.proc == NfsProc::kRemove || req.proc == NfsProc::kRmdir) {
        // The victim's attributes must not outlive its name: a later getattr
        // on the stale handle has to reach the authoritative server.
        if (const LookupCache::Entry* e = lookup_cache_.Find(req.fh.fileid(), fp);
            e != nullptr) {
          attr_cache_.Erase(e->fh.fileid());
        }
      }
      lookup_cache_.Erase(req.fh.fileid(), fp);
      return;
    }
    case NfsProc::kRename:
      lookup_cache_.Erase(req.fh.fileid(), NameFingerprint(req.fh, req.name(payload)));
      lookup_cache_.Erase(req.fh2.fileid(),
                          NameFingerprint(req.fh2, req.name2(payload)));
      return;
    default:
      return;
  }
}

void Uproxy::FillLookupCache(const Packet& pkt, const Pending& pending, size_t body_offset) {
  XdrDecoder dec(pkt.payload().subspan(body_offset));
  Result<LookupRes> res = LookupRes::Decode(dec);
  if (!res.ok() || res->status != Nfsstat3::kOk || !res->obj_attributes) {
    return;
  }
  lookup_cache_.Insert(pending.fh.fileid(), pending.name_fp, res->object,
                       *res->obj_attributes, dir_table_.SlotFor(pending.name_fp));
}

// --- absorb paths ---

Packet Uproxy::SealReply(Endpoint client, uint32_t xid, XdrEncoder&& result) {
  Bytes frame = result.Take();
  SealReplyFrame(frame, xid, RpcAcceptStat::kSuccess);
  return Packet::MakeUdpFramed(config_.virtual_server, client, std::move(frame));
}

SimTime Uproxy::SendDirectReply(Endpoint client, uint32_t xid, XdrEncoder&& result) {
  Packet out = SealReply(client, xid, std::move(result));
  const SimTime ready = ChargeCpu();
  net_.DeliverLocalAt(client.addr, std::move(out), ready, owner_.id());
  return ready;
}

void Uproxy::ReplyToClient(Endpoint client, uint32_t xid, XdrEncoder&& result) {
  // Absorbed operations and synthesized errors end here. A pending record
  // is answered and done: it is copied out (DeliverReply reads it, and an
  // erase may move FlatMap slots) and erased, the root closes at the moment
  // the reply is handed to the client, and the tenant carried on the record
  // is accounted. The result body leads with nfsstat3.
  const uint64_t key = KeyOf(client.port, xid);
  if (const Pending* p = pending_.Find(key); p != nullptr) {
    const Pending pending = *p;
    pending_.Erase(key);
    DeliverReply(SealReply(client, xid, std::move(result)), pending, /*rpc_error=*/false,
                 kRpcReplyEnvelopeSize);
    return;
  }
  SendDirectReply(client, xid, std::move(result));
}

void Uproxy::SynthesizeErrorReply(NfsProc proc, uint32_t xid, Endpoint client,
                                  Nfsstat3 status, uint32_t tenant) {
  // Fail-fast rejections with no pending record still charge the tenant's
  // error budget (ReplyToClient accounts the pending-backed cases).
  if (tenant != 0 && pending_.Find(KeyOf(client.port, xid)) == nullptr) {
    AccountTenant(tenant, proc, 0, /*latency=*/0, /*trace_id=*/0, /*error=*/true);
  }
  XdrEncoder enc = NewReplyEncoder();
  EncodeNfsError(enc, proc, status);
  ReplyToClient(client, xid, std::move(enc));
}

// --- control-plane integration ---

bool Uproxy::InstallTables(const MgmtTableSet& tables, bool force) {
  if (!force && tables.epoch <= table_epoch_) {
    return false;
  }
  table_epoch_ = tables.epoch;
  if (!tables.dir_servers.empty() && !tables.dir_slots.empty()) {
    if (config_.proxy_cache) {
      // Epoch invalidation, slot-granular: diff the old slot binding against
      // the incoming one and flush exactly the entries resolved through a
      // rebound slot. Everything else survives the epoch bump.
      const std::vector<uint32_t>& old_slots = dir_table_.slots();
      const size_t n = std::max(old_slots.size(), tables.dir_slots.size());
      changed_slots_.assign(n, 0);
      size_t slots_changed = 0;
      for (size_t s = 0; s < n; ++s) {
        const bool same = s < old_slots.size() && s < tables.dir_slots.size() &&
                          old_slots[s] == tables.dir_slots[s];
        if (!same) {
          changed_slots_[s] = 1;
          ++slots_changed;
        }
      }
      if (slots_changed > 0) {
        size_t flushed = lookup_cache_.InvalidateSlots(changed_slots_);
        // Clean attr entries route by fileID-embedded site through the same
        // binding; dirty ones stay (the µproxy is authoritative until
        // writeback, which re-resolves the target at send time).
        flushed += attr_cache_.FlushWhere([this](uint64_t fileid) {
          return changed_slots_[SiteOfFileid(fileid) % changed_slots_.size()] != 0;
        });
        counters_.Add("cache_flushes");
        counters_.Add("cache_flushed_entries", flushed);
        obs::LogEvent(eventlog_, client_host_.addr(), queue_.now(),
                      obs::EventSev::kInfo, obs::EventCat::kCache,
                      obs::EventCode::kCacheFlush, /*trace_id=*/0, nullptr,
                      {{"epoch", static_cast<int64_t>(tables.epoch)},
                       {"slots", static_cast<int64_t>(slots_changed)},
                       {"entries", static_cast<int64_t>(flushed)}});
      }
    }
    dir_table_.InstallAssignment(tables.epoch, tables.dir_servers, tables.dir_slots);
    // The manager's slot assignment doubles as the fixed-placement binding
    // for fileID-embedded sites (site -> adopter when the owner is dead).
    dir_site_binding_ = tables.dir_slots;
  }
  if (!config_.small_file_servers.empty() && !tables.sfs_servers.empty() &&
      !tables.sfs_slots.empty()) {
    sfs_table_.InstallAssignment(tables.epoch, tables.sfs_servers, tables.sfs_slots);
  }
  if (tables.storage_alive.size() == config_.storage_nodes.size()) {
    storage_alive_ = tables.storage_alive;
  }
  if (tables.sfs_alive.size() == config_.small_file_servers.size()) {
    sfs_alive_ = tables.sfs_alive;
  }
  counters_.Add("table_installs");
  obs::LogEvent(eventlog_, client_host_.addr(), queue_.now(), obs::EventSev::kInfo,
                obs::EventCat::kMgmt, obs::EventCode::kTableInstall, /*trace_id=*/0, nullptr,
                {{"epoch", static_cast<int64_t>(tables.epoch)}});
  return true;
}

void Uproxy::HandleControl(ByteSpan payload) {
  XdrDecoder dec(payload);
  uint32_t magic = 0;
  XdrField(dec, magic);
  if (!dec.ok()) {
    return;
  }
  if (magic == kTablePushMagic) {
    Result<MgmtTableSet> tables = MgmtTableSet::Decode(dec);
    if (tables.ok()) {
      InstallTables(*tables);
    }
  } else if (magic == kMisdirectMagic) {
    uint64_t epoch = 0;
    XdrField(dec, epoch);
    if (dec.ok() && epoch > table_epoch_) {
      counters_.Add("misdirect_notices");
      obs::LogEvent(eventlog_, client_host_.addr(), queue_.now(), obs::EventSev::kWarn,
                    obs::EventCat::kRoute, obs::EventCode::kMisdirectNotice, /*trace_id=*/0,
                    nullptr,
                    {{"epoch", static_cast<int64_t>(epoch)},
                     {"have", static_cast<int64_t>(table_epoch_)}});
      FetchTables();
    }
  }
}

void Uproxy::FetchTables() {
  if (!config_.mgmt_enabled || table_fetch_inflight_) {
    return;
  }
  table_fetch_inflight_ = true;
  counters_.Add("table_fetches");
  obs::LogEvent(eventlog_, client_host_.addr(), queue_.now(), obs::EventSev::kInfo,
                obs::EventCat::kMgmt, obs::EventCode::kTableFetch, /*trace_id=*/0, nullptr,
                {{"epoch", static_cast<int64_t>(table_epoch_)}});
  // Safe to capture `this`: the handler lives in own_rpc_, which dies with
  // the µproxy.
  CallTyped<MgmtTableSet>(*own_rpc_, config_.manager, kMgmtProgram, kMgmtVersion,
                          static_cast<uint32_t>(MgmtProc::kFetchTables), ByteSpan{},
                          [this](Status st, const MgmtTableSet& tables) {
                            table_fetch_inflight_ = false;
                            if (st.ok()) {
                              InstallTables(tables);
                            }
                          });
}

void Uproxy::LogDegradedWrite(const FileHandle& fh, uint64_t offset, uint32_t count,
                              uint32_t node, std::function<void(bool)> cb) {
  DegradedArgs args;
  args.file = fh;
  args.offset = offset;
  args.count = count;
  args.node = node;
  counters_.Add("degraded_writes");
  own_rpc_->Call(CoordinatorFor(fh), kCoordProgram, kCoordVersion,
                 static_cast<uint32_t>(CoordProc::kLogDegraded), args,
                 [cb = std::move(cb)](Status st, const RpcMessageView&) { cb(st.ok()); });
}

Endpoint Uproxy::CoordinatorFor(const FileHandle& fh) const {
  SLICE_CHECK(!config_.coordinators.empty());
  return config_.coordinators[fh.fileid() % config_.coordinators.size()];
}

void Uproxy::WithIntent(IntentOp op, const FileHandle& fh, uint64_t arg,
                        std::function<void(std::function<void()> complete)> body) {
  if (config_.coordinators.empty()) {
    body([]() {});
    return;
  }
  LogIntentArgs args;
  args.op = op;
  args.file = fh;
  args.arg = arg;
  const Endpoint coord = CoordinatorFor(fh);
  counters_.Add("intents_logged");
  CallTyped<LogIntentRes>(
      *own_rpc_, coord, kCoordProgram, kCoordVersion,
      static_cast<uint32_t>(CoordProc::kLogIntent), args,
      [this, coord, body = std::move(body)](Status, const LogIntentRes& res) {
        // A failed call hands over an empty result: intent 0, nothing to complete.
        const uint64_t intent_id = res.intent_id;
        body([this, coord, intent_id]() {
          if (intent_id == 0) {
            return;
          }
          CompleteArgs cargs;
          cargs.intent_id = intent_id;
          own_rpc_->Call(coord, kCoordProgram, kCoordVersion,
                         static_cast<uint32_t>(CoordProc::kComplete), cargs,
                         [](Status, const RpcMessageView&) {});
        });
      });
}

void Uproxy::AbsorbMirrorWrite(const DecodedView& req, Endpoint client, ByteSpan payload) {
  XdrDecoder dec(payload.subspan(req.body_offset));
  Result<WriteArgsView> decoded = WriteArgsView::Decode(dec);
  if (!decoded.ok()) {
    return;  // drop; client retransmits, then fails decode at the server
  }
  // The replica writes go out after the intent is logged, when the request
  // packet is gone: hold the payload once, shared by every continuation
  // below, and let `args` view it.
  WriteArgsView args = *decoded;
  auto data = std::make_shared<const Bytes>(args.data.begin(), args.data.end());
  args.data = ByteSpan(*data);
  const uint32_t replication = std::max<uint32_t>(2, args.file.replication());

  Pending pending;
  pending.proc = NfsProc::kWrite;
  pending.fh = args.file;
  pending.offset = args.offset;
  pending.count = args.count;
  pending.absorbed = true;
  pending.tenant = req.tenant;
  pending.issued_at = queue_.now();
  Pending* stored = pending_.Insert(KeyOf(client.port, req.xid)).first;
  *stored = pending;
  const obs::TraceContext ctx = BeginTrace(*stored, "route:mirror_write");
  obs::LogEvent(eventlog_, client_host_.addr(), queue_.now(), obs::EventSev::kDebug,
                obs::EventCat::kRoute, obs::EventCode::kRouteDecision, ctx.trace_id,
                "route:mirror_write", {{"xid", req.xid}});

  // Duplicating the payload for the extra replicas costs client-host CPU.
  const SimTime copy_now = queue_.now();
  const SimTime copy_start = std::max(cpu_.busy_until(), copy_now);
  const SimTime copy_done =
      cpu_.Acquire(copy_now, static_cast<SimTime>(static_cast<double>(args.data.size()) *
                                                  (replication - 1) * kMirrorCopyNsPerByte));
  obs::ChargeSim(prof_ledger_, obs::LedgerCat::kQueue, copy_start - copy_now);
  obs::ChargeSim(prof_ledger_, obs::LedgerCat::kCpu, copy_done - copy_start);
  if (tracer_ != nullptr && ctx.valid() && copy_done > copy_start) {
    tracer_->RecordSpan(client_host_.addr(), ctx, obs::SpanCat::kCpu, "mirror_copy",
                        copy_start, copy_done);
  }

  // Partition the replica set by manager-reported liveness: live replicas
  // take the write now; dead ones become degraded regions the coordinator
  // records for resync when the node rejoins (mirrored-partner promotion).
  std::vector<uint32_t> live_nodes;
  std::vector<uint32_t> dead_nodes;
  for (uint32_t r = 0; r < replication; ++r) {
    const uint32_t node = StripeSite(args.file, args.offset, r);
    (StorageAlive(node) ? live_nodes : dead_nodes).push_back(node);
  }
  if (live_nodes.empty()) {
    counters_.Add("unavailable_rejected");
    SynthesizeErrorReply(req.proc, req.xid, client, Nfsstat3::kErrIo, req.tenant);
    return;
  }
  const bool log_degraded = !dead_nodes.empty() && !config_.coordinators.empty();

  // Fan-out calls issued below (intent log, replica writes, degraded-region
  // acks) all inherit this context through own_rpc_.
  obs::ScopedContext scope(tracer_, ctx);
  WithIntent(IntentOp::kMirrorWrite, args.file, args.offset,
             [this, args, data, client, req, live_nodes, dead_nodes,
              log_degraded](std::function<void()> complete) {
               auto results = std::make_shared<std::vector<WriteRes>>();
               auto failures = std::make_shared<int>(0);
               // The client's reply also waits for the degraded-region acks:
               // acking a write whose missing replica was never recorded
               // would silently lose redundancy.
               auto remaining = std::make_shared<uint32_t>(static_cast<uint32_t>(
                   live_nodes.size() + (log_degraded ? dead_nodes.size() : 0)));
               auto finish = [this, results, failures, remaining, client, req, args,
                              complete]() {
                 if (--*remaining > 0) {
                   return;
                 }
                 complete();
                 if (*failures > 0 || results->empty()) {
                   counters_.Add("mirror_write_failures");
                   pending_.Erase(KeyOf(client.port, req.xid));
                   return;  // stay silent; client retransmits
                 }
                 attr_cache_.NoteWrite(args.file.fileid(), args.offset + args.count,
                                       Now());
                 ArmWritebackTimer();
                 WriteRes merged = results->front();
                 for (const WriteRes& r2 : *results) {
                   if (r2.committed == StableHow::kUnstable) {
                     merged.committed = StableHow::kUnstable;
                   }
                   merged.count = std::min(merged.count, r2.count);
                 }
                 if (const AttrCache::Entry* e = attr_cache_.Find(args.file.fileid());
                     e != nullptr) {
                   merged.wcc.after = e->attr;
                 }
                 XdrEncoder reply = NewReplyEncoder();
                 merged.Encode(reply);
                 ReplyToClient(client, req.xid, std::move(reply));
               };
               if (log_degraded) {
                 for (uint32_t node : dead_nodes) {
                   LogDegradedWrite(args.file, args.offset, args.count, node,
                                    [failures, finish](bool ok) {
                                      if (!ok) {
                                        ++*failures;
                                      }
                                      finish();
                                    });
                 }
               }
               for (uint32_t node : live_nodes) {
                 CallNfs<WriteRes>(*own_rpc_, config_.storage_nodes[node], NfsProc::kWrite, args,
                                   [results, failures, finish](Status st, const WriteRes& res) {
                                     if (!st.ok() || res.status != Nfsstat3::kOk) {
                                       ++*failures;
                                     } else {
                                       results->push_back(res);
                                     }
                                     finish();
                                   });
               }
             });
}

void Uproxy::AbsorbMultiCommit(const DecodedView& req, Endpoint client) {
  Pending pending;
  pending.proc = NfsProc::kCommit;
  pending.fh = req.fh;
  pending.absorbed = true;
  pending.tenant = req.tenant;
  pending.issued_at = queue_.now();
  Pending* stored = pending_.Insert(KeyOf(client.port, req.xid)).first;
  *stored = pending;
  const obs::TraceContext ctx = BeginTrace(*stored, "route:multi_commit");
  obs::LogEvent(eventlog_, client_host_.addr(), queue_.now(), obs::EventSev::kDebug,
                obs::EventCat::kRoute, obs::EventCode::kRouteDecision, ctx.trace_id,
                "route:multi_commit", {{"xid", req.xid}});
  obs::ScopedContext scope(tracer_, ctx);

  // Commit pushes the file's attribute view back to the directory service.
  if (const AttrCache::Entry* entry = attr_cache_.Find(req.fh.fileid());
      entry != nullptr && entry->dirty) {
    WritebackAttrs(req.fh.fileid(), entry->attr);
  }

  // Targets: every live storage node (striping may have touched any of them)
  // and the file's small-file server. Dead nodes are skipped — a mirrored
  // file's surviving replicas carry the data; a dead node's unstable writes
  // were already re-recorded as degraded regions.
  std::vector<Endpoint> targets;
  for (uint32_t i = 0; i < config_.storage_nodes.size(); ++i) {
    if (StorageAlive(i)) {
      targets.push_back(config_.storage_nodes[i]);
    }
  }
  if (!config_.small_file_servers.empty()) {
    const uint32_t sfs = sfs_table_.PhysicalIndexFor(MixU64(req.fh.fileid()));
    if (SfsAlive(sfs)) {
      targets.push_back(sfs_table_.Lookup(MixU64(req.fh.fileid())));
    }
  }
  if (targets.empty()) {
    counters_.Add("unavailable_rejected");
    SynthesizeErrorReply(req.proc, req.xid, client, Nfsstat3::kErrIo, req.tenant);
    return;
  }

  WithIntent(
      IntentOp::kCommit, req.fh, 0,
      [this, req, client, targets](std::function<void()> complete) {
        auto verf = std::make_shared<uint64_t>(0);
        auto failures = std::make_shared<int>(0);
        auto remaining = std::make_shared<size_t>(targets.size());
        for (const Endpoint& target : targets) {
          CallNfs<CommitRes>(
              *own_rpc_, target, NfsProc::kCommit, CommitArgs{req.fh, 0, 0},
              [this, verf, failures, remaining, client, req, complete](Status st,
                                                                       const CommitRes& res) {
                if (!st.ok() || res.status != Nfsstat3::kOk) {
                  ++*failures;
                } else {
                  *verf = MixU64(*verf ^ res.verf);
                }
                if (--*remaining > 0) {
                  return;
                }
                complete();
                if (*failures > 0) {
                  counters_.Add("commit_failures");
                  pending_.Erase(KeyOf(client.port, req.xid));
                  return;
                }
                CommitRes merged;
                merged.verf = *verf;
                if (const AttrCache::Entry* e = attr_cache_.Find(req.fh.fileid()); e != nullptr) {
                  merged.wcc.after = e->attr;
                }
                XdrEncoder reply = NewReplyEncoder();
                merged.Encode(reply);
                ReplyToClient(client, req.xid, std::move(reply));
              });
        }
      });
}

void Uproxy::ScheduleDataUpdate(IntentOp op, const FileHandle& fh, uint64_t size) {
  counters_.Add(op == IntentOp::kRemove ? "data_removes" : "data_truncates");
  std::vector<Endpoint> targets;
  for (uint32_t i = 0; i < config_.storage_nodes.size(); ++i) {
    if (StorageAlive(i)) {
      targets.push_back(config_.storage_nodes[i]);
    }
  }
  if (!config_.small_file_servers.empty()) {
    targets.push_back(sfs_table_.Lookup(MixU64(fh.fileid())));
  }
  if (targets.empty()) {
    return;
  }
  WithIntent(op, fh, size, [this, op, fh, size, targets](std::function<void()> complete) {
    auto remaining = std::make_shared<size_t>(targets.size());
    for (const Endpoint& target : targets) {
      // Built per target: a shared callback copied into each call would
      // allocate once more per fan-out.
      auto done = [remaining, complete](Status, const auto&) {
        if (--*remaining == 0) {
          complete();
        }
      };
      if (op == IntentOp::kRemove) {
        // A data server removes the object named by the handle alone.
        CallNfs<RemoveRes>(*own_rpc_, target, NfsProc::kRemove, DirOpArgs{fh, ""},
                           std::move(done));
      } else {
        SetattrArgs args;
        args.object = fh;
        args.new_attributes.size = size;
        CallNfs<SetattrRes>(*own_rpc_, target, NfsProc::kSetattr, args, std::move(done));
      }
    }
  });
}

// --- attribute writeback ---

void Uproxy::WritebackAttrs(uint64_t fileid, const Fattr3& attr) {
  obs::LogEvent(eventlog_, client_host_.addr(), queue_.now(), obs::EventSev::kDebug,
                obs::EventCat::kCache, obs::EventCode::kAttrWriteback, /*trace_id=*/0, nullptr,
                {{"fileid", static_cast<int64_t>(fileid)},
                 {"size", static_cast<int64_t>(attr.size)}});
  SetattrArgs args;
  args.object =
      FileHandle::Make(static_cast<uint32_t>(attr.fsid), fileid, 1, attr.type, 1, 0);
  // The directory server routes on the fileid; capability checking applies
  // to storage objects, not file managers, so a zero-secret handle is fine
  // for the manager-side setattr. Size and mtime are what I/O changed.
  args.new_attributes.size = attr.size;
  args.new_attributes.mtime = attr.mtime;
  args.new_attributes.atime = attr.atime;
  const Endpoint target = DirServerForSite(SiteOfFileid(fileid));
  counters_.Add("attr_writebacks");
  // Optimistically mark clean at issue so concurrent flush triggers do not
  // duplicate the setattr; a lost writeback re-dirties on the next write.
  attr_cache_.MarkClean(fileid);
  CallNfs<SetattrRes>(*own_rpc_, target, NfsProc::kSetattr, args,
                      [](Status, const SetattrRes&) {});
}

void Uproxy::FlushDirtyAttrs() {
  for (uint64_t fileid : attr_cache_.DirtyFiles()) {
    const AttrCache::Entry* entry = attr_cache_.Find(fileid);
    if (entry != nullptr) {
      WritebackAttrs(fileid, entry->attr);
    }
  }
  for (const auto& [fileid, attr] : attr_cache_.TakeEvictedDirty()) {
    WritebackAttrs(fileid, attr);
  }
}

void Uproxy::ArmWritebackTimer() {
  if (writeback_timer_armed_) {
    return;
  }
  writeback_timer_armed_ = true;
  auto flush = [this] {
    writeback_timer_armed_ = false;
    FlushDirtyAttrs();
    if (!attr_cache_.DirtyFiles().empty()) {
      ArmWritebackTimer();
    }
  };
  queue_.ScheduleAfter(config_.attr_writeback_interval, flush, owner_.id());
}

}  // namespace slice
