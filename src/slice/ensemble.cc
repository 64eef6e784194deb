#include "src/slice/ensemble.h"

#include <algorithm>

#include "src/common/hash.h"
#include "src/obs/json.h"
#include "src/obs/sinks.h"

namespace slice {
namespace {

constexpr NetAddr kVirtualAddr = 0x0a000064;   // 10.0.0.100
constexpr NetAddr kDirBase = 0x0a000100;       // 10.0.1.x
constexpr NetAddr kSfsBase = 0x0a000200;       // 10.0.2.x
constexpr NetAddr kStorageBase = 0x0a000300;   // 10.0.3.x
constexpr NetAddr kCoordBase = 0x0a000400;     // 10.0.4.x
constexpr NetAddr kMgmtAddr = 0x0a000501;      // 10.0.5.1 (ensemble manager)
constexpr NetAddr kClientBase = 0x0a000900;    // 10.0.9.x

FileHandle BackingObject(uint8_t kind, uint32_t index, uint32_t volume, uint64_t secret) {
  return FileHandle::Make(volume, (static_cast<uint64_t>(kind) << 48) | index, 1,
                          FileType3::kReg, 1, secret);
}

// EventQueue dispatch hook (plain fn-pointer — the sim layer cannot depend
// on obs): brackets every handler dispatch in the sim.dispatch scope so
// event-loop self-time shows up as that scope's exclusive time.
void ProfilerDispatchHook(void* ctx, bool begin) {
  auto* profiler = static_cast<obs::Profiler*>(ctx);
  if (begin) {
    profiler->BeginScope(obs::ProfScope::kSimDispatch);
  } else {
    profiler->EndScope();
  }
}

}  // namespace

Ensemble::Ensemble(EventQueue& queue, EnsembleConfig config)
    : queue_(queue), config_(std::move(config)), owner_(queue) {
  SLICE_CHECK(config_.num_dir_servers >= 1);
  SLICE_CHECK(config_.num_storage_nodes >= 1);
  SLICE_CHECK(config_.num_clients >= 1);

  virtual_server_ = Endpoint{kVirtualAddr, kNfsPort};

  if (config_.trace.enabled) {
    tracer_ = std::make_unique<obs::Tracer>(config_.trace);
  }
  if (config_.eventlog.enabled) {
    eventlog_ = std::make_unique<obs::EventLog>(config_.eventlog);
  }
  if (config_.profiler.enabled) {
    profiler_ = std::make_unique<obs::Profiler>(config_.profiler);
    queue_.SetDispatchHook(&ProfilerDispatchHook, profiler_.get());
  }
  if (config_.metrics.enabled) {
    metrics_ = std::make_unique<obs::Metrics>(config_.metrics);
    if (config_.num_tenants > 0) {
      // Before any component registers: servers and µproxies size their
      // tenant-indexed state off num_tenants() at construction.
      metrics_->ConfigureTenants(config_.num_tenants, config_.slo.latency_threshold);
    }
  }
  // The one wiring path: every component below takes this handle at
  // construction and keeps the pillars it uses.
  const obs::Sinks sinks{tracer_.get(), metrics_.get(), eventlog_.get(), profiler_.get()};
  if (metrics_) {
    scraper_ = std::make_unique<obs::Scraper>(queue_, *metrics_, sinks);
    for (obs::WatchdogRule& rule : obs::DefaultWatchdogRules(config_.metrics.scrape_interval)) {
      scraper_->AddRule(std::move(rule));
    }
    if (config_.num_tenants > 0 && config_.slo.enabled) {
      slo_engine_ = std::make_unique<obs::SloEngine>(*metrics_, config_.slo, sinks);
      scraper_->SetScrapeHook(
          [engine = slo_engine_.get()](SimTime now) { engine->OnScrape(now); });
    }
    if (eventlog_ && !config_.flight_dump_path.empty()) {
      // Black-box semantics: the first watchdog raise cuts a dump at the
      // moment things went wrong (teardown rewrites it with the full run).
      scraper_->SetAlertHook([this](const obs::Alert& alert) {
        if (alert.raise) {
          DumpFlightRecorder(config_.flight_dump_path, ("alert:" + alert.rule).c_str());
        }
      });
    }
  }

  NetworkParams net_params;
  net_params.link_gbit_per_s = config_.cal.link_gbit_per_s;
  net_params.switch_latency_us = config_.cal.switch_latency_us;
  net_params.loss_rate = config_.loss_rate;
  if (config_.chaos.enabled) {
    // Folds the chaos seed into the network's RNG seeding so scenarios can
    // vary their stochastic faults (loss draws, Gilbert chains) without
    // touching the workload seed. Chaos-off ensembles are bit-unchanged.
    net_params.loss_seed ^= MixU64(config_.chaos.seed);
  }
  network_ = std::make_unique<Network>(queue_, net_params, sinks);

  // --- storage nodes ---
  std::vector<Endpoint> storage_endpoints;
  for (size_t i = 0; i < config_.num_storage_nodes; ++i) {
    StorageNodeParams params;
    params.cache_bytes = static_cast<uint64_t>(config_.cal.storage_cache_mb * (1 << 20));
    params.num_disks = config_.cal.disks_per_node;
    params.disk = config_.cal.disk;
    params.channel_mb_per_s = config_.cal.channel_mb_per_s;
    params.op_cpu_us = config_.cal.storage_op_cpu_us;
    params.cpu_ns_per_byte = config_.cal.storage_cpu_ns_per_byte;
    params.volume_secret = config_.volume_secret;
    params.extra_meta_ios = config_.storage_extra_meta_ios;
    storage_nodes_.push_back(std::make_unique<StorageNode>(
        *network_, queue_, kStorageBase + static_cast<NetAddr>(i), params, /*seed=*/i + 1,
        sinks));
    storage_endpoints.push_back(storage_nodes_.back()->endpoint());
  }

  // --- small-file servers ---
  std::vector<Endpoint> sfs_endpoints;
  for (size_t i = 0; i < config_.num_small_file_servers; ++i) {
    SmallFileServerParams params;
    params.cache_bytes = static_cast<uint64_t>(config_.cal.sfs_cache_mb * (1 << 20));
    params.op_cpu_us = config_.cal.sfs_op_cpu_us;
    params.cpu_ns_per_byte = config_.cal.sfs_cpu_ns_per_byte;
    params.threshold = config_.threshold;
    params.volume_secret = config_.volume_secret;
    params.server_index = static_cast<uint32_t>(i);
    params.backing_node = storage_endpoints[(i + 2) % storage_endpoints.size()];
    params.backing_object =
        BackingObject(0xfd, static_cast<uint32_t>(i), 1, config_.volume_secret);
    small_file_servers_.push_back(std::make_unique<SmallFileServer>(
        *network_, queue_, kSfsBase + static_cast<NetAddr>(i), params, storage_endpoints, sinks));
    sfs_endpoints.push_back(small_file_servers_.back()->endpoint());
  }

  // --- coordinators ---
  std::vector<Endpoint> coord_endpoints;
  for (size_t i = 0; i < config_.num_coordinators; ++i) {
    CoordinatorParams params;
    params.volume_secret = config_.volume_secret;
    params.num_storage_sites = static_cast<uint32_t>(config_.num_storage_nodes);
    params.backing_node = storage_endpoints[(i + 1) % storage_endpoints.size()];
    params.backing_object =
        BackingObject(0xfc, static_cast<uint32_t>(i), 1, config_.volume_secret);
    coordinators_.push_back(std::make_unique<Coordinator>(
        *network_, queue_, kCoordBase + static_cast<NetAddr>(i), params, storage_endpoints,
        sfs_endpoints, sinks));
    coord_endpoints.push_back(coordinators_.back()->endpoint());
  }

  // --- directory servers ---
  std::vector<Endpoint> dir_endpoints;
  std::vector<DirServer*> dir_peers;
  for (size_t i = 0; i < config_.num_dir_servers; ++i) {
    DirServerParams params;
    params.site = static_cast<uint32_t>(i);
    params.num_sites = static_cast<uint32_t>(config_.num_dir_servers);
    params.volume_secret = config_.volume_secret;
    params.policy = config_.name_policy;
    params.default_replication = config_.default_replication;
    params.op_cpu_us = config_.cal.dir_op_cpu_us;
    params.peer_cpu_us = config_.cal.dir_peer_cpu_us;
    params.peer_rtt_us = config_.cal.dir_peer_rtt_us;
    params.slot_metrics = config_.dir_slot_metrics;
    params.backing_node = storage_endpoints[i % storage_endpoints.size()];
    params.backing_object =
        BackingObject(0xff, static_cast<uint32_t>(i), 1, config_.volume_secret);
    dir_servers_.push_back(std::make_unique<DirServer>(
        *network_, queue_, kDirBase + static_cast<NetAddr>(i), params, sinks));
    dir_endpoints.push_back(dir_servers_.back()->endpoint());
    dir_peers.push_back(dir_servers_.back().get());
  }
  for (auto& server : dir_servers_) {
    server->SetPeers(dir_peers);
  }
  storage_endpoints_ = storage_endpoints;

  // --- ensemble manager and heartbeat agents ---
  if (config_.mgmt.enabled) {
    ClusterView view;
    view.dir_servers = dir_endpoints;
    view.small_file_servers = sfs_endpoints;
    view.storage_nodes = storage_endpoints;
    view.coordinators = coord_endpoints;
    view.logical_slots = kDefaultLogicalSlots;
    // The manager mints failure-episode traces (hb_miss / node_dead /
    // node_rejoin instants) so eventlog records resolve in the trace export.
    manager_ = std::make_unique<EnsembleManager>(*network_, queue_, kMgmtAddr,
                                                 std::move(view), config_.mgmt, sinks);
    manager_->SetReconfigureHook(
        [this](const MgmtTableSet& tables, const std::vector<uint64_t>& died,
               const std::vector<uint64_t>& revived) { OnReconfigure(tables, died, revived); });
    manager_->SetRebalanceHook(
        [this](uint32_t slot, uint32_t num_slots, uint32_t from, uint32_t to) {
          if (from >= dir_servers_.size() || to >= dir_servers_.size()) {
            return;
          }
          DirServer* src = dir_servers_[from].get();
          DirServer* dst = dir_servers_[to].get();
          if (src->failed() || dst->failed()) {
            return;
          }
          src->MigrateSlot(slot, num_slots, *dst);
        });
    auto add_agent = [&](Host& host, NodeClass cls, uint32_t index) {
      HeartbeatAgentParams hb;
      hb.node_class = cls;
      hb.index = index;
      hb.manager = manager_->endpoint();
      hb.interval = config_.mgmt.heartbeat_interval;
      heartbeat_agents_.push_back(std::make_unique<HeartbeatAgent>(host, queue_, hb, sinks));
    };
    for (size_t i = 0; i < storage_nodes_.size(); ++i) {
      add_agent(storage_nodes_[i]->host(), NodeClass::kStorage, static_cast<uint32_t>(i));
    }
    for (size_t i = 0; i < small_file_servers_.size(); ++i) {
      add_agent(small_file_servers_[i]->host(), NodeClass::kSfs, static_cast<uint32_t>(i));
    }
    for (size_t i = 0; i < coordinators_.size(); ++i) {
      add_agent(coordinators_[i]->host(), NodeClass::kCoord, static_cast<uint32_t>(i));
    }
    for (size_t i = 0; i < dir_servers_.size(); ++i) {
      add_agent(dir_servers_[i]->host(), NodeClass::kDir, static_cast<uint32_t>(i));
    }
    manager_->Start();
    for (auto& agent : heartbeat_agents_) {
      agent->Start();
    }
  }

  // --- clients with interposed µproxies ---
  for (size_t i = 0; i < config_.num_clients; ++i) {
    client_hosts_.push_back(
        std::make_unique<Host>(*network_, kClientBase + static_cast<NetAddr>(i)));
    UproxyConfig up;
    up.virtual_server = virtual_server_;
    up.dir_servers = dir_endpoints;
    up.small_file_servers = sfs_endpoints;
    up.storage_nodes = storage_endpoints;
    up.coordinators = coord_endpoints;
    up.name_policy = config_.name_policy;
    up.mkdir_redirect_probability = config_.mkdir_redirect_probability;
    up.threshold = config_.threshold;
    up.stripe_unit = config_.stripe_unit;
    up.use_block_maps = config_.use_block_maps;
    up.per_packet_cpu_us = config_.cal.uproxy_cpu_us;
    up.rendezvous_routing = config_.rendezvous_routing;
    up.proxy_cache = config_.proxy_cache;
    if (manager_) {
      up.mgmt_enabled = true;
      up.manager = manager_->endpoint();
      // Fan-outs to a just-died node must fail well inside the client's own
      // retransmission budget so the degraded path kicks in promptly.
      up.own_rpc_params.retransmit_timeout = FromMillis(150);
      up.own_rpc_params.max_transmissions = 3;
    }
    uproxies_.push_back(
        std::make_unique<Uproxy>(*network_, queue_, *client_hosts_.back(), up, sinks));
    if (manager_) {
      manager_->Subscribe(Endpoint{client_hosts_.back()->addr(), kMgmtClientPort});
    }
  }

  if (scraper_) {
    // Armed after every component's own timers, which keeps the order of
    // same-instant events (a scrape and a heartbeat, say) fixed.
    scraper_->Start();
  }

  // --- chaos engine (src/chaos) ---
  if (config_.chaos.enabled) {
    chaos::ChaosHooks hooks;
    hooks.queue = &queue_;
    hooks.net = network_.get();
    hooks.log = eventlog_.get();
    hooks.fail_node = [this](NodeClass cls, uint32_t index) {
      if (RpcServerNode* n = node(cls, index)) {
        n->Fail();
      }
    };
    hooks.restart_node = [this](NodeClass cls, uint32_t index) {
      if (RpcServerNode* n = node(cls, index)) {
        n->Restart();
      }
    };
    hooks.set_storage_disk_multiplier = [this](uint32_t index, double multiplier) {
      if (index < storage_nodes_.size()) {
        storage_nodes_[index]->SetDiskLatencyMultiplier(multiplier);
      }
    };
    hooks.set_heartbeat_scale = [this](NodeClass cls, uint32_t index, double scale) {
      for (auto& agent : heartbeat_agents_) {
        if (agent->node_class() == cls && agent->index() == index) {
          agent->set_interval_scale(scale);
        }
      }
    };
    hooks.addr_of = [this](NodeClass cls, uint32_t index) -> uint32_t {
      if (cls == NodeClass::kClient) {
        return index < client_hosts_.size() ? client_hosts_[index]->addr() : 0;
      }
      RpcServerNode* n = node(cls, index);
      return n != nullptr ? n->addr() : 0;
    };
    // The "rest of the world" a partition severs a target from: every
    // server, the manager, and every client host.
    for (auto& n : storage_nodes_) {
      hooks.all_hosts.push_back(n->addr());
    }
    for (auto& s : small_file_servers_) {
      hooks.all_hosts.push_back(s->addr());
    }
    for (auto& c : coordinators_) {
      hooks.all_hosts.push_back(c->addr());
    }
    for (auto& d : dir_servers_) {
      hooks.all_hosts.push_back(d->addr());
    }
    if (manager_) {
      hooks.all_hosts.push_back(manager_->addr());
    }
    for (auto& h : client_hosts_) {
      hooks.all_hosts.push_back(h->addr());
    }
    chaos_engine_ = std::make_unique<chaos::ChaosEngine>(std::move(hooks), config_.chaos);
    chaos_engine_->Arm();
  }
}

RpcServerNode* Ensemble::node(NodeClass cls, uint32_t index) {
  switch (cls) {
    case NodeClass::kStorage:
      return index < storage_nodes_.size() ? storage_nodes_[index].get() : nullptr;
    case NodeClass::kDir:
      return index < dir_servers_.size() ? dir_servers_[index].get() : nullptr;
    case NodeClass::kSfs:
      return index < small_file_servers_.size() ? small_file_servers_[index].get() : nullptr;
    case NodeClass::kCoord:
      return index < coordinators_.size() ? coordinators_[index].get() : nullptr;
    case NodeClass::kClient:
      return nullptr;  // client hosts are not RPC servers
  }
  return nullptr;
}

Ensemble::~Ensemble() {
  if (eventlog_ && !config_.flight_dump_path.empty()) {
    DumpFlightRecorder(config_.flight_dump_path, "teardown");
  }
  if (profiler_) {
    // The queue outlives the ensemble; detach before the profiler dies.
    queue_.SetDispatchHook(nullptr, nullptr);
  }
}

void Ensemble::OnReconfigure(const MgmtTableSet& tables, const std::vector<uint64_t>& died,
                             const std::vector<uint64_t>& revived) {
  // Install the epoch-stamped view on every directory server so misrouted
  // requests draw jukebox + misdirect notices (lazy table distribution).
  for (size_t i = 0; i < dir_servers_.size(); ++i) {
    dir_servers_[i]->SetMgmtView(tables.epoch, static_cast<uint32_t>(i), tables.dir_slots);
  }
  // Remap the peer-protocol targets: peers[site] is the server the manager
  // bound that site to (its adopter while the owner is dead).
  if (!tables.dir_slots.empty()) {
    std::vector<DirServer*> peers(dir_servers_.size());
    for (size_t site = 0; site < peers.size(); ++site) {
      peers[site] = dir_servers_[tables.dir_slots[site % tables.dir_slots.size()]].get();
    }
    for (auto& server : dir_servers_) {
      server->SetPeers(peers);
    }
  }

  for (uint64_t id : died) {
    if (NodeIdClass(id) != NodeClass::kDir) {
      continue;  // sfs/storage death is handled by µproxy liveness bits
    }
    const uint32_t site = NodeIdIndex(id);
    if (site >= dir_servers_.size() || tables.dir_slots.empty()) {
      continue;
    }
    DirServer* adopter = dir_servers_[tables.dir_slots[site]].get();
    if (adopter == dir_servers_[site].get() || adopter->failed()) {
      continue;  // no live replacement — the site stays down until rejoin
    }
    // Stamp the adoption with the failure episode the manager opened at the
    // first heartbeat miss, completing the hb_miss -> node_dead -> adopt
    // causal chain under one trace id.
    const obs::TraceContext episode = manager_->EpisodeContext(id);
    if (tracer_ && episode.valid()) {
      tracer_->RecordInstant(adopter->addr(), episode, "adopt_site", queue_.now());
    }
    obs::LogEvent(eventlog_.get(), adopter->addr(), queue_.now(), obs::EventSev::kWarn,
                  obs::EventCat::kFailover, obs::EventCode::kAdoptBegin, episode.trace_id,
                  nullptr, {{"site", site}, {"epoch", static_cast<int64_t>(tables.epoch)}});
    adopter->AdoptSite(site, storage_endpoints_[site % storage_endpoints_.size()],
                       BackingObject(0xff, site, 1, config_.volume_secret));
  }

  for (uint64_t id : revived) {
    switch (NodeIdClass(id)) {
      case NodeClass::kDir: {
        const uint32_t site = NodeIdIndex(id);
        if (site >= dir_servers_.size()) {
          break;
        }
        DirServer* target = dir_servers_[site].get();
        for (auto& server : dir_servers_) {
          if (server->adopted_sites().count(site) != 0) {
            const obs::TraceContext episode = manager_->EpisodeContext(id);
            if (tracer_ && episode.valid()) {
              tracer_->RecordInstant(server->addr(), episode, "handoff_site", queue_.now());
            }
            obs::LogEvent(eventlog_.get(), server->addr(), queue_.now(), obs::EventSev::kInfo,
                          obs::EventCat::kFailover, obs::EventCode::kHandoff, episode.trace_id,
                          "scheduled", {{"site", site}, {"to", target->addr()}});
            target->BeginHandoffHold();
            ScheduleHandoff(server.get(), site, target);
            break;
          }
        }
        break;
      }
      case NodeClass::kStorage: {
        // Resync the rejoined mirror: replay the degraded regions logged by
        // µproxies while it was down.
        const uint32_t node = NodeIdIndex(id);
        const obs::TraceContext episode = manager_->EpisodeContext(id);
        for (auto& coord : coordinators_) {
          if (tracer_ && episode.valid()) {
            tracer_->RecordInstant(coord->addr(), episode, "mirror_resync", queue_.now());
          }
          obs::LogEvent(eventlog_.get(), coord->addr(), queue_.now(), obs::EventSev::kInfo,
                        obs::EventCat::kFailover, obs::EventCode::kResync, episode.trace_id,
                        nullptr, {{"node", node}});
          coord->RepairNode(node);
        }
        break;
      }
      default:
        break;  // sfs/coordinators recover from their own WALs on restart
    }
  }
}

void Ensemble::ScheduleHandoff(DirServer* adopter, uint32_t site, DirServer* target) {
  auto handoff = [this, adopter, site, target] {
    if (adopter->failed() || target->failed()) {
      target->EndHandoffHold();  // abandoned; a later reconfiguration retries
      return;
    }
    if (target->recovering() || adopter->adopting()) {
      ScheduleHandoff(adopter, site, target);
      return;
    }
    adopter->HandoffSite(site, *target);
    target->EndHandoffHold();
  };
  queue_.ScheduleBackgroundAfter(FromMillis(1), handoff, owner_.id());
}

std::unique_ptr<SyncNfsClient> Ensemble::MakeSyncClient(size_t i) {
  return std::make_unique<SyncNfsClient>(client_host(i), queue_, virtual_server_);
}

std::unique_ptr<NfsClient> Ensemble::MakeAsyncClient(size_t i) {
  return std::make_unique<NfsClient>(client_host(i), queue_, virtual_server_);
}

std::vector<obs::Span> Ensemble::CollectSpans() const {
  if (!tracer_) {
    return {};
  }
  return obs::CanonicalOrder(tracer_->Collect());
}

std::string Ensemble::ExportTraceJson() const {
  return obs::ExportChromeTrace(CollectSpans());
}

uint64_t Ensemble::TraceHash() const { return obs::TraceContentHash(CollectSpans()); }

std::string Ensemble::ExportMetricsJson() const {
  if (!metrics_) {
    return {};
  }
  return obs::ExportMetricsJson(*metrics_, scraper_.get(), slo_engine_.get());
}

uint64_t Ensemble::MetricsHash() const {
  if (!metrics_) {
    return 0;
  }
  return obs::MetricsContentHash(ExportMetricsJson());
}

std::string Ensemble::ExportMetricsText() const {
  if (!metrics_) {
    return {};
  }
  return obs::ExportPrometheus(*metrics_);
}

std::vector<obs::Alert> Ensemble::alerts() const {
  if (!scraper_) {
    return {};
  }
  return scraper_->alerts();
}

std::vector<uint64_t> Ensemble::InflightTraceIds() const {
  std::vector<uint64_t> out;
  for (const auto& proxy : uproxies_) {
    proxy->CollectInflightTraceIds(out);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string Ensemble::ExportFlightJson(const char* reason) const {
  if (!eventlog_) {
    return {};
  }
  return obs::ExportFlightJson(*eventlog_, queue_.now(), reason, InflightTraceIds(),
                               metrics_.get(), scraper_.get(), slo_engine_.get(),
                               profiler_.get());
}

std::string Ensemble::ExportProfileJson() const {
  if (!profiler_) {
    return {};
  }
  return profiler_->ExportProfileJson();
}

std::string Ensemble::ExportProfileFolded() const {
  if (!profiler_) {
    return {};
  }
  return profiler_->ExportProfileFolded();
}

uint64_t Ensemble::ProfileSimHash() const {
  if (!profiler_) {
    return 0;
  }
  return profiler_->ProfileSimHash();
}

uint64_t Ensemble::FlightHash() const {
  if (!eventlog_) {
    return 0;
  }
  return obs::FlightContentHash(ExportFlightJson());
}

bool Ensemble::DumpFlightRecorder(const std::string& path, const char* reason) const {
  if (!eventlog_) {
    return false;
  }
  return obs::WriteArtifact(path, ExportFlightJson(reason));
}

obs::CriticalPathReport Ensemble::AnalyzeCriticalPath() const {
  return obs::CriticalPath::Analyze(CollectSpans());
}

OpCounters Ensemble::AggregateCounters() const {
  OpCounters total;
  for (const auto& proxy : uproxies_) {
    for (const auto& [name, value] : proxy->counters().entries()) {
      total.Add(name, value);
    }
  }
  return total;
}

}  // namespace slice
