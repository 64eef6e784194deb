// Ensemble assembly: constructs a complete Slice deployment on the simulated
// network — storage nodes, coordinators, directory servers, small-file
// servers, client hosts each with an interposed µproxy — and presents the
// whole thing as a single virtual NFS server (paper §2: "To a client, the
// ensemble appears as a single file server at some virtual network
// address").
//
// This is the top-level public API a downstream user builds against.
#ifndef SLICE_SLICE_ENSEMBLE_H_
#define SLICE_SLICE_ENSEMBLE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/chaos/chaos.h"
#include "src/chaos/chaos_engine.h"
#include "src/coord/coordinator.h"
#include "src/core/uproxy.h"
#include "src/dir/dir_server.h"
#include "src/mgmt/heartbeat.h"
#include "src/mgmt/manager.h"
#include "src/nfs/nfs_client.h"
#include "src/obs/critical_path.h"
#include "src/obs/eventlog.h"
#include "src/obs/export.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/metrics_export.h"
#include "src/obs/profiler.h"
#include "src/obs/slo.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"
#include "src/sfs/small_file_server.h"
#include "src/slice/calibration.h"
#include "src/storage/storage_node.h"

namespace slice {

struct EnsembleConfig {
  size_t num_dir_servers = 1;
  size_t num_small_file_servers = 2;  // 0 = all I/O goes to storage nodes
  size_t num_storage_nodes = 4;
  size_t num_coordinators = 1;        // 0 = no intention logging / block maps
  size_t num_clients = 1;

  NamePolicy name_policy = NamePolicy::kMkdirSwitching;
  double mkdir_redirect_probability = 0.25;
  uint8_t default_replication = 1;  // 2+ = mirrored striping for new files
  bool use_block_maps = false;
  uint32_t threshold = 65536;
  uint32_t stripe_unit = 32768;
  uint64_t volume_secret = 0x51ce2000;
  double loss_rate = 0.0;

  // Fleet routing by rendezvous (HRW) hashing in every µproxy: storage
  // striping and locally-built small-file tables pick sites by highest
  // random weight, so membership changes move the minimal key set.
  bool rendezvous_routing = false;

  // In-proxy metadata cache: each µproxy answers repeated LOOKUPs (and
  // GETATTRs with complete cached attributes) from a bounded LRU, with
  // epoch-based invalidation riding the mgmt table push. Off by default —
  // the cache changes observable RPC flows, so benches opt in explicitly.
  bool proxy_cache = false;

  Calibration cal;
  // FFS metadata amplification at the storage nodes (see StorageNodeParams).
  double storage_extra_meta_ios = 0.0;

  // Ensemble control plane (src/mgmt): heartbeat failure detection,
  // epoch-stamped routing tables, automated failover/rebalance. On by
  // default; benches that model a static healthy ensemble turn it off to
  // keep heartbeat traffic out of their measurements.
  MgmtParams mgmt;

  // End-to-end request tracing (src/obs). Off by default: with
  // trace.enabled false no Tracer is constructed and every instrumentation
  // site reduces to a null-pointer check.
  obs::TracerParams trace{.enabled = false};

  // Ensemble-wide metrics plane (src/obs): typed instruments on every host,
  // a sim-time scraper sampling them into time series, and the stock
  // saturation watchdogs. Off by default for the same reason as tracing —
  // disabled means no hub is constructed, components keep null instrument
  // pointers, and hot paths pay one branch.
  obs::MetricsParams metrics{.enabled = false};

  // Tenant/QoS plane (src/obs): with num_tenants > 0 and metrics enabled,
  // the hub preallocates per-tenant × per-opclass instruments, workload
  // clients stamp their tenant id into every request's AUTH_SYS credential,
  // and each µproxy accounts end-to-end latency with tail exemplars. 0 (the
  // default) keeps every untenanted export byte-identical to older builds.
  uint32_t num_tenants = 0;
  // Per-tenant SLO objectives evaluated on the scraper cadence (multi-window
  // burn-rate alerting); requires num_tenants > 0 and slo.enabled.
  obs::SloParams slo;
  // Per-slot dir op providers (+ slot×tenant joints): the demand signal for
  // the per-slot hotspot mode (mgmt.hotspot_per_slot) and the tenant report.
  bool dir_slot_metrics = false;

  // Profiler (src/obs): the cost pillar. Per-host sim-time utilization
  // ledgers (cpu / queue / disk / wire, scraped into the metrics time
  // series) plus wall-clock per-stage scope timings on the real fast path.
  // Off by default like the other pillars: disabled means no Profiler is
  // constructed, components keep null ledger pointers, and every charge or
  // scope site costs one branch.
  obs::ProfilerParams profiler;

  // Structured event log + flight recorder (src/obs): per-host rings of
  // routing / failover / retransmit decision records, dumped as canonical
  // JSON. Off by default like the other pillars: disabled means no EventLog
  // is constructed and every LogEvent site is a null-pointer check.
  obs::EventLogParams eventlog{.enabled = false};
  // When non-empty (and the event log is on), the flight recorder dump is
  // written here automatically — on the first watchdog alert raise and again
  // at ensemble teardown (the later dump supersedes the earlier one).
  std::string flight_dump_path;

  // Deterministic chaos plan (src/chaos): when enabled, a ChaosEngine is
  // constructed with hooks into this ensemble's network, nodes, disks and
  // heartbeat agents, and every FaultSpec is armed as a background DES
  // event. Off by default — disabled means no engine exists and no layer
  // pays anything.
  chaos::ChaosConfig chaos;
};

class Ensemble {
 public:
  Ensemble(EventQueue& queue, EnsembleConfig config);
  ~Ensemble();

  Ensemble(const Ensemble&) = delete;
  Ensemble& operator=(const Ensemble&) = delete;

  // The virtual NFS service address clients mount.
  Endpoint virtual_server() const { return virtual_server_; }
  FileHandle root() const { return dir_servers_[0]->RootHandle(); }
  uint64_t volume_secret() const { return config_.volume_secret; }

  Network& network() { return *network_; }
  EventQueue& queue() { return queue_; }
  const EnsembleConfig& config() const { return config_; }

  size_t num_clients() const { return client_hosts_.size(); }
  Host& client_host(size_t i) { return *client_hosts_.at(i); }
  Uproxy& uproxy(size_t i) { return *uproxies_.at(i); }

  DirServer& dir_server(size_t i) { return *dir_servers_.at(i); }
  size_t num_dir_servers() const { return dir_servers_.size(); }
  StorageNode& storage_node(size_t i) { return *storage_nodes_.at(i); }
  size_t num_storage_nodes() const { return storage_nodes_.size(); }
  SmallFileServer& small_file_server(size_t i) { return *small_file_servers_.at(i); }
  size_t num_small_file_servers() const { return small_file_servers_.size(); }
  Coordinator& coordinator(size_t i) { return *coordinators_.at(i); }
  size_t num_coordinators() const { return coordinators_.size(); }

  // Ensemble manager; null when config.mgmt.enabled is false.
  EnsembleManager* manager() { return manager_.get(); }

  // Chaos engine; null when config.chaos.enabled is false.
  chaos::ChaosEngine* chaos_engine() { return chaos_engine_.get(); }
  // The node in ensemble coordinates, or null when out of range.
  RpcServerNode* node(NodeClass cls, uint32_t index);

  // Metrics hub / scraper; null when config.metrics.enabled is false.
  obs::Metrics* metrics() { return metrics_.get(); }
  obs::Scraper* scraper() { return scraper_.get(); }
  // SLO engine; null unless metrics, num_tenants > 0, and slo.enabled.
  obs::SloEngine* slo_engine() { return slo_engine_.get(); }
  // Canonical JSON snapshot (instruments + series + alerts) and its FNV-1a
  // content hash; empty/0 when metrics are off.
  std::string ExportMetricsJson() const;
  uint64_t MetricsHash() const;
  // Prometheus text exposition; empty when metrics are off.
  std::string ExportMetricsText() const;
  // Watchdog raise/clear edges so far (empty when metrics are off).
  std::vector<obs::Alert> alerts() const;

  // Event log; null when config.eventlog.enabled is false.
  obs::EventLog* eventlog() { return eventlog_.get(); }
  // Canonical flight-recorder dump (merged events + metrics snapshot +
  // in-flight trace ids) and its FNV-1a content hash; empty/0 when the
  // event log is off.
  std::string ExportFlightJson(const char* reason = "manual") const;
  uint64_t FlightHash() const;
  // Writes the dump to `path`; returns false when the event log is off or
  // the write failed.
  bool DumpFlightRecorder(const std::string& path, const char* reason = "manual") const;
  // Trace ids of requests still pending at any µproxy, sorted and deduped.
  std::vector<uint64_t> InflightTraceIds() const;

  // Profiler; null when config.profiler.enabled is false.
  obs::Profiler* profiler() { return profiler_.get(); }
  const obs::Profiler* profiler() const { return profiler_.get(); }
  // Canonical {"profile":{"sim":...,"wall":...}} JSON; empty when off.
  std::string ExportProfileJson() const;
  // Collapsed-stack wall-clock rendering (FlameGraph input); empty when off.
  std::string ExportProfileFolded() const;
  // FNV-1a over the sim-time ledger section only (wall values are
  // machine-dependent and stay out-of-hash); 0 when off.
  uint64_t ProfileSimHash() const;

  // Tracer; null when config.trace.enabled is false.
  obs::Tracer* tracer() { return tracer_.get(); }
  // Collected spans in canonical order (empty when tracing is off).
  std::vector<obs::Span> CollectSpans() const;
  // Chrome trace-event JSON / content hash over the collected spans.
  std::string ExportTraceJson() const;
  uint64_t TraceHash() const;
  // Critical-path latency accounting over the collected spans.
  obs::CriticalPathReport AnalyzeCriticalPath() const;

  // Convenience: a blocking NFS client mounted on client `i` through its
  // µproxy at the virtual server address.
  std::unique_ptr<SyncNfsClient> MakeSyncClient(size_t i);
  std::unique_ptr<NfsClient> MakeAsyncClient(size_t i);

  // Aggregate routing statistics across all µproxies.
  OpCounters AggregateCounters() const;

 private:
  // Failover orchestration, invoked by the manager on every epoch change:
  // installs dir-server views, remaps peers to adopters, replays dead sites'
  // WALs into adopters, hands state back on rejoin, resyncs mirrors.
  void OnReconfigure(const MgmtTableSet& tables, const std::vector<uint64_t>& died,
                     const std::vector<uint64_t>& revived);
  // Defers a handoff until the rejoined owner finishes WAL recovery and the
  // adopter finishes any in-flight adoption.
  void ScheduleHandoff(DirServer* adopter, uint32_t site, DirServer* target);

  EventQueue& queue_;
  EnsembleConfig config_;
  Endpoint virtual_server_;
  std::unique_ptr<obs::Tracer> tracer_;  // before network_: spans outlive taps
  // Like the tracer: events recorded during component teardown must land in
  // a still-live log, so the log outlives everything below.
  std::unique_ptr<obs::EventLog> eventlog_;
  // Before network_/components: they cache raw ledger pointers from
  // LedgerFor at construction, so the profiler must be destroyed last.
  std::unique_ptr<obs::Profiler> profiler_;
  // Hub before network_/components: providers registered by components are
  // destroyed with their registries only after every pollster is gone. The
  // scraper's queued events die with its own owner token.
  std::unique_ptr<obs::Metrics> metrics_;
  std::unique_ptr<obs::Scraper> scraper_;
  // After the scraper: destroyed first, and the scrape hook only fires while
  // the queue runs, so the raw pointer the hook captures never dangles.
  std::unique_ptr<obs::SloEngine> slo_engine_;
  std::unique_ptr<Network> network_;
  std::vector<std::unique_ptr<StorageNode>> storage_nodes_;
  std::vector<std::unique_ptr<Coordinator>> coordinators_;
  std::vector<std::unique_ptr<DirServer>> dir_servers_;
  std::vector<std::unique_ptr<SmallFileServer>> small_file_servers_;
  std::vector<std::unique_ptr<Host>> client_hosts_;
  std::vector<std::unique_ptr<Uproxy>> uproxies_;
  std::vector<Endpoint> storage_endpoints_;
  std::unique_ptr<EnsembleManager> manager_;
  std::vector<std::unique_ptr<HeartbeatAgent>> heartbeat_agents_;
  // Destroyed before every component, so the engine's hooks never observe a
  // partially-torn-down ensemble (its scheduled fault events die with its
  // own owner token).
  std::unique_ptr<chaos::ChaosEngine> chaos_engine_;
  EventQueue::Owner owner_;  // owns the deferred dir-site handoffs
};

}  // namespace slice

#endif  // SLICE_SLICE_ENSEMBLE_H_
