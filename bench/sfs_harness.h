// Shared harness for the SPECsfs-style benches (Figures 5 and 6): runs the
// SFS-like mix against a Slice ensemble with N storage nodes or against the
// single-server NFS baseline, with a self-scaling file set (bigger offered
// load -> bigger file set, like SPECsfs), and returns (delivered IOPS, mean
// latency) per offered-load point.
#ifndef SLICE_BENCH_SFS_HARNESS_H_
#define SLICE_BENCH_SFS_HARNESS_H_

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/baseline/baseline_server.h"
#include "src/slice/ensemble.h"
#include "src/workload/sfs_gen.h"

namespace slice {

inline double BenchScale() {
  if (const char* env = std::getenv("SLICE_BENCH_SFS_SCALE"); env != nullptr) {
    return std::atof(env);
  }
  return 1.0;
}

inline SfsParams ScaledSfsParams(double offered) {
  SfsParams params;
  params.offered_ops_per_sec = offered;
  // SPECsfs grows the file set with offered load (10MB per op/s on the real
  // suite); we grow file count with load so cache pressure rises too.
  params.num_files = static_cast<size_t>(std::max(120.0, offered / 4.0 * BenchScale()));
  params.num_dirs = 16;
  // SPECsfs adds generator processes with offered load; without this the
  // outstanding-request cap, not the server, would bound delivered IOPS.
  params.num_processes = static_cast<size_t>(std::max(8.0, offered / 100.0));
  params.warmup = FromMillis(800);
  params.duration = FromSeconds(4);
  return params;
}

// Calibration shared by both systems: small caches relative to the scaled
// file set, and FFS-like metadata amplification so disk arms bound
// saturation as in the paper.
constexpr double kSfsMetaIos = 3.0;
constexpr double kSfsStorageCacheMb = 3.0;
constexpr double kSfsSmallFileCacheMb = 6.0;  // x2 servers = the "1GB" equivalent
// The baseline server is the same Dell 4400 as one storage node — same RAM.
// Slice's extra file-manager machines bring extra cache; that asymmetry is
// the architecture's point, not an unfair handicap.
constexpr double kSfsBaselineCacheMb = 3.0;

struct SfsPoint {
  double offered = 0;
  double delivered = 0;
  double latency_ms = 0;  // mean
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
};

inline SfsPoint PointFromReport(double offered, const SfsReport& report) {
  SfsPoint point;
  point.offered = offered;
  point.delivered = report.delivered_iops;
  point.latency_ms = report.mean_latency_ms;
  point.p50_ms = ToMillis(report.p50_latency);
  point.p95_ms = ToMillis(report.p95_latency);
  point.p99_ms = ToMillis(report.p99_latency);
  return point;
}

// Everything a profiled run exports: the canonical profile JSON, the
// collapsed-stack rendering, the sim-section hash (byte-stable same-seed),
// and the worst per-host ledger coverage in basis points.
struct SfsProfile {
  std::string profile_json;
  std::string folded;
  uint64_t sim_hash = 0;
  uint64_t min_coverage_bp = 0;
};

// The observability pillars a Slice point runs with, plus the two ensemble
// knobs the benches vary. Every pillar is off by default.
struct SliceRunOptions {
  bool metrics = false;
  bool eventlog = false;
  bool profiler = false;
  bool trace = false;
  bool proxy_cache = false;
  // > 0: generator processes split round-robin across this many AUTH_SYS
  // identities, with the SLO engine riding the scraper (needs metrics).
  uint32_t tenants = 0;
};

// A Slice point's delivered numbers plus the exports of the pillars it ran
// with; the fields of a pillar that was off stay empty.
struct SliceRun {
  SfsPoint point;
  // metrics: the canonical JSON snapshot, ensemble-wide counter totals
  // (summed across hosts) and, with tenants, flat per-tenant totals.
  std::string metrics_json;
  std::map<std::string, uint64_t> counter_totals;
  std::map<std::string, uint64_t> tenant_totals;
  // eventlog: the canonical flight-recorder dump.
  std::string flight_json;
  // profiler
  SfsProfile profile;
  // trace: the critical-path latency breakdown and the chrome://tracing JSON.
  obs::CriticalPathReport critical_path;
  std::string trace_json;
};

inline SliceRun RunSlicePoint(size_t storage_nodes, double offered,
                              const SliceRunOptions& options = {}) {
  EventQueue queue;
  EnsembleConfig config;
  config.mgmt.enabled = false;  // static healthy ensemble; no heartbeat traffic
  config.num_storage_nodes = storage_nodes;
  config.num_small_file_servers = 2;
  config.num_dir_servers = 1;
  config.num_clients = 4;
  config.cal.storage_cache_mb = kSfsStorageCacheMb;
  config.cal.sfs_cache_mb = kSfsSmallFileCacheMb;
  config.storage_extra_meta_ios = kSfsMetaIos;
  config.proxy_cache = options.proxy_cache;
  config.metrics.enabled = options.metrics;
  config.eventlog.enabled = options.eventlog;
  config.profiler.enabled = options.profiler;
  config.trace.enabled = options.trace;
  if (options.tenants > 0) {
    config.num_tenants = options.tenants;
    config.slo.enabled = true;
  }
  Ensemble ensemble(queue, config);
  SfsParams params = ScaledSfsParams(offered);
  params.num_tenants = options.tenants;
  SfsBenchmark bench(ensemble.client_host(0), queue, ensemble.virtual_server(),
                     ensemble.root(), params);
  SLICE_CHECK(bench.Setup().ok());
  const SfsReport report = bench.Run();

  SliceRun run;
  run.point = PointFromReport(offered, report);
  if (const obs::Metrics* metrics = ensemble.metrics()) {
    run.metrics_json = ensemble.ExportMetricsJson();
    for (const auto& [host, reg] : metrics->registries()) {
      for (const auto& [name, counter] : reg.counters()) {
        run.counter_totals[name] += counter->Value();
      }
    }
    // Flat integer totals per tenant — deterministic, so the fig5_tenants
    // golden can pin the attribution split exactly.
    for (const obs::TenantInstruments& ti : metrics->tenants()) {
      const std::string prefix = "tenant" + std::to_string(ti.tenant) + "_";
      for (size_t c = 0; c < obs::kTenantOpClassCount; ++c) {
        run.tenant_totals[prefix + "ops_" +
                          obs::TenantOpClassName(static_cast<obs::TenantOpClass>(c))] =
            ti.ops[c].Value();
      }
      run.tenant_totals[prefix + "bad_ops"] = ti.bad_ops.Value();
      run.tenant_totals[prefix + "errors"] = ti.errors.Value();
    }
  }
  if (ensemble.eventlog() != nullptr) {
    run.flight_json = ensemble.ExportFlightJson("bench");
  }
  if (const obs::Profiler* profiler = ensemble.profiler()) {
    run.profile.profile_json = ensemble.ExportProfileJson();
    run.profile.folded = ensemble.ExportProfileFolded();
    run.profile.sim_hash = ensemble.ProfileSimHash();
    run.profile.min_coverage_bp = profiler->MinCoverageBp();
  }
  if (ensemble.tracer() != nullptr) {
    run.critical_path = ensemble.AnalyzeCriticalPath();
    run.trace_json = ensemble.ExportTraceJson();
  }
  return run;
}

inline SfsPoint RunBaselinePoint(double offered) {
  EventQueue queue;
  Network net(queue, NetworkParams{});
  BaselineServerParams server_params;
  server_params.memory_backed = false;
  server_params.cache_bytes = static_cast<uint64_t>(kSfsBaselineCacheMb * (1 << 20));
  server_params.extra_meta_ios = kSfsMetaIos;
  BaselineServer server(net, queue, 0x0a000010, server_params);
  Host client_host(net, 0x0a000901);

  SfsParams params = ScaledSfsParams(offered);
  SfsBenchmark bench(client_host, queue, server.endpoint(), server.RootHandle(), params);
  SLICE_CHECK(bench.Setup().ok());
  const SfsReport report = bench.Run();
  return PointFromReport(offered, report);
}

}  // namespace slice

#endif  // SLICE_BENCH_SFS_HARNESS_H_
