// Figure 5 reproduction: SPECsfs97-style delivered throughput vs offered
// load, for the single-server NFS baseline and Slice with N storage nodes.
//
//   paper: the FreeBSD NFS baseline saturates at 850 IOPS; Slice-1 beats it
//   (faster directory ops, extra small-file caches on the same number of
//   disk arms); throughput scales with storage nodes up to ~6600 IOPS for
//   Slice-8 (64 disks). All Slice configurations serve ONE unified volume.
//
// Scaled-down substitute workload (see DESIGN.md): check the shape — who
// wins, roughly linear scaling with storage nodes, saturation plateaus.
//
// Flags:
//   --smoke           small sweep (2 loads, NFS + Slice-2) for CI
//   --proxy-cache     run the Slice lines with the in-proxy metadata cache
//                     (lookup + attribute) enabled; the bench renames itself
//                     fig5_cache so the A/B artifacts get their own golden
//   --no-pool         disable the packet pool (A/B determinism check: same
//                     seed must produce byte-identical artifacts either way)
//   --assert-zero-alloc  after the sweep, run the end-to-end fast-path probe
//                     (µproxy + real storage node round trips under a
//                     counting operator-new) and exit nonzero if the
//                     steady-state window allocates at all
//   --tenants N       run the metered Slice-2 point with N tenants (AUTH_SYS
//                     tagged generator processes) and the SLO engine on; the
//                     bench renames itself fig5_tenants and the baseline
//                     gains per-tenant op/bad-op totals for its own golden
//   --metrics <path>  re-run one Slice-2 point with the metrics plane on and
//                     write the canonical metrics JSON snapshot to <path>
//   --flight-dump <path>  re-run one Slice-2 point with the event log on and
//                     write the flight-recorder dump (tail of routing
//                     decisions + metrics snapshot) to <path>
//   --profile <path>  re-run one Slice-2 point with the profiler on and write
//                     the {"profile":...} JSON to <path> plus a collapsed-
//                     stack rendering next to it (<path minus .json>.folded);
//                     the bench renames itself fig5_profile — profiler runs
//                     register extra instruments, so they get their own
//                     artifacts instead of perturbing the fig5 golden
//
// Always writes BENCH_fig5.json (BENCH_fig5_cache.json under --proxy-cache):
// per-line points (offered, delivered, mean, p50/p95/p99 ms), the <40ms
// saturation per line, and — when --metrics ran — ensemble-wide counter
// totals from the metered run (under --proxy-cache these include the
// in-proxy cache hit counters and the reduced dir-tier op counts).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <vector>

#include "bench/bench_json.h"
#include "bench/sfs_harness.h"
#include "src/common/hash.h"
#include "src/core/uproxy.h"
#include "src/net/network.h"
#include "src/net/packet_pool.h"
#include "src/nfs/nfs_xdr.h"
#include "src/rpc/rpc_message.h"
#include "src/storage/storage_node.h"

// Process-wide allocation counter for --assert-zero-alloc: the end-to-end
// fast-path probe measures a steady-state delta, which must be exactly zero
// (the same operator-new override the fastpath_alloc_test uses).
static uint64_t g_allocs = 0;

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace slice {
namespace {

// --assert-zero-alloc: the end-to-end steady-state probe. One µproxy in
// front of one REAL storage node; every round trip runs the full interposed
// path (outbound decode/route/rewrite → rpc view decode + DRC → cache-hit
// READ → span-spliced reply encode → deferred send flight → inbound pairing
// + attr patch). After warming the DRC ring, caches and pool freelists, the
// measured window must allocate exactly zero times. Returns true on success.
bool RunZeroAllocProbe() {
  constexpr NetAddr kClientAddr = 0x0a000001;
  constexpr NetAddr kStorageAddr = 0x0a000020;
  constexpr NetPort kNfsPort = 2049;
  constexpr NetPort kClientPort = 5001;

  EventQueue queue;
  Network net(queue, NetworkParams{});
  Host client_host(net, kClientAddr);

  UproxyConfig config;
  config.virtual_server = Endpoint{0x0a0000fe, kNfsPort};
  config.dir_servers = {Endpoint{0x0a000010, kNfsPort}};
  config.storage_nodes = {Endpoint{kStorageAddr, kNfsPort}};
  Uproxy uproxy(net, queue, client_host, config);

  StorageNode storage(net, queue, kStorageAddr, StorageNodeParams{});
  const FileHandle fh = FileHandle::Make(1, MakeFileid(0, 42), 1, FileType3::kReg, 1, 0);
  const ObjectId object = MixU64(fh.fileid() ^ (static_cast<uint64_t>(fh.volume()) << 48));
  constexpr uint64_t kOffset = 1 << 20;  // bulk route: straight to storage
  {
    Bytes payload(64 << 10, 0x5a);
    if (!storage.mutable_store().Write(object, kOffset, ByteSpan(payload), true).ok()) {
      return false;
    }
  }

  uint64_t replies = 0;
  client_host.Bind(kClientPort, [&replies](Packet&&) { ++replies; });

  RpcCall call;
  call.xid = 0;  // patched per request: a fixed xid would replay from the DRC
  call.prog = kNfsProgram;
  call.vers = kNfsVersion;
  call.proc = static_cast<uint32_t>(NfsProc::kRead);
  {
    XdrEncoder args;
    ReadArgs rargs;
    rargs.file = fh;
    rargs.offset = kOffset;
    rargs.count = 4096;
    rargs.Encode(args);
    call.args = args.Take();
  }
  Bytes req_wire = call.Encode();

  const Endpoint client_ep{kClientAddr, kClientPort};
  uint32_t xid = 0;
  auto round_trip = [&]() {
    ++xid;
    req_wire[0] = static_cast<uint8_t>(xid >> 24);
    req_wire[1] = static_cast<uint8_t>(xid >> 16);
    req_wire[2] = static_cast<uint8_t>(xid >> 8);
    req_wire[3] = static_cast<uint8_t>(xid);
    uproxy.HandleOutbound(Packet::MakeUdp(client_ep, config.virtual_server, req_wire));
    queue.RunUntilIdle();
  };

  constexpr int kWarmup = 4096 + 128;  // run the DRC ring to FIFO steady state
  constexpr int kMeasured = 1024;
  for (int i = 0; i < kWarmup; ++i) {
    round_trip();
  }
  const uint64_t before = g_allocs;
  for (int i = 0; i < kMeasured; ++i) {
    round_trip();
  }
  const uint64_t delta = g_allocs - before;
  const bool ok = delta == 0 && replies == static_cast<uint64_t>(kWarmup) + kMeasured;
  std::printf("\n--assert-zero-alloc: %llu allocations over %d served end-to-end requests "
              "(%llu replies) — %s\n",
              static_cast<unsigned long long>(delta), kMeasured,
              static_cast<unsigned long long>(replies), ok ? "OK" : "FAILED");
  return ok;
}

struct BenchLine {
  const char* name;
  double saturation = 0;
  std::vector<SfsPoint> points;
};

void RunFig5(bool smoke, bool proxy_cache, const char* metrics_path, const char* flight_path,
             const char* profile_path, uint32_t tenants) {
  std::printf("Figure 5: SFS97-like delivered throughput (IOPS) vs offered load%s%s\n\n",
              proxy_cache ? " [in-proxy metadata cache ON]" : "",
              tenants > 0 ? " [tenant/SLO plane ON]" : "");
  const std::vector<double> offered_loads =
      smoke ? std::vector<double>{400, 800}
            : std::vector<double>{400, 800, 1600, 3200, 6400, 9600, 12800};

  std::printf("%-10s", "offered");
  for (double offered : offered_loads) {
    std::printf("%8.0f", offered);
  }
  std::printf("%12s\n", "sat(<40ms)");

  // SPECsfs disqualifies runs whose mean latency exceeds the response-time
  // bound (40ms in SFS97); delivered IOPS past that point is metadata-only
  // throughput with unusable I/O latency.
  constexpr double kLatencyBoundMs = 40.0;
  std::vector<BenchLine> lines;
  auto run_line = [&](const char* name, auto&& runner) {
    BenchLine line;
    line.name = name;
    std::printf("%-10s", name);
    for (double offered : offered_loads) {
      const SfsPoint point = runner(offered);
      if (point.latency_ms <= kLatencyBoundMs) {
        line.saturation = std::max(line.saturation, point.delivered);
      }
      line.points.push_back(point);
      std::printf("%8.0f", point.delivered);
      std::fflush(stdout);
    }
    std::printf("%12.0f\n", line.saturation);
    lines.push_back(std::move(line));
    return lines.back().saturation;
  };

  const double base = run_line("NFS", [](double o) { return RunBaselinePoint(o); });
  auto slice_line = [&](const char* name, size_t nodes) {
    return run_line(name, [&](double o) {
      return RunSlicePoint(nodes, o, {.proxy_cache = proxy_cache}).point;
    });
  };
  double s2 = 0;
  if (smoke) {
    s2 = slice_line("Slice-2", 2);
    std::printf("\nsaturation ratio vs baseline: Slice-2 %.1fx\n", s2 / base);
  } else {
    const double s1 = slice_line("Slice-1", 1);
    s2 = slice_line("Slice-2", 2);
    const double s4 = slice_line("Slice-4", 4);
    const double s8 = slice_line("Slice-8", 8);
    std::printf("\nsaturation ratios vs baseline (paper: Slice-8/NFS = 6600/850 = 7.8x):\n");
    std::printf("  Slice-1 %.1fx  Slice-2 %.1fx  Slice-4 %.1fx  Slice-8 %.1fx\n", s1 / base,
                s2 / base, s4 / base, s8 / base);
    auto verdict = [](bool holds) { return holds ? "holds" : "fails"; };
    std::printf("shape checks:\n");
    std::printf("  saturation grows with storage nodes (%.0f < %.0f < %.0f < %.0f): %s\n", s1, s2,
                s4, s8, verdict(s1 < s2 && s2 < s4 && s4 < s8));
    std::printf("  Slice-1 > NFS baseline (%.0f vs %.0f): %s — a known deviation at this\n"
                "    scale, see EXPERIMENTS.md, Figure 5, \"Known deviations\"\n",
                s1, base, verdict(s1 > base));
    std::printf("every Slice line serves one unified volume (no volume partitioning).\n");
  }

  // Optional metered run: one Slice-2 point with the full metrics plane on
  // (plus the tenant/SLO plane under --tenants).
  std::map<std::string, uint64_t> counter_totals;
  std::map<std::string, uint64_t> tenant_totals;
  if (metrics_path != nullptr) {
    const double offered = smoke ? 800 : 1600;
    std::printf("\n--metrics: Slice-2 @ %.0f ops/s with the metrics plane enabled%s\n", offered,
                tenants > 0 ? " + tenant/SLO plane" : "");
    SliceRun run = RunSlicePoint(
        2, offered, {.metrics = true, .proxy_cache = proxy_cache, .tenants = tenants});
    counter_totals = std::move(run.counter_totals);
    tenant_totals = std::move(run.tenant_totals);
    std::ofstream out(metrics_path, std::ios::binary | std::ios::trunc);
    out << run.metrics_json << "\n";
    std::printf("metrics snapshot written to %s (hash %016llx)\n", metrics_path,
                static_cast<unsigned long long>(obs::MetricsContentHash(run.metrics_json)));
    if (proxy_cache) {
      // The acceptance evidence: lookups/getattrs absorbed at the µproxy
      // never become dir-tier RPCs, so dir_op_lookup/dir_op_getattr shrink
      // by exactly the cache hit counts (pinned in the fig5_cache golden).
      std::printf("in-proxy cache: lookup hits %llu, getattr hits %llu; "
                  "dir-tier lookup RPCs %llu, getattr RPCs %llu\n",
                  static_cast<unsigned long long>(counter_totals["uproxy_cache_lookup_hits"]),
                  static_cast<unsigned long long>(counter_totals["uproxy_cache_getattr_hits"]),
                  static_cast<unsigned long long>(counter_totals["dir_op_lookup"]),
                  static_cast<unsigned long long>(counter_totals["dir_op_getattr"]));
    }
  }

  // Optional flight-recorded run: one Slice-2 point with the event log on.
  if (flight_path != nullptr) {
    const double offered = smoke ? 800 : 1600;
    std::printf("\n--flight-dump: Slice-2 @ %.0f ops/s with the event log enabled\n", offered);
    const SliceRun run = RunSlicePoint(
        2, offered, {.metrics = true, .eventlog = true, .proxy_cache = proxy_cache});
    obs::WriteFlightDump(flight_path, run.flight_json);
    std::printf("flight dump written to %s (hash %016llx)\n", flight_path,
                static_cast<unsigned long long>(obs::FlightContentHash(run.flight_json)));
  }

  // Optional profiled run: one Slice-2 point with the profiler (plus metrics
  // and the event log, so the flight dump carries the profile section).
  SfsProfile profile;
  if (profile_path != nullptr) {
    const double offered = smoke ? 800 : 1600;
    std::printf("\n--profile: Slice-2 @ %.0f ops/s with the profiler enabled\n", offered);
    profile = RunSlicePoint(2, offered,
                            {.metrics = true,
                             .eventlog = true,
                             .profiler = true,
                             .proxy_cache = proxy_cache})
                  .profile;
    std::ofstream out(profile_path, std::ios::binary | std::ios::trunc);
    out << profile.profile_json << "\n";
    std::string folded_path(profile_path);
    const size_t dot = folded_path.rfind(".json");
    folded_path = (dot == std::string::npos ? folded_path : folded_path.substr(0, dot)) +
                  ".folded";
    std::ofstream folded(folded_path, std::ios::binary | std::ios::trunc);
    folded << profile.folded;
    std::printf("profile written to %s (+ %s), sim hash %016llx, "
                "min host ledger coverage %.2f%%\n",
                profile_path, folded_path.c_str(),
                static_cast<unsigned long long>(profile.sim_hash),
                static_cast<double>(profile.min_coverage_bp) / 100.0);
  }

  if (tenants > 0 && !tenant_totals.empty()) {
    std::printf("per-tenant attribution (metered Slice-2 point):\n");
    for (uint32_t t = 1; t <= tenants; ++t) {
      const std::string prefix = "tenant" + std::to_string(t) + "_";
      uint64_t total = 0;
      for (const auto& [name, value] : tenant_totals) {
        if (name.rfind(prefix + "ops_", 0) == 0) {
          total += value;
        }
      }
      std::printf("  tenant %u: %llu ops, %llu bad\n", t,
                  static_cast<unsigned long long>(total),
                  static_cast<unsigned long long>(tenant_totals[prefix + "bad_ops"]));
    }
  }

  const char* bench_name = profile_path != nullptr
                               ? "fig5_profile"
                               : (tenants > 0 ? "fig5_tenants"
                                              : (proxy_cache ? "fig5_cache" : "fig5"));
  JsonWriter w;
  w.BeginObject();
  w.Key("bench").String(bench_name);
  w.Key("smoke").Int(smoke ? 1 : 0);
  w.Key("proxy_cache").Int(proxy_cache ? 1 : 0);
  w.Key("tenants").Int(static_cast<int64_t>(tenants));
  w.Key("latency_bound_ms").Fixed(kLatencyBoundMs, 1);
  w.Key("offered").BeginArray();
  for (double offered : offered_loads) {
    w.Fixed(offered, 0);
  }
  w.EndArray();
  w.Key("lines").BeginArray();
  for (const BenchLine& line : lines) {
    w.BeginObject();
    w.Key("name").String(line.name);
    w.Key("saturation_iops").Fixed(line.saturation, 1);
    w.Key("points").BeginArray();
    for (const SfsPoint& point : line.points) {
      w.BeginObject();
      w.Key("offered").Fixed(point.offered, 0);
      w.Key("delivered_iops").Fixed(point.delivered, 1);
      w.Key("mean_ms").Fixed(point.latency_ms, 3);
      w.Key("p50_ms").Fixed(point.p50_ms, 3);
      w.Key("p95_ms").Fixed(point.p95_ms, 3);
      w.Key("p99_ms").Fixed(point.p99_ms, 3);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  if (!counter_totals.empty()) {
    w.Key("metrics_counter_totals").BeginObject();
    for (const auto& [name, value] : counter_totals) {
      w.Key(name).UInt(value);
    }
    w.EndObject();
  }
  if (!tenant_totals.empty()) {
    w.Key("tenant_totals").BeginObject();
    for (const auto& [name, value] : tenant_totals) {
      w.Key(name).UInt(value);
    }
    w.EndObject();
  }
  if (profile_path != nullptr) {
    // Sim-side rollup only: byte-stable same-seed, so a golden may pin it.
    w.Key("profile").BeginObject();
    w.Key("sim_hash").UInt(profile.sim_hash);
    w.Key("min_coverage_bp").UInt(profile.min_coverage_bp);
    w.EndObject();
  }
  w.EndObject();
  WriteBenchFile(bench_name, w.str());
}

}  // namespace
}  // namespace slice

int main(int argc, char** argv) {
  bool smoke = false;
  bool proxy_cache = false;
  bool assert_zero_alloc = false;
  const char* metrics_path = nullptr;
  const char* flight_path = nullptr;
  const char* profile_path = nullptr;
  uint32_t tenants = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--proxy-cache") == 0) {
      proxy_cache = true;
    } else if (std::strcmp(argv[i], "--assert-zero-alloc") == 0) {
      assert_zero_alloc = true;
    } else if (std::strcmp(argv[i], "--no-pool") == 0) {
      slice::PacketPool::SetEnabled(false);
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--flight-dump") == 0 && i + 1 < argc) {
      flight_path = argv[++i];
    } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      profile_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tenants") == 0 && i + 1 < argc) {
      tenants = static_cast<uint32_t>(std::atoi(argv[++i]));
    }
  }
  slice::RunFig5(smoke, proxy_cache, metrics_path, flight_path, profile_path, tenants);
  if (assert_zero_alloc && !slice::RunZeroAllocProbe()) {
    return 1;
  }
  return 0;
}
