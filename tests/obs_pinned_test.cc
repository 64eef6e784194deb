// Cross-build pin for the observability exports. The other determinism tests
// compare two runs of the same build; this one compares builds. One small
// ensemble runs with all four pillars on (traces, metrics, event log,
// profiler) plus every opt-in instrument family that changes what gets
// registered (manager, tenants + SLO engine, per-slot dir counters, the
// proxy cache, name hashing over two dir servers), and its four content
// hashes are pinned, plus a hash of the chrome://tracing JSON bytes. A change
// to how components are wired to the pillars, to what they record, or to how
// an export renders it, has to show up as a conscious constant bump here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/common/hash.h"
#include "src/obs/flight_recorder.h"
#include "src/slice/ensemble.h"
#include "src/workload/sfs_gen.h"

namespace slice {
namespace {

// Recompute by running this test after an intentional change to what the
// pillars record; each failure message prints the new value.
constexpr uint64_t kPinnedTraceHash = 0xd9f4a8a86f73d4dcull;
constexpr uint64_t kPinnedMetricsHash = 0x275d5327a55dc1eeull;
constexpr uint64_t kPinnedFlightHash = 0xbe680cfb5fa376eeull;
constexpr uint64_t kPinnedProfileSimHash = 0x08ca5437ac8598c3ull;
constexpr uint64_t kPinnedChromeTraceHash = 0xac41f8d72db8e26full;

struct PinnedHashes {
  uint64_t trace = 0;
  uint64_t metrics = 0;
  uint64_t flight = 0;
  uint64_t profile_sim = 0;
  uint64_t chrome_trace = 0;  // FNV-1a over the exported trace JSON bytes
};

// The flight dump ends with the profiler's section, whose "wall" half holds
// host-dependent wall-clock timings; the hash covers everything before it
// (events, metrics snapshot and the sim-time ledgers).
uint64_t FlightHashWithoutWallClock(const std::string& flight_json) {
  const size_t profile = flight_json.rfind(",\"profile\":");
  SLICE_CHECK(profile != std::string::npos);
  const size_t wall = flight_json.find(",\"wall\":", profile);
  SLICE_CHECK(wall != std::string::npos);
  return obs::FlightContentHash(std::string_view(flight_json).substr(0, wall));
}

PinnedHashes RunAllPillars() {
  EventQueue queue;
  EnsembleConfig config;
  config.num_storage_nodes = 2;
  config.num_small_file_servers = 1;
  config.num_dir_servers = 2;
  config.num_clients = 2;
  config.name_policy = NamePolicy::kNameHashing;
  config.proxy_cache = true;
  config.dir_slot_metrics = true;
  config.num_tenants = 2;
  config.slo.enabled = true;
  config.trace.enabled = true;
  config.metrics.enabled = true;
  config.eventlog.enabled = true;
  config.profiler.enabled = true;
  SLICE_CHECK(config.mgmt.enabled);  // the manager is part of the pinned wiring
  Ensemble ensemble(queue, config);

  SfsParams params;
  params.offered_ops_per_sec = 300;
  params.num_files = 40;
  params.num_dirs = 6;
  params.num_processes = 4;
  params.num_tenants = 2;
  params.warmup = FromMillis(100);
  params.duration = FromMillis(600);
  SfsBenchmark bench(ensemble.client_host(0), queue, ensemble.virtual_server(),
                     ensemble.root(), params);
  SLICE_CHECK(bench.Setup().ok());
  const SfsReport report = bench.Run();
  SLICE_CHECK(report.ops_completed > 0);

  PinnedHashes out;
  out.trace = ensemble.TraceHash();
  out.metrics = ensemble.MetricsHash();
  out.flight = FlightHashWithoutWallClock(ensemble.ExportFlightJson());
  out.profile_sim = ensemble.ProfileSimHash();
  out.chrome_trace = Fnv1a64(ensemble.ExportTraceJson());
  return out;
}

TEST(ObsPinnedTest, AllPillarExportsMatchPinnedHashes) {
  const PinnedHashes got = RunAllPillars();
  EXPECT_EQ(got.trace, kPinnedTraceHash) << std::hex << "TraceHash 0x" << got.trace;
  EXPECT_EQ(got.metrics, kPinnedMetricsHash) << std::hex << "MetricsHash 0x" << got.metrics;
  EXPECT_EQ(got.flight, kPinnedFlightHash) << std::hex << "FlightHash 0x" << got.flight;
  EXPECT_EQ(got.profile_sim, kPinnedProfileSimHash)
      << std::hex << "ProfileSimHash 0x" << got.profile_sim;
  EXPECT_EQ(got.chrome_trace, kPinnedChromeTraceHash)
      << std::hex << "ChromeTraceHash 0x" << got.chrome_trace;
}

}  // namespace
}  // namespace slice
