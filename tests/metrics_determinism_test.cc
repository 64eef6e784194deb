// End-to-end determinism and watchdog tests for the metrics plane: two
// same-seed runs — including one with a mid-run storage-node kill — must
// export byte-identical canonical metrics JSON, and the stock saturation
// watchdogs (disk backlog, heartbeat miss, node death) must fire at the
// same sim-times in every run.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/obs/metrics_export.h"
#include "src/slice/ensemble.h"
#include "src/workload/seqio.h"

namespace slice {
namespace {

bool HasAlert(const std::vector<obs::Alert>& alerts, const std::string& rule, bool raise) {
  for (const obs::Alert& alert : alerts) {
    if (alert.rule == rule && alert.raise == raise) {
      return true;
    }
  }
  return false;
}

// One storage node with a single slow arm (30ms positioning) and FFS-style
// metadata amplification: a sequential write stream outruns the arm by more
// than an order of magnitude, so queued disk work piles up far past the
// 25ms disk_backlog watermark.
struct SlowDiskRun {
  std::string metrics_json;
  uint64_t hash = 0;
  std::vector<obs::Alert> alerts;
};

SlowDiskRun RunSlowDiskScenario() {
  EventQueue queue;
  EnsembleConfig config;
  config.mgmt.enabled = false;
  config.num_storage_nodes = 1;
  config.num_small_file_servers = 0;  // all I/O goes to the storage node
  config.num_coordinators = 1;
  config.num_clients = 1;
  config.cal.disks_per_node = 1;
  config.cal.disk.avg_position_ms = 30.0;
  config.storage_extra_meta_ios = 3.0;
  config.metrics.enabled = true;
  Ensemble ensemble(queue, config);

  auto client = ensemble.MakeSyncClient(0);
  CreateRes created = client->Create(ensemble.root(), "big").value();
  SLICE_CHECK(created.status == Nfsstat3::kOk);

  SeqIoParams params;
  params.file_bytes = 2u << 20;
  params.write = true;
  bool done = false;
  SeqIoProcess writer(ensemble.client_host(0), queue, ensemble.virtual_server(),
                      *created.object, params, [&] { done = true; });
  writer.Start();
  queue.RunUntilIdle();
  SLICE_CHECK(done);

  SlowDiskRun run;
  run.metrics_json = ensemble.ExportMetricsJson();
  run.hash = ensemble.MetricsHash();
  run.alerts = ensemble.alerts();
  return run;
}

TEST(MetricsDeterminismTest, DiskBacklogWatchdogFiresOnSlowDisk) {
  const SlowDiskRun run = RunSlowDiskScenario();
  EXPECT_TRUE(HasAlert(run.alerts, "disk_backlog", /*raise=*/true))
      << "a single 30ms arm behind a 40MB/s write stream must trip the backlog watchdog";
  EXPECT_NE(run.hash, 0u);
  EXPECT_FALSE(run.metrics_json.empty());
}

TEST(MetricsDeterminismTest, SlowDiskRunsAreByteIdentical) {
  const SlowDiskRun one = RunSlowDiskScenario();
  const SlowDiskRun two = RunSlowDiskScenario();
  EXPECT_EQ(one.metrics_json, two.metrics_json)
      << "same-seed runs must export byte-identical metrics JSON";
  EXPECT_EQ(one.hash, two.hash);
}

// Full ensemble with the control plane on; storage node 2 is killed mid-run.
// The heartbeat_miss watchdog raises while the node is silent-but-alive,
// node_dead raises once the failure detector declares it, and heartbeat_miss
// clears at that handoff.
struct KillRun {
  std::string metrics_json;
  std::string prometheus;
  uint64_t hash = 0;
  std::vector<obs::Alert> alerts;
};

KillRun RunStorageKillScenario() {
  EventQueue queue;
  EnsembleConfig config;  // mgmt enabled by default
  config.num_storage_nodes = 4;
  config.num_small_file_servers = 1;
  config.metrics.enabled = true;
  Ensemble ensemble(queue, config);

  // Let heartbeats and a couple of scrapes flow, then kill a storage node
  // and run long past the 500ms failure timeout.
  queue.RunUntil(FromMillis(250));
  ensemble.storage_node(2).Fail();
  queue.RunUntil(FromMillis(2000));

  KillRun run;
  run.metrics_json = ensemble.ExportMetricsJson();
  run.prometheus = ensemble.ExportMetricsText();
  run.hash = ensemble.MetricsHash();
  run.alerts = ensemble.alerts();
  return run;
}

TEST(MetricsDeterminismTest, StorageKillRaisesHeartbeatMissThenNodeDead) {
  const KillRun run = RunStorageKillScenario();
  EXPECT_TRUE(HasAlert(run.alerts, "heartbeat_miss", /*raise=*/true))
      << "the killed node must be seen silent-but-alive before the timeout";
  EXPECT_TRUE(HasAlert(run.alerts, "node_dead", /*raise=*/true))
      << "the failure detector must declare the node dead";
  EXPECT_TRUE(HasAlert(run.alerts, "heartbeat_miss", /*raise=*/false))
      << "heartbeat_miss hands off to node_dead once the node is declared";

  // The edges are ordered: silent-but-alive precedes declared-dead.
  SimTime miss_at = 0;
  SimTime dead_at = 0;
  for (const obs::Alert& alert : run.alerts) {
    if (alert.rule == "heartbeat_miss" && alert.raise && miss_at == 0) {
      miss_at = alert.at;
    }
    if (alert.rule == "node_dead" && alert.raise && dead_at == 0) {
      dead_at = alert.at;
    }
  }
  EXPECT_LT(miss_at, dead_at);
}

TEST(MetricsDeterminismTest, StorageKillRunsAreByteIdentical) {
  const KillRun one = RunStorageKillScenario();
  const KillRun two = RunStorageKillScenario();
  EXPECT_EQ(one.metrics_json, two.metrics_json)
      << "a failover run must still export byte-identical metrics JSON";
  EXPECT_EQ(one.hash, two.hash);
  EXPECT_EQ(one.hash, obs::MetricsContentHash(one.metrics_json));
  EXPECT_EQ(one.prometheus, two.prometheus)
      << "the Prometheus exposition must be deterministic too";
}

}  // namespace
}  // namespace slice
