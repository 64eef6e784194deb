// Trace-replay regression harness: the simulation is deterministic, so the
// exported trace of a fixed-seed workload is byte-stable — its content hash
// must be identical run to run, with and without fault injection. Any
// behaviour drift (an extra retransmission, a different route, a changed
// failover interleaving) shows up as a hash diff before it shows up as a
// user-visible bug.
//
// The fault-injected run also writes its chrome-trace JSON next to the test
// binary (e2e_failover_trace.json) so CI can attach it to failed builds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/slice/ensemble.h"

namespace slice {
namespace {

Bytes Pattern(size_t n, uint8_t seed = 1) {
  Bytes data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>(seed + i * 53);
  }
  return data;
}

struct RunResult {
  uint64_t hash = 0;
  size_t spans = 0;
  std::string json;
};

// One fixed mixed workload: names, small-file I/O, bulk mirrored I/O,
// commits, reads, removes. `loss_rate` injects packet loss for the whole
// run; `kill_storage` additionally crashes a storage node mid-workload and
// lets the control plane fail over around it.
RunResult RunTracedWorkload(double loss_rate, bool kill_storage) {
  EventQueue queue;
  EnsembleConfig config;
  config.num_dir_servers = 2;
  config.num_small_file_servers = 2;
  config.num_storage_nodes = 3;
  config.num_coordinators = 1;
  config.default_replication = 2;  // mirrored: the workload survives a kill
  config.loss_rate = loss_rate;
  config.mgmt.enabled = kill_storage;  // failover path only when killing
  config.trace.enabled = true;
  Ensemble ensemble(queue, config);
  auto client = ensemble.MakeSyncClient(0);
  const FileHandle root = ensemble.root();

  // kErrJukebox is the control plane's "retry later", not a failure.
  auto retry = [&](auto op) {
    for (int attempt = 0;; ++attempt) {
      auto res = op();
      if (res.status != Nfsstat3::kErrJukebox || attempt >= 100) {
        return res;
      }
      queue.RunUntil(queue.now() + FromMillis(10));
    }
  };

  std::vector<FileHandle> files;
  for (int i = 0; i < 6; ++i) {
    CreateRes created =
        retry([&] { return client->Create(root, "f" + std::to_string(i)).value(); });
    EXPECT_EQ(created.status, Nfsstat3::kOk);
    files.push_back(*created.object);
    // Small write -> small-file server; bulk write -> mirrored stripes.
    EXPECT_EQ(retry([&] {
                return client
                    ->Write(files[i], 0, Pattern(2048, static_cast<uint8_t>(i)),
                            StableHow::kUnstable)
                    .value();
              }).status,
              Nfsstat3::kOk);
    EXPECT_EQ(retry([&] {
                return client
                    ->Write(files[i], 70000, Pattern(32768, static_cast<uint8_t>(i + 1)),
                            StableHow::kFileSync)
                    .value();
              }).status,
              Nfsstat3::kOk);
    if (kill_storage && i == 2) {
      // Mid-workload storage crash; the manager detects it by heartbeat
      // timeout and installs a failover table in every µproxy.
      ensemble.storage_node(2).Fail();
      queue.RunUntil(queue.now() + FromMillis(800));
    }
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(retry([&] { return client->Commit(files[i]).value(); }).status, Nfsstat3::kOk);
    EXPECT_EQ(retry([&] { return client->Read(files[i], 0, 2048).value(); }).status,
              Nfsstat3::kOk);
    EXPECT_EQ(retry([&] { return client->Read(files[i], 70000, 32768).value(); }).status,
              Nfsstat3::kOk);
    EXPECT_EQ(retry([&] { return client->Lookup(root, "f" + std::to_string(i)).value(); })
                  .status,
              Nfsstat3::kOk);
  }
  EXPECT_EQ(retry([&] { return client->Remove(root, "f5").value(); }).status, Nfsstat3::kOk);
  queue.RunUntilIdle();

  RunResult result;
  result.hash = ensemble.TraceHash();
  result.spans = ensemble.CollectSpans().size();
  result.json = ensemble.ExportTraceJson();
  return result;
}

TEST(TraceDeterminismTest, LossFreeSameSeedSameHash) {
  const RunResult a = RunTracedWorkload(/*loss_rate=*/0.0, /*kill_storage=*/false);
  const RunResult b = RunTracedWorkload(/*loss_rate=*/0.0, /*kill_storage=*/false);
  EXPECT_GT(a.spans, 100u) << "workload actually produced a trace";
  EXPECT_EQ(a.spans, b.spans);
  EXPECT_EQ(a.hash, b.hash);
  // The hash covers the full export: identical hash <=> identical JSON.
  EXPECT_EQ(a.json, b.json);
}

TEST(TraceDeterminismTest, FivePercentLossSameSeedSameHash) {
  // Retransmissions, duplicate-cache replays, and drop markers all land in
  // the trace — and all of them are driven by the seeded loss RNG, so the
  // trace is still byte-stable.
  const RunResult a = RunTracedWorkload(/*loss_rate=*/0.05, /*kill_storage=*/false);
  const RunResult b = RunTracedWorkload(/*loss_rate=*/0.05, /*kill_storage=*/false);
  EXPECT_GT(a.spans, 100u);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.json, b.json);
  // Loss changes behaviour, so it must change the trace.
  EXPECT_NE(a.hash, RunTracedWorkload(0.0, false).hash);
}

TEST(TraceDeterminismTest, StorageKillUnderLossSameSeedSameHash) {
  const RunResult a = RunTracedWorkload(/*loss_rate=*/0.05, /*kill_storage=*/true);
  const RunResult b = RunTracedWorkload(/*loss_rate=*/0.05, /*kill_storage=*/true);
  EXPECT_GT(a.spans, 100u);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.json, b.json);

  // Leave the failover trace on disk for CI to upload as an artifact.
  EXPECT_TRUE(obs::WriteArtifact("e2e_failover_trace.json", a.json));
}

}  // namespace
}  // namespace slice
