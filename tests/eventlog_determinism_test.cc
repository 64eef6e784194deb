// Flight-recorder regression harness, the event-log twin of
// trace_determinism_test: the simulation is deterministic, so the canonical
// flight dump of a fixed-seed workload is byte-stable — with and without
// packet loss and mid-run node kills. Any drift in routing, retransmission,
// or failover interleaving shows up as a dump diff.
//
// The fault-injected run also checks the cross-pillar failover story: the
// dir-server outage must leave a heartbeat_miss -> node_dead -> adopt_begin
// event chain in the dump, every link stamped with the same failure-episode
// trace id, and that id must resolve to spans in the PR 2 chrome-trace
// export. The dump is written next to the test binary
// (e2e_failover_flight.json) so CI can attach it to failed builds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/slice/ensemble.h"

namespace slice {
namespace {

using obs::Event;
using obs::EventCode;

Bytes Pattern(size_t n, uint8_t seed = 1) {
  Bytes data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>(seed + i * 53);
  }
  return data;
}

struct RunResult {
  uint64_t hash = 0;
  std::string json;        // flight dump
  std::string trace_json;  // chrome-trace export (for id resolution)
  std::vector<Event> events;
  uint64_t recorded = 0;
};

// Same fixed mixed workload as RunTracedWorkload in trace_determinism_test,
// with the event log enabled. `kill_nodes` additionally crashes a storage
// node and a dir server mid-workload, exercising mirrored-write failover and
// site adoption.
RunResult RunLoggedWorkload(double loss_rate, bool kill_nodes) {
  EventQueue queue;
  EnsembleConfig config;
  config.num_dir_servers = 2;
  config.num_small_file_servers = 2;
  config.num_storage_nodes = 3;
  config.num_coordinators = 1;
  config.default_replication = 2;  // mirrored: the workload survives a kill
  config.loss_rate = loss_rate;
  config.mgmt.enabled = kill_nodes;  // failover path only when killing
  config.trace.enabled = true;
  config.eventlog.enabled = true;
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
    if (kill_nodes && i == 2) {
      // Mid-workload storage crash: heartbeat timeout, failover tables.
      ensemble.storage_node(2).Fail();
      queue.RunUntil(queue.now() + FromMillis(800));
    }
    if (kill_nodes && i == 4) {
      // Dir-server crash: the surviving server adopts the dead site, which
      // is the adoption chain the flight dump must narrate.
      ensemble.dir_server(1).Fail();
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
  result.json = ensemble.ExportFlightJson("test");
  result.hash = ensemble.FlightHash();
  result.trace_json = ensemble.ExportTraceJson();
  result.events = ensemble.eventlog()->Collect();
  result.recorded = ensemble.eventlog()->total_recorded();
  return result;
}

// First event with `code` whose trace id matches (0 = any).
const Event* FindEvent(const std::vector<Event>& events, EventCode code, uint64_t trace_id = 0) {
  for (const Event& e : events) {
    if (e.code == code && (trace_id == 0 || e.trace_id == trace_id)) {
      return &e;
    }
  }
  return nullptr;
}

TEST(EventLogDeterminismTest, LossFreeSameSeedSameDump) {
  const RunResult a = RunLoggedWorkload(/*loss_rate=*/0.0, /*kill_nodes=*/false);
  const RunResult b = RunLoggedWorkload(/*loss_rate=*/0.0, /*kill_nodes=*/false);
  EXPECT_GT(a.recorded, 30u) << "workload actually produced events";
  EXPECT_EQ(a.hash, b.hash);
  // The hash covers the full export: identical hash <=> identical JSON.
  EXPECT_EQ(a.json, b.json);
  // Routing decisions dominate a healthy run.
  EXPECT_NE(FindEvent(a.events, EventCode::kRouteDecision), nullptr);
  // Per-request route decisions carry the same trace ids as the PR 2 spans.
  const Event* route = FindEvent(a.events, EventCode::kRouteDecision);
  ASSERT_NE(route, nullptr);
  EXPECT_NE(route->trace_id, 0u);
}

TEST(EventLogDeterminismTest, FivePercentLossSameSeedSameDump) {
  const RunResult a = RunLoggedWorkload(/*loss_rate=*/0.05, /*kill_nodes=*/false);
  const RunResult b = RunLoggedWorkload(/*loss_rate=*/0.05, /*kill_nodes=*/false);
  EXPECT_GT(a.recorded, 50u);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.json, b.json);
  // Loss leaves drop + retransmit records, and changes the dump.
  EXPECT_NE(FindEvent(a.events, EventCode::kPacketDrop), nullptr);
  EXPECT_NE(FindEvent(a.events, EventCode::kRpcRetransmit), nullptr);
  EXPECT_NE(a.hash, RunLoggedWorkload(0.0, false).hash);
}

TEST(EventLogDeterminismTest, NodeKillsUnderLossSameSeedSameDump) {
  const RunResult a = RunLoggedWorkload(/*loss_rate=*/0.05, /*kill_nodes=*/true);
  const RunResult b = RunLoggedWorkload(/*loss_rate=*/0.05, /*kill_nodes=*/true);
  EXPECT_GT(a.recorded, 100u);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.json, b.json);

  // Cross-pillar failover chain for the dir-server outage: the manager
  // opens one failure episode per dying node, and every event in the chain
  // carries that episode's trace id.
  const Event* adopt = FindEvent(a.events, EventCode::kAdoptBegin);
  ASSERT_NE(adopt, nullptr) << "dir kill must trigger site adoption";
  const uint64_t episode = adopt->trace_id;
  EXPECT_NE(episode, 0u);

  const Event* miss = FindEvent(a.events, EventCode::kHeartbeatMiss, episode);
  const Event* dead = FindEvent(a.events, EventCode::kNodeDead, episode);
  ASSERT_NE(miss, nullptr) << "suspicion precedes the death declaration";
  ASSERT_NE(dead, nullptr);
  EXPECT_LE(miss->at, dead->at);
  EXPECT_LE(dead->at, adopt->at);

  // The storage kill ran its own episode (different trace id) and left the
  // kill + epoch-bump trail.
  EXPECT_NE(FindEvent(a.events, EventCode::kNodeKill), nullptr);
  EXPECT_NE(FindEvent(a.events, EventCode::kEpochBump), nullptr);
  const Event* storage_dead = FindEvent(a.events, EventCode::kNodeDead);
  ASSERT_NE(storage_dead, nullptr);

  // Every episode id resolves in the PR 2 trace export: the manager records
  // hb_miss / node_dead instants under the same id ("tid" in chrome trace).
  const std::string needle = "\"tid\":" + std::to_string(episode) + ",";
  EXPECT_NE(a.trace_json.find(needle), std::string::npos)
      << "episode trace id must resolve in the chrome-trace export";

  // Leave the failover flight dump and its matching chrome trace on disk for
  // CI to upload as artifacts; slice_inspect.py --join-trace merges them.
  EXPECT_TRUE(obs::WriteArtifact("e2e_failover_flight.json", a.json));
  EXPECT_TRUE(obs::WriteArtifact("e2e_failover_flight_trace.json", a.trace_json));
}

}  // namespace
}  // namespace slice
