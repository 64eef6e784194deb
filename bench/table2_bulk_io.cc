// Table 2 reproduction: bulk I/O bandwidth in the test ensemble.
//
//   paper: single-client read 62.5 MB/s, write 38.9 MB/s;
//          8-client saturation read 437 MB/s, write 479 MB/s;
//          mirrored (2 replicas): 52.9 / 32.2 single, 222 / 251 saturation.
//
// Configuration mirrors §5: eight storage nodes (8 disks each), 32KB NFS
// block size, read-ahead depth 4, striped (or 2-way mirrored) large files.
// Absolute numbers depend on calibration; the shape is checked, and written
// to BENCH_table2.json's "shape": writes are client-CPU-bound near 40 MB/s,
// reads run faster per client, and 8-client saturation is at least 4x a
// single client. The run exits nonzero when one of those fails. Two more of
// the paper's claims, mirroring costing about half the saturation bandwidth
// and some single-client read bandwidth, do not hold here; they are checked
// and listed as expected-false with their reasons.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <vector>

#include "bench/shape_claims.h"
#include "src/obs/json.h"
#include "src/slice/ensemble.h"
#include "src/workload/seqio.h"

namespace slice {
namespace {

struct RunResult {
  double mb_per_sec = 0;
  // Per-request (block) latency distribution aggregated across streams.
  LatencyStats latency;
};

// Runs `num_clients` sequential streams of `bytes_per_client` each and
// returns aggregate bandwidth.
RunResult RunStreams(bool write, bool mirrored, int num_clients, uint64_t bytes_per_client) {
  EventQueue queue;
  EnsembleConfig config;
  config.mgmt.enabled = false;  // static healthy ensemble; no heartbeat traffic
  config.num_storage_nodes = 8;
  config.num_small_file_servers = 0;  // pure bulk path, as in the dd test
  config.num_coordinators = 1;
  config.num_clients = static_cast<size_t>(num_clients);
  config.default_replication = mirrored ? 2 : 1;
  Ensemble ensemble(queue, config);

  // Create one file per client.
  std::vector<FileHandle> files;
  for (int c = 0; c < num_clients; ++c) {
    auto client = ensemble.MakeSyncClient(static_cast<size_t>(c));
    CreateRes created =
        client->Create(ensemble.root(), "dd" + std::to_string(c)).value();
    SLICE_CHECK(created.status == Nfsstat3::kOk);
    files.push_back(*created.object);
  }

  // Reads need data on disk first: populate, then restart the storage nodes
  // so caches are cold (the paper's 1.25GB file exceeded the node caches).
  if (!write) {
    for (int c = 0; c < num_clients; ++c) {
      SeqIoParams populate;
      populate.file_bytes = bytes_per_client;
      populate.write = true;
      bool done = false;
      SeqIoProcess writer(ensemble.client_host(static_cast<size_t>(c)), queue,
                          ensemble.virtual_server(), files[static_cast<size_t>(c)], populate,
                          [&] { done = true; });
      writer.Start();
      queue.RunUntilIdle();
      SLICE_CHECK(done);
    }
    for (size_t i = 0; i < ensemble.num_storage_nodes(); ++i) {
      ensemble.storage_node(i).Fail();
      ensemble.storage_node(i).Restart();
    }
  }

  std::vector<std::unique_ptr<SeqIoProcess>> procs;
  int finished = 0;
  const SimTime start = queue.now();
  for (int c = 0; c < num_clients; ++c) {
    SeqIoParams params;
    params.file_bytes = bytes_per_client;
    params.write = write;
    // The client host's NFS stack cost; writing to both mirrors doubles the
    // payload the host must push ("the client host writes to both mirrors").
    params.client_ns_per_byte = write ? (mirrored ? 32.0 : 24.0) : 14.0;
    params.commit_every = 16 << 20;  // overlap flushing with the stream
    procs.push_back(std::make_unique<SeqIoProcess>(
        ensemble.client_host(static_cast<size_t>(c)), queue, ensemble.virtual_server(),
        files[static_cast<size_t>(c)], params, [&] { ++finished; }));
  }
  for (auto& proc : procs) {
    proc->Start();
  }
  queue.RunUntilIdle();
  SLICE_CHECK(finished == num_clients);

  // Measure to the last stream's completion (trailing writeback/probe timers
  // idle long after the data has landed).
  SimTime last_done = start;
  for (auto& proc : procs) {
    last_done = std::max(last_done, start + proc->elapsed());
  }
  const double seconds = ToSeconds(last_done - start);
  RunResult result;
  result.mb_per_sec =
      static_cast<double>(bytes_per_client) * num_clients / 1e6 / seconds;
  for (auto& proc : procs) {
    result.latency.Merge(proc->latency());
  }
  return result;
}

// Returns false when BENCH_table2.json could not be written or a claim the
// reproduction stands behind fails.
bool RunTable2() {
  std::printf("Table 2: bulk I/O bandwidth (MB/s)\n");
  std::printf("%-18s %14s %14s %14s\n", "workload", "paper", "measured", "ratio");

  struct Row {
    const char* name;
    bool write;
    bool mirrored;
    int clients;
    uint64_t bytes;
    double paper;
  };
  const Row rows[] = {
      {"read (1 client)", false, false, 1, 256ull << 20, 62.5},
      {"write (1 client)", true, false, 1, 256ull << 20, 38.9},
      {"read-mirror (1)", false, true, 1, 256ull << 20, 52.9},
      {"write-mirror (1)", true, true, 1, 256ull << 20, 32.2},
      {"read (8 clients)", false, false, 8, 128ull << 20, 437.0},
      {"write (8 clients)", true, false, 8, 128ull << 20, 479.0},
      {"read-mirror (8)", false, true, 8, 128ull << 20, 222.0},
      {"write-mirror (8)", true, true, 8, 128ull << 20, 251.0},
  };
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("table2");
  w.Key("rows").BeginArray();
  double mb[std::size(rows)] = {};
  for (size_t i = 0; i < std::size(rows); ++i) {
    const Row& row = rows[i];
    const RunResult result = RunStreams(row.write, row.mirrored, row.clients, row.bytes);
    mb[i] = result.mb_per_sec;
    std::printf("%-18s %14.1f %14.1f %14.2f\n", row.name, row.paper, result.mb_per_sec,
                result.mb_per_sec / row.paper);
    std::fflush(stdout);
    w.BeginObject();
    w.Key("name").String(row.name);
    w.Key("paper_mb_per_sec").Fixed(row.paper, 1);
    w.Key("measured_mb_per_sec").Fixed(result.mb_per_sec, 1);
    w.Key("ratio").Fixed(result.mb_per_sec / row.paper, 3);
    w.Key("block_p50_ms").Fixed(ToMillis(result.latency.Percentile(50)), 3);
    w.Key("block_p95_ms").Fixed(ToMillis(result.latency.Percentile(95)), 3);
    w.Key("block_p99_ms").Fixed(ToMillis(result.latency.Percentile(99)), 3);
    w.EndObject();
  }
  w.EndArray();

  const double read1 = mb[0], write1 = mb[1], read_mirror1 = mb[2];
  const double read8 = mb[4], write8 = mb[5], read_mirror8 = mb[6], write_mirror8 = mb[7];
  const ShapeClaim claims[] = {
      {"single_client_write_near_40_mb_per_sec", std::abs(write1 - 40.0) <= 4.0, ""},
      {"reads_beat_writes_per_client", read1 > write1, ""},
      {"saturation_at_least_4x_single_client", read8 >= 4 * read1 && write8 >= 4 * write1, ""},
      {"mirrored_saturation_at_most_0_6x_plain",
       read_mirror8 <= 0.6 * read8 && write_mirror8 <= 0.6 * write8,
       "mirrored 8-client saturation lands within 4% of the paper's, but plain 8-client "
       "saturation sits 23-30% below it, so the ratios come out near 0.7 (paper 0.51/0.52)"},
      {"mirrored_single_client_read_penalty", read_mirror1 < 0.95 * read1,
       "with one client the storage arms have the headroom to absorb the prefetch that "
       "alternating mirrored reads waste; the penalty appears at saturation"},
  };
  WriteShapeClaims(w, claims);
  w.EndObject();
  if (!obs::WriteArtifact("BENCH_table2.json", w.str() + "\n")) {
    return false;
  }
  std::printf("wrote BENCH_table2.json\n\nshape checks:\n");
  return PrintShapeClaims(claims);
}

}  // namespace
}  // namespace slice

int main() { return slice::RunTable2() ? 0 : 1; }
