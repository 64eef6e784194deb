// SPECsfs97-like workload generator (substitute for the licensed suite; see
// DESIGN.md). Reproduces the published NFSv3 operation mix and the
// small-file-heavy file-size distribution ("94% of files are 64 KB or
// less"), offers load at a configurable rate with Poisson arrivals, and
// reports delivered throughput (IOPS) and mean latency — the two axes of
// Figures 5 and 6.
#ifndef SLICE_WORKLOAD_SFS_GEN_H_
#define SLICE_WORKLOAD_SFS_GEN_H_

#include <functional>
#include <memory>

#include "src/common/rng.h"
#include "src/nfs/nfs_client.h"
#include "src/sim/stats.h"

namespace slice {

// Published SFS97 NFSv3 op mix (percent).
struct SfsOpMix {
  int getattr = 11;
  int setattr = 1;
  int lookup = 27;
  int readlink = 7;
  int read = 18;
  int write = 9;
  int create = 1;
  int remove = 1;
  int readdir = 2;
  int fsstat = 1;
  int access = 7;
  int commit = 5;
  int readdirplus = 9;
  int fsinfo = 1;
};

struct SfsParams {
  SfsOpMix mix;
  size_t num_files = 1000;
  size_t num_dirs = 30;
  // Offered load across all generator processes.
  double offered_ops_per_sec = 500;
  size_t num_processes = 8;
  SimTime warmup = FromSeconds(2);
  SimTime duration = FromSeconds(10);
  uint32_t io_size = 8192;  // per-op transfer unit for read/write
  uint64_t seed = 0x5f5;
  // Multi-tenant mix: with N > 0, generator process p runs as tenant
  // (p % N) + 1 — every request carries the tenant in its AUTH_SYS cred so
  // the µproxy/SLO plane can attribute it. 0 = untenanted (byte-identical
  // wire traffic to older builds).
  uint32_t num_tenants = 0;
};

struct SfsReport {
  double offered_ops_per_sec = 0;
  double delivered_iops = 0;
  double mean_latency_ms = 0;
  SimTime p50_latency = 0;
  SimTime p95_latency = 0;
  SimTime p99_latency = 0;
  uint64_t ops_completed = 0;
  uint64_t errors = 0;
};

// Builds the file set, runs the generators, and reports. Drives the event
// queue itself (blocking call).
class SfsBenchmark {
 public:
  SfsBenchmark(Host& host, EventQueue& queue, Endpoint server, FileHandle root,
               SfsParams params);
  ~SfsBenchmark();

  // Creates the self-scaled file set (setup phase, untimed).
  Status Setup();
  // Runs warmup + measurement and returns the report. May be called several
  // times with different offered loads over the same file set (how SPECsfs
  // sweeps its load curve).
  SfsReport Run();
  SfsReport Run(double offered_ops_per_sec) {
    params_.offered_ops_per_sec = offered_ops_per_sec;
    return Run();
  }

 private:
  struct FileInfo {
    FileHandle handle;
    FileHandle parent;
    std::string name;
    uint64_t size = 0;
    bool exists = true;
  };

  class Process;

  uint64_t PickFileSize(Rng& rng) const;
  void OnOpComplete(SimTime started, bool ok);

  Host& host_;
  EventQueue& queue_;
  Endpoint server_;
  FileHandle root_;
  SfsParams params_;
  Rng rng_;
  std::vector<FileInfo> files_;
  std::vector<FileHandle> dirs_;
  std::vector<FileHandle> symlinks_;
  std::vector<std::unique_ptr<Process>> processes_;
  // WRITE payload, refilled per request. Write encodes it before returning,
  // so one buffer serves every process.
  Bytes write_buf_;
  LatencyStats latency_;
  uint64_t completed_ = 0;
  uint64_t errors_ = 0;
  bool measuring_ = false;
};

}  // namespace slice

#endif  // SLICE_WORKLOAD_SFS_GEN_H_
