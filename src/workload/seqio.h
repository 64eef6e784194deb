// Sequential bulk-I/O workload: the `dd` experiment behind Table 2. Streams
// a large file through the NFS stack with a bounded read-ahead / write-ahead
// window (the paper used a 32KB NFS block size and a prefetch depth of four
// blocks) and charges a per-byte client CPU cost — the FreeBSD client write
// path saturates one PC near 40 MB/s, the zero-copy read path is cheaper.
#ifndef SLICE_WORKLOAD_SEQIO_H_
#define SLICE_WORKLOAD_SEQIO_H_

#include <functional>

#include "src/nfs/nfs_client.h"
#include "src/sim/event_queue.h"
#include "src/sim/stats.h"

namespace slice {

struct SeqIoParams {
  uint64_t file_bytes = 64ull << 20;
  uint32_t block_size = 32768;
  int window = 4;  // outstanding requests (read-ahead depth)
  double client_ns_per_byte = 24.0;
  bool write = true;
  StableHow stable = StableHow::kUnstable;
  uint64_t commit_every = 0;  // bytes between periodic commits; 0 = only at end
};

class SeqIoProcess {
 public:
  SeqIoProcess(Host& host, EventQueue& queue, Endpoint server, FileHandle file,
               SeqIoParams params, std::function<void()> on_done);

  void Start();

  bool done() const { return done_; }
  SimTime elapsed() const { return finished_at_ - started_at_; }
  double ThroughputMbPerSec() const {
    if (finished_at_ <= started_at_) {
      return 0;
    }
    return static_cast<double>(params_.file_bytes) / 1e6 / ToSeconds(elapsed());
  }
  uint64_t errors() const { return errors_; }
  // Per-request issue-to-completion latency distribution.
  const LatencyStats& latency() const { return latency_; }

 private:
  void Pump();
  void IssueNext();
  // Sends the READ or WRITE of the block at `offset`.
  void SendBlock(uint64_t offset);
  // The size of the request at `offset`: a block, or the file's tail.
  uint32_t BlockAt(uint64_t offset) const;
  void OnComplete(uint64_t bytes, bool ok);
  void MaybeFinish();

  NfsClient client_;
  EventQueue& queue_;
  FileHandle file_;
  SeqIoParams params_;
  std::function<void()> on_done_;

  BusyResource client_cpu_;
  Bytes write_buf_;  // WRITE payload, refilled per block
  uint64_t next_offset_ = 0;
  uint64_t completed_bytes_ = 0;
  int outstanding_ = 0;
  uint64_t errors_ = 0;
  LatencyStats latency_;
  SimTime started_at_ = 0;
  SimTime finished_at_ = 0;
  bool done_ = false;
  bool committing_ = false;
};

}  // namespace slice

#endif  // SLICE_WORKLOAD_SEQIO_H_
