// Disk timing model. Loosely parameterized after the Seagate Cheetah
// ST318404LC drives in the paper's testbed: each I/O pays an average
// positioning cost (seek + rotation) unless it is sequential with the
// previous I/O on the same disk, then transfers at the media rate. Requests
// queue FIFO at the arm.
#ifndef SLICE_SIM_DISK_H_
#define SLICE_SIM_DISK_H_

#include <cstdint>
#include <vector>

#include "src/sim/event_queue.h"

namespace slice {

struct DiskParams {
  double avg_position_ms = 5.0;   // average seek + rotational latency
  double media_mb_per_s = 33.0;   // sustained transfer rate
  double sequential_position_ms = 0.15;  // track-to-track when sequential
};

class SimDisk {
 public:
  explicit SimDisk(DiskParams params) : params_(params) {}

  // Submits an I/O of `bytes` at logical position `pos` (byte address within
  // the disk's flat space; used only for sequentiality detection). Returns
  // the completion time.
  SimTime SubmitIo(SimTime now, uint64_t pos, size_t bytes);

  uint64_t io_count() const { return arm_.jobs(); }
  SimTime total_busy() const { return arm_.total_busy_time(); }
  // Busy-time split: positioning (seek + rotation) vs media transfer. The
  // ratio distinguishes an arm thrashing on seeks from one streaming.
  SimTime total_position() const { return position_ns_; }
  SimTime total_transfer() const { return transfer_ns_; }
  // Time at which the arm drains its current FIFO backlog.
  SimTime busy_until() const { return arm_.busy_until(); }
  double UtilizationUpTo(SimTime horizon) const { return arm_.UtilizationUpTo(horizon); }
  // Crash recovery: queued I/Os die with the node, so the arm's FIFO backlog
  // is dropped. Cumulative stats stay (they are history), and the head
  // position survives too — the platter does not move because the host
  // rebooted, so the first post-restart I/O can still be sequential.
  void ClearBacklog() { arm_.ClearBacklog(); }

  // Gray-failure hook (src/chaos): scales both the positioning and transfer
  // time of every subsequent I/O. A multiplier of ~20 models a disk that is
  // slow-but-alive — it still answers, so the heartbeat detector must not
  // declare its node dead. 1.0 restores nominal service times.
  void SetLatencyMultiplier(double multiplier) {
    latency_multiplier_ = multiplier > 0 ? multiplier : 1.0;
  }
  double latency_multiplier() const { return latency_multiplier_; }

 private:
  DiskParams params_;
  BusyResource arm_;
  uint64_t next_sequential_pos_ = ~0ull;
  SimTime position_ns_ = 0;
  SimTime transfer_ns_ = 0;
  double latency_multiplier_ = 1.0;
};

// A storage node's disk complement: N independent arms behind one shared
// channel (the Dell 4400's single internal SCSI channel, which capped
// per-node disk bandwidth below the sum of the media rates).
class DiskArray {
 public:
  DiskArray(size_t num_disks, DiskParams params, double channel_mb_per_s);

  // Submits an I/O to disk `disk_index` (callers typically stripe by block).
  SimTime SubmitIo(SimTime now, size_t disk_index, uint64_t pos, size_t bytes);

  size_t num_disks() const { return disks_.size(); }
  SimDisk& disk(size_t i) { return disks_[i]; }
  const SimDisk& disk(size_t i) const { return disks_[i]; }
  const BusyResource& channel() const { return channel_; }

  // Node-level aggregates across all arms, for the metrics providers.
  SimTime TotalBusy() const;
  SimTime TotalPosition() const;
  SimTime TotalTransfer() const;
  uint64_t TotalIos() const;
  // The furthest-out arm completion: how deep the worst FIFO backlog runs.
  SimTime MaxBusyUntil() const;

  // Gray-failure hook: applies the multiplier to every arm in the array.
  void SetLatencyMultiplier(double multiplier);

  // Crash recovery: drops every arm's and the channel's queued backlog (see
  // SimDisk::ClearBacklog). Without this, a restarted node kept servicing
  // its pre-crash I/O queue, so post-restart requests saw phantom seconds of
  // wait from work that should have died with the node.
  void ClearBacklog();

 private:
  std::vector<SimDisk> disks_;
  BusyResource channel_;
  double channel_ns_per_byte_;
};

}  // namespace slice

#endif  // SLICE_SIM_DISK_H_
