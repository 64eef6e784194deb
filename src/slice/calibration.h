// Calibrated timing constants for reproducing the paper's evaluation
// testbed (§5): Dell 4400 storage nodes with eight Cheetah drives behind one
// SCSI channel, 450 MHz PC file managers and clients, switched Gigabit
// Ethernet with jumbo frames.
//
// These are *shape-preserving* parameters: we match where bottlenecks sit
// (disk arms, client CPU, per-node channel), not exact silicon.
#ifndef SLICE_SLICE_CALIBRATION_H_
#define SLICE_SLICE_CALIBRATION_H_

#include "src/sim/disk.h"

namespace slice {

struct Calibration {
  // Network: Gigabit Ethernet, 9KB jumbo frames, one switch hop.
  double link_gbit_per_s = 1.0;
  double switch_latency_us = 30.0;

  // Cheetah ST318404LC-like disks; the paper notes achievable per-node disk
  // bandwidth is capped near 75 MB/s by the single Ultra-2 SCSI channel.
  DiskParams disk{.avg_position_ms = 5.0,
                  .media_mb_per_s = 33.0,
                  .sequential_position_ms = 0.15};
  size_t disks_per_node = 8;
  // The paper's nodes source ~55 MB/s: the Dell 4400's single internal SCSI
  // channel ran in Ultra-2 mode under FreeBSD 4.0 (§5).
  double channel_mb_per_s = 55.0;

  // Storage node: 256MB buffer cache, 256KB sequential prefetch.
  double storage_cache_mb = 256.0;
  double storage_op_cpu_us = 30.0;
  double storage_cpu_ns_per_byte = 2.0;

  // Directory server: ~150us/op saturates near the paper's 6000 ops/s once
  // logging overhead is added.
  double dir_op_cpu_us = 150.0;
  double dir_peer_cpu_us = 60.0;
  double dir_peer_rtt_us = 90.0;

  // Small-file server: 512MB cache each (x2 servers = the 1GB ensemble cache
  // whose overflow produces the Fig 6 latency jump).
  double sfs_cache_mb = 512.0;
  double sfs_op_cpu_us = 90.0;
  double sfs_cpu_ns_per_byte = 4.0;

  // Client-resident µproxy: ~10us/packet (6.1% of a 500MHz CPU at 6250
  // packets/s, Table 3).
  double uproxy_cpu_us = 10.0;
};

}  // namespace slice

#endif  // SLICE_SLICE_CALIBRATION_H_
