// Network storage node: serves block-level access to storage objects over
// the NFS-subset wire protocol (read, write, commit, plus truncate/remove
// for the coordinator), per paper §2.2/§4.2.
//
// Requesters address data as logical offsets within storage objects; the
// node maps NFS file handles to objects, verifies the handle's capability
// tag (NASD-style), and manages physical placement itself. Timing: an
// 8-disk array behind a shared channel, an LRU block cache, 256KB sequential
// prefetch, and FFS-style write clustering.
#ifndef SLICE_STORAGE_STORAGE_NODE_H_
#define SLICE_STORAGE_STORAGE_NODE_H_

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/core/pending_map.h"
#include "src/nfs/nfs_xdr.h"
#include "src/rpc/rpc_server.h"
#include "src/sim/disk.h"
#include "src/storage/block_cache.h"
#include "src/storage/object_store.h"

namespace slice {

struct StorageNodeParams {
  uint64_t capacity_bytes = 64ull << 30;
  uint64_t cache_bytes = 256ull << 20;
  size_t num_disks = 8;
  DiskParams disk;
  double channel_mb_per_s = 75.0;
  // CPU cost of servicing one request, plus a per-byte handling cost.
  double op_cpu_us = 30.0;
  double cpu_ns_per_byte = 2.0;
  // Prefetch window. The paper's nodes prefetched 256KB (32 blocks); we use
  // 512KB because our disk model charges a full positioning delay per
  // coalesced run, which is conservative vs. a real drive's track cache.
  size_t prefetch_blocks = 64;
  uint64_t volume_secret = 0;
  // Extra metadata disk I/Os charged per cache-missing block, modeling the
  // inode/indirect-block traffic of the FFS storage manager beneath each
  // node (paper §4.2). 0 disables; the SPECsfs benches calibrate this.
  double extra_meta_ios = 0.0;
};

class StorageNode : public RpcServerNode {
 public:
  // Beyond the base server's observability (`sinks`), registers disk-array
  // and block-cache instruments (all provider-backed) and adds the arms +
  // channel busy time to the profiler's coverage reference.
  StorageNode(Network& net, EventQueue& queue, NetAddr addr, StorageNodeParams params,
              uint64_t seed = 1, const obs::Sinks& sinks = {});

  const ObjectStore& store() const { return store_; }
  ObjectStore& mutable_store() { return store_; }
  const BlockCache& cache() const { return cache_; }
  const DiskArray& disks() const { return disks_; }

  // Gray-disk fault (src/chaos): every arm in this node's array serves I/O
  // `multiplier`× slower. The node stays up and keeps heartbeating — the
  // failure detector must NOT declare it dead; requests just crawl.
  void SetDiskLatencyMultiplier(double multiplier) { disks_.SetLatencyMultiplier(multiplier); }
  uint64_t write_verifier() const { return write_verifier_; }
  uint64_t prefetches_issued() const { return prefetches_issued_; }

 protected:
  RpcAcceptStat HandleCall(const RpcMessageView& call, XdrEncoder& reply,
                           ServiceCost& cost) override;
  void OnRestart() override;

 private:
  // The per-proc switch; HandleCall wraps it to charge the request's disk
  // busy-time delta (arms + channel) to the profiler ledger, covering every
  // disk path — demand I/O, prefetch, and metadata debt — from one site.
  RpcAcceptStat DispatchNfsCall(const RpcMessageView& call, XdrEncoder& reply,
                                ServiceCost& cost);
  Fattr3 MakeAttr(const FileHandle& fh) const;
  // Charges disk reads for the uncached blocks among `blocks`; returns the
  // latest completion. Updates the cache.
  SimTime ChargeReads(const std::vector<PhysBlock>& blocks);
  // Charges disk writes (clustered) for `blocks` (sorted in place).
  SimTime ChargeWrites(std::vector<PhysBlock>& blocks);
  // Submits the blocks as per-arm contiguous runs (one positioning per run,
  // FFS clustering / track-sized transfers), sorting `blocks` in place.
  // Inserts into the cache when `fill_cache`.
  SimTime SubmitCoalesced(std::vector<PhysBlock>& blocks, bool fill_cache);
  // Charges accumulated metadata I/O debt (extra_meta_ios per missed block).
  SimTime ChargeMetadataIos();
  // Records a kDisk span [start, done] against the current trace context
  // (handlers run under the request's scope); returns `done` for chaining.
  SimTime RecordDisk(const char* name, SimTime start, SimTime done);
  void MaybePrefetch(ObjectId id, uint64_t offset, uint32_t count);

  void HandleRead(const ReadArgs& args, XdrEncoder& reply, ServiceCost& cost);
  void HandleWrite(const WriteArgsView& args, XdrEncoder& reply, ServiceCost& cost);
  void HandleCommit(const CommitArgs& args, XdrEncoder& reply, ServiceCost& cost);
  void HandleGetattr(const GetattrArgs& args, XdrEncoder& reply, ServiceCost& cost);
  void HandleSetattr(const SetattrArgs& args, XdrEncoder& reply, ServiceCost& cost);
  void HandleRemove(const DirOpArgs& args, XdrEncoder& reply, ServiceCost& cost);
  void HandleFsstat(XdrEncoder& reply, ServiceCost& cost);

  bool CheckHandle(const FileHandle& fh) const;

  StorageNodeParams params_;
  ObjectStore store_;
  BlockCache cache_;
  DiskArray disks_;
  Rng rng_;
  uint64_t write_verifier_;
  double meta_debt_ = 0.0;
  uint64_t prefetches_issued_ = 0;
  // Sequential-access detector: next expected offset per object. Flat map so
  // the steady-state READ path never allocates a node (DESIGN.md,
  // server-side pools).
  FlatU64Map<uint64_t> next_offset_;
  // Blocks inserted into the cache whose disk I/O has not completed yet
  // (prefetch in flight): demand reads must wait for the ready time. Entries
  // die with their block — the cache's eviction hook erases them — so the
  // table is bounded by the cache size, not by an episodic clear.
  FlatU64Map<SimTime> pending_ready_;
  // Per-request scratch (capacities reused): the READ payload as views of
  // the store's pages and the pages they lie in, the physical blocks a READ,
  // WRITE or COMMIT touches, the miss list ChargeReads feeds to the disks,
  // and the prefetch batch.
  std::vector<ByteSpan> read_segments_;
  std::vector<PageId> read_pages_;
  std::vector<PhysBlock> io_blocks_;
  std::vector<PhysBlock> read_misses_;
  std::vector<PhysBlock> prefetch_batch_;
};

}  // namespace slice

#endif  // SLICE_STORAGE_STORAGE_NODE_H_
