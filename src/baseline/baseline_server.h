// Baseline: a monolithic single-node NFSv3 server, the comparison point in
// the paper's evaluation. Two configurations:
//   * memory-backed ("N-MFS", Fig 3): FreeBSD MFS-style, no disk time —
//     fast until its single CPU saturates;
//   * disk-backed (Fig 5's "NFS" line): one server exporting its whole disk
//     array as a single volume through a CCD-style concatenator.
//
// Everything (name space + file data) is served from this one node, so it
// has none of Slice's request routing — which is exactly the point.
#ifndef SLICE_BASELINE_BASELINE_SERVER_H_
#define SLICE_BASELINE_BASELINE_SERVER_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/nfs/nfs_xdr.h"
#include "src/rpc/rpc_server.h"
#include "src/sim/disk.h"
#include "src/storage/block_cache.h"
#include "src/storage/object_store.h"

namespace slice {

struct BaselineServerParams {
  bool memory_backed = false;   // true = MFS; false = FFS over CCD
  uint64_t capacity_bytes = 64ull << 30;
  uint64_t cache_bytes = 256ull << 20;
  size_t num_disks = 8;
  DiskParams disk;
  double channel_mb_per_s = 75.0;
  double name_op_cpu_us = 110.0;  // a plain NFS server's name-op cost
  double io_op_cpu_us = 60.0;
  double cpu_ns_per_byte = 3.0;
  uint32_t volume = 1;
  uint64_t volume_secret = 0;
  // Extra metadata disk I/Os per cache-missing block (FFS inode/indirect
  // traffic); calibrated by the SPECsfs benches, 0 elsewhere.
  double extra_meta_ios = 0.0;
};

constexpr uint64_t kRootBaselineFileid = 1;

class BaselineServer : public RpcServerNode {
 public:
  BaselineServer(Network& net, EventQueue& queue, NetAddr addr, BaselineServerParams params);

  FileHandle RootHandle() const;
  size_t file_count() const { return attrs_.size(); }
  const ObjectStore& store() const { return data_; }
  const BlockCache& cache() const { return cache_; }

 protected:
  RpcAcceptStat HandleCall(const RpcMessageView& call, XdrEncoder& reply,
                           ServiceCost& cost) override;

 private:
  struct EntryKey {
    uint64_t dir;
    std::string name;
    bool operator==(const EntryKey&) const = default;
  };
  struct EntryKeyHash {
    size_t operator()(const EntryKey& k) const {
      return static_cast<size_t>(Fnv1a64(k.name, k.dir ^ kFnvOffsetBasis));
    }
  };

  NfsTime Now() const;
  FileHandle MintHandle(uint64_t fileid, FileType3 type) const;
  Fattr3* FindAttr(uint64_t fileid);
  Fattr3 NewAttr(uint64_t fileid, FileType3 type) const;
  void TouchDir(uint64_t dir_id, int entry_delta, int nlink_delta);
  void ChargeDisk(const std::vector<PhysBlock>& blocks, bool write, ServiceCost& cost);

  // One per procedure, on args RpcServerNode::Serve decoded.
  void DoGetattr(const GetattrArgs& args, XdrEncoder& reply);
  void DoSetattr(const SetattrArgs& args, XdrEncoder& reply);
  void DoLookup(const DirOpArgs& args, XdrEncoder& reply);
  void DoAccess(const AccessArgs& args, XdrEncoder& reply);
  void DoReadlink(const GetattrArgs& args, XdrEncoder& reply);
  void DoRead(const ReadArgs& args, XdrEncoder& reply, ServiceCost& cost);
  void DoWrite(const WriteArgsView& args, XdrEncoder& reply, ServiceCost& cost);
  void DoCreate(const CreateArgs& args, XdrEncoder& reply);
  void DoMkdir(const MkdirArgs& args, XdrEncoder& reply);
  void DoSymlink(const SymlinkArgs& args, XdrEncoder& reply);
  void DoRemove(const DirOpArgs& args, bool rmdir, XdrEncoder& reply);
  void DoRename(const RenameArgs& args, XdrEncoder& reply);
  void DoLink(const LinkArgs& args, XdrEncoder& reply);
  void DoReaddir(const ReaddirArgs& args, XdrEncoder& reply);
  void DoCommit(const CommitArgs& args, XdrEncoder& reply, ServiceCost& cost);

  BaselineServerParams params_;
  ObjectStore data_;
  BlockCache cache_;
  DiskArray disks_;
  std::unordered_map<EntryKey, FileHandle, EntryKeyHash> entries_;
  std::unordered_map<uint64_t, Fattr3> attrs_;
  std::unordered_map<uint64_t, std::string> symlinks_;
  std::unordered_map<uint64_t, std::map<std::string, FileHandle>> dir_entries_;
  uint64_t next_fileid_ = kRootBaselineFileid + 1;
  uint64_t write_verifier_;
  Rng rng_{0xba5e};
  double meta_debt_ = 0.0;
  // Per-request scratch (capacities reused): the READ payload as views of
  // the store's pages and the pages they lie in, and the physical blocks a
  // READ, WRITE or COMMIT touches.
  std::vector<ByteSpan> read_segments_;
  std::vector<PageId> read_pages_;
  std::vector<PhysBlock> io_blocks_;
};

}  // namespace slice

#endif  // SLICE_BASELINE_BASELINE_SERVER_H_
