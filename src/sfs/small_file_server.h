// Small-file server (paper §4.4): absorbs I/O below the threshold offset.
// Each file is a sequence of 8KB logical blocks; per-file map records give
// (offset, length) extents into zones backed by objects in the block storage
// service — the server itself is dataless.
//
// Data and map-record pages are cached in a RAM page pool governed by an LRU
// block cache (the "kernel file buffer cache"); misses fetch from the
// storage array over real RPC, and commits flush dirty pages back with
// clustered writes. Map-record mutations are journaled to a WAL for crash
// recovery.
#ifndef SLICE_SFS_SMALL_FILE_SERVER_H_
#define SLICE_SFS_SMALL_FILE_SERVER_H_

#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "src/dir/wal.h"
#include "src/nfs/nfs_client.h"
#include "src/rpc/rpc_server.h"
#include "src/sfs/fragment_alloc.h"
#include "src/storage/block_cache.h"

namespace slice {

struct SmallFileServerParams {
  uint64_t cache_bytes = 512ull << 20;
  double op_cpu_us = 90.0;
  double cpu_ns_per_byte = 4.0;
  uint32_t threshold = 65536;
  uint64_t volume_secret = 0;
  uint32_t server_index = 0;
  // WAL backing for map records; disabled when backing_node.addr == 0.
  Endpoint backing_node;
  FileHandle backing_object;
};

class SmallFileServer : public RpcServerNode {
 public:
  // `storage_nodes` back the data zones; the backing object is striped over
  // them by 8KB block index.
  // Beyond the base server's observability (`sinks`), registers file-cache,
  // backing-store traffic and WAL instruments; backing fetches/flushes and
  // WAL appends ride the requesting trace (tracer only).
  SmallFileServer(Network& net, EventQueue& queue, NetAddr addr, SmallFileServerParams params,
                  std::vector<Endpoint> storage_nodes, const obs::Sinks& sinks = {});

  // Where a file's logical block lives in the zone.
  struct BlockExtent {
    Fragment fragment;
    uint32_t length = 0;  // valid bytes within the logical block

    template <class Io, class S>
    static void Xdr(Io& io, S& s) {
      XdrField(io, s.fragment.offset);
      XdrField(io, s.fragment.alloc_size);
      XdrField(io, s.length);
    }
  };

  // Write-ahead-log records, each appended behind its LogOp tag. An
  // appended map record views the file's extents; a replayed one owns
  // them.
  enum class LogOp : uint32_t { kUpsertMap = 1, kRemoveMap = 2 };
  template <class Extents>
  struct MapUpsertRecord {
    uint64_t fileid = 0;
    uint64_t size = 0;
    Extents blocks{};

    template <class Io, class S>
    static void Xdr(Io& io, S& s) {
      XdrField(io, s.fileid);
      XdrField(io, s.size);
      XdrField(io, s.blocks, 4096);
    }
  };
  struct MapRemoveRecord {
    uint64_t fileid = 0;

    template <class Io, class S>
    static void Xdr(Io& io, S& s) {
      XdrField(io, s.fileid);
    }
  };

  size_t file_count() const { return maps_.size(); }
  const BlockCache& cache() const { return cache_; }
  const FragmentAllocator& allocator() const { return alloc_; }
  uint64_t backing_fetches() const { return backing_fetches_; }
  uint64_t backing_flushes() const { return backing_flushes_; }
  uint64_t LocalSize(uint64_t fileid) const;

  // Forces a flush of dirty pages and the WAL (clean shutdown in tests).
  void FlushDirtyForTest() {
    FlushDirty([] {});
    if (wal_) {
      wal_->Flush();
    }
  }

 protected:
  void DispatchCall(const RpcMessageView& call, const Endpoint& client, ReplyFn done) override;
  RpcAcceptStat HandleCall(const RpcMessageView& call, XdrEncoder& reply,
                           ServiceCost& cost) override;
  void OnRestart() override;

 private:
  struct MapRecord {
    uint64_t size = 0;
    std::vector<BlockExtent> blocks;
  };

  // Fetches the backing blocks in need_ that are not resident, then runs
  // `next`: at once, allocating nothing, when every block is resident (the
  // common case); otherwise as a std::function once the last fetch lands.
  template <typename Next>
  void EnsureResident(Next&& next) {
    if (TouchResident()) {
      next();
      return;
    }
    FetchMissing(std::forward<Next>(next));
  }
  // Touches need_'s resident blocks in the cache and leaves only the missing
  // ones in need_; true if none is missing.
  bool TouchResident();
  void FetchMissing(std::function<void()> next);
  // Flushes all dirty pages to the storage array, then runs `next`. Dirty
  // pages batch into one stream per storage node (create batching, §4.4).
  void FlushDirty(std::function<void()> next);
  // Flushes only `fileid`'s dirty pages (and its map page) — the NFSv3
  // commit covers one file, not the server.
  void FlushFile(uint64_t fileid, std::function<void()> next);
  // Coalesces `blocks` into few write RPCs and flushes them.
  void FlushBlocks(std::vector<uint64_t> blocks, std::function<void()> next);

  // Appends the backing blocks covering [offset, offset+len) of the zone to
  // need_.
  void NeedZoneRange(uint64_t offset, uint64_t len);
  uint64_t MapBlockFor(uint64_t fileid) const;

  // A view of the `len` zone bytes at `offset`, which lie in one page: a
  // fragment is aligned to its power-of-two size, at most a page. A page
  // that is not resident reads as zeros.
  ByteSpan ZoneView(uint64_t offset, size_t len) const;
  Bytes ReadZone(uint64_t offset, uint32_t len) const;
  void WriteZone(uint64_t offset, ByteSpan data, uint64_t fileid);
  uint8_t* PageFor(uint64_t block);

  Fattr3 MakeAttr(const FileHandle& fh) const;
  bool CheckHandle(const FileHandle& fh) const;
  void LogMapRecord(uint64_t fileid);
  void LogMapRemove(uint64_t fileid);
  void ReplayRecord(ByteSpan record);

  void DoRead(const ReadArgs& args, ReplyFn done);
  void DoWrite(WriteArgs args, ReplyFn done);
  void DoCommit(const CommitArgs& args, ReplyFn done);
  void DoRemoveOrTruncate(uint64_t fileid, uint64_t keep_size);
  void ArmSyncer();

  SmallFileServerParams params_;
  std::vector<Endpoint> storage_nodes_;
  std::vector<std::unique_ptr<NfsClient>> node_clients_;
  FileHandle zone_handle_;
  FragmentAllocator alloc_;
  std::unordered_map<uint64_t, MapRecord> maps_;
  std::unordered_map<uint64_t, Bytes> pages_;   // resident zone pages
  std::unordered_set<uint64_t> dirty_;          // dirty zone blocks
  std::unordered_map<uint64_t, std::vector<uint64_t>> file_dirty_;  // per-file dirty blocks
  BlockCache cache_;
  std::unique_ptr<WriteAheadLog> wal_;
  bool recovering_ = false;
  // READ reply pieces, views into pages_ (capacity reused).
  std::vector<ByteSpan> read_pieces_;
  // The backing blocks a READ or WRITE needs resident (capacity reused).
  std::vector<uint64_t> need_;
  uint64_t backing_fetches_ = 0;
  uint64_t backing_flushes_ = 0;
  bool syncer_armed_ = false;
  EventQueue::Owner owner_;  // owns the syncer timer
};

}  // namespace slice

#endif  // SLICE_SFS_SMALL_FILE_SERVER_H_
