#include "src/sfs/small_file_server.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "src/common/logging.h"

namespace slice {
namespace {

// Map-record pages live in a sparse high region of the zone so they never
// collide with data fragments.
constexpr uint64_t kMapZoneBaseBlock = 1ull << 33;
constexpr uint32_t kMapRecordSize = 64;

// Lazy write-back cadence for dirty pages not covered by a commit (map
// descriptor pages, unstable stragglers) — the kernel syncer's job.
const SimTime kSyncerInterval = FromSeconds(1);

uint64_t MapSlotFor(uint64_t fileid) {
  // Dense per minting site, preserving creation-order locality so records
  // for files created together share map pages (paper §4.4).
  return ((fileid >> 48) << 24) | (fileid & 0xffffff);
}

// What a READ reply views for holes and for zone pages no longer resident.
constexpr std::array<uint8_t, kStoreBlockSize> kZeroPage{};

}  // namespace

SmallFileServer::SmallFileServer(Network& net, EventQueue& queue, NetAddr addr,
                                 SmallFileServerParams params,
                                 std::vector<Endpoint> storage_nodes, const obs::Sinks& sinks)
    : RpcServerNode(net, queue, addr, kNfsPort, kNfsProgram, kNfsVersion, {}, sinks),
      params_(params),
      storage_nodes_(std::move(storage_nodes)),
      zone_handle_(FileHandle::Make(1, (0xfeull << 48) | params.server_index, 1,
                                    FileType3::kReg, 1, params.volume_secret)),
      cache_(params.cache_bytes),
      owner_(queue) {
  SLICE_CHECK(!storage_nodes_.empty());
  for (const Endpoint& node : storage_nodes_) {
    node_clients_.push_back(
        std::make_unique<NfsClient>(host(), queue, node, RpcClientParams{}, sinks.TracerOnly()));
  }
  cache_.SetEvictionHook([this](PhysBlock block) {
    if (!dirty_.contains(block)) {
      pages_.erase(block);
    }
  });
  if (params_.backing_node.addr != 0) {
    wal_ = std::make_unique<WriteAheadLog>(host(), queue, params_.backing_node,
                                           params_.backing_object, WalParams{}, sinks);
  }
  if (sinks.metrics == nullptr || !sinks.metrics->enabled()) {
    return;
  }
  obs::MetricsRegistry& reg = sinks.metrics->Registry(addr);
  reg.GetCounter("sfs_backing_fetches")->SetProvider([this]() { return backing_fetches_; });
  reg.GetCounter("sfs_backing_flushes")->SetProvider([this]() { return backing_flushes_; });
  reg.GetCounter("sfs_cache_hits")->SetProvider([this]() { return cache_.hits(); });
  reg.GetCounter("sfs_cache_misses")->SetProvider([this]() { return cache_.misses(); });
  reg.GetGauge("sfs_files")->SetProvider([this]() { return static_cast<int64_t>(maps_.size()); });
  if (wal_) {
    reg.GetCounter("sfs_wal_bytes")->SetProvider([this]() { return wal_->bytes_logged(); });
    reg.GetCounter("sfs_wal_records")->SetProvider([this]() { return wal_->records_logged(); });
    reg.GetCounter("sfs_wal_flushes")->SetProvider([this]() { return wal_->flushes(); });
  }
}

void SmallFileServer::ArmSyncer() {
  if (syncer_armed_) {
    return;
  }
  syncer_armed_ = true;
  auto sync = [this] {
    syncer_armed_ = false;
    FlushDirty([] {});
    if (!dirty_.empty()) {
      ArmSyncer();
    }
  };
  queue().ScheduleAfter(kSyncerInterval, sync, owner_.id());
}

uint64_t SmallFileServer::LocalSize(uint64_t fileid) const {
  const auto it = maps_.find(fileid);
  return it == maps_.end() ? 0 : it->second.size;
}

bool SmallFileServer::CheckHandle(const FileHandle& fh) const {
  return fh.VerifyCapability(params_.volume_secret);
}

Fattr3 SmallFileServer::MakeAttr(const FileHandle& fh) const {
  Fattr3 attr;
  attr.type = FileType3::kReg;
  attr.fileid = fh.fileid();
  attr.fsid = fh.volume();
  attr.size = LocalSize(fh.fileid());
  const auto it = maps_.find(fh.fileid());
  if (it != maps_.end()) {
    uint64_t used = 0;
    for (const BlockExtent& extent : it->second.blocks) {
      used += extent.fragment.alloc_size;
    }
    attr.used = used;
  }
  attr.atime = attr.mtime = attr.ctime =
      NfsTime{static_cast<uint32_t>(now() / kNanosPerSec),
              static_cast<uint32_t>(now() % kNanosPerSec)};
  return attr;
}

void SmallFileServer::NeedZoneRange(uint64_t offset, uint64_t len) {
  if (len == 0) {
    return;
  }
  const uint64_t last = (offset + len - 1) / kStoreBlockSize;
  for (uint64_t b = offset / kStoreBlockSize; b <= last; ++b) {
    need_.push_back(b);
  }
}

uint64_t SmallFileServer::MapBlockFor(uint64_t fileid) const {
  return kMapZoneBaseBlock + MapSlotFor(fileid) * kMapRecordSize / kStoreBlockSize;
}

uint8_t* SmallFileServer::PageFor(uint64_t block) {
  Bytes& page = pages_[block];
  if (page.size() != kStoreBlockSize) {
    page.assign(kStoreBlockSize, 0);
    cache_.Insert(block);
  }
  return page.data();
}

ByteSpan SmallFileServer::ZoneView(uint64_t offset, size_t len) const {
  const size_t within = offset % kStoreBlockSize;
  SLICE_CHECK(within + len <= kStoreBlockSize);
  const auto it = pages_.find(offset / kStoreBlockSize);
  if (it == pages_.end()) {
    return ByteSpan(kZeroPage.data(), len);
  }
  return ByteSpan(it->second).subspan(within, len);
}

Bytes SmallFileServer::ReadZone(uint64_t offset, uint32_t len) const {
  Bytes out(len, 0);
  uint64_t produced = 0;
  while (produced < len) {
    const uint64_t abs = offset + produced;
    const uint64_t block = abs / kStoreBlockSize;
    const size_t within = abs % kStoreBlockSize;
    const size_t take = std::min<uint64_t>(len - produced, kStoreBlockSize - within);
    const auto it = pages_.find(block);
    if (it != pages_.end()) {
      std::memcpy(out.data() + produced, it->second.data() + within, take);
    }
    produced += take;
  }
  return out;
}

void SmallFileServer::WriteZone(uint64_t offset, ByteSpan data, uint64_t fileid) {
  size_t consumed = 0;
  while (consumed < data.size()) {
    const uint64_t abs = offset + consumed;
    const uint64_t block = abs / kStoreBlockSize;
    const size_t within = abs % kStoreBlockSize;
    const size_t take = std::min(data.size() - consumed, kStoreBlockSize - within);
    std::memcpy(PageFor(block) + within, data.data() + consumed, take);
    dirty_.insert(block);
    file_dirty_[fileid].push_back(block);
    cache_.Insert(block);
    consumed += take;
  }
}

bool SmallFileServer::TouchResident() {
  size_t missing = 0;
  for (size_t i = 0; i < need_.size(); ++i) {
    if (pages_.contains(need_[i])) {
      cache_.Access(need_[i]);
    } else {
      need_[missing++] = need_[i];
    }
  }
  need_.resize(missing);
  return missing == 0;
}

void SmallFileServer::FetchMissing(std::function<void()> next) {
  struct Fetch {
    size_t pending;
    std::function<void()> next;
  };
  auto fetch = std::make_shared<Fetch>(Fetch{need_.size(), std::move(next)});
  for (uint64_t block : need_) {
    ++backing_fetches_;
    NfsClient& client = *node_clients_[block % node_clients_.size()];
    client.Read(zone_handle_, block * kStoreBlockSize, kStoreBlockSize,
                [this, block, fetch](Status st, const ReadResView& res) {
                  uint8_t* page = PageFor(block);
                  if (st.ok() && res.status == Nfsstat3::kOk && !res.data.empty()) {
                    std::memcpy(page, res.data.data(),
                                std::min<size_t>(res.data.size(), kStoreBlockSize));
                  }
                  cache_.Access(block);  // count the miss-fill
                  if (--fetch->pending == 0) {
                    fetch->next();
                  }
                });
  }
}

void SmallFileServer::FlushDirty(std::function<void()> next) {
  std::vector<uint64_t> blocks(dirty_.begin(), dirty_.end());
  file_dirty_.clear();
  FlushBlocks(std::move(blocks), std::move(next));
}

void SmallFileServer::FlushFile(uint64_t fileid, std::function<void()> next) {
  std::vector<uint64_t> blocks;
  if (auto it = file_dirty_.find(fileid); it != file_dirty_.end()) {
    blocks = std::move(it->second);
    file_dirty_.erase(it);
  }
  FlushBlocks(std::move(blocks), std::move(next));
}

void SmallFileServer::FlushBlocks(std::vector<uint64_t> blocks, std::function<void()> next) {
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
  std::erase_if(blocks, [this](uint64_t block) { return !dirty_.contains(block); });
  if (blocks.empty()) {
    next();
    return;
  }
  for (uint64_t block : blocks) {
    dirty_.erase(block);
  }

  // Coalesce contiguous zone blocks into single (<=32KB) write RPCs.
  struct Run {
    uint64_t start;
    uint64_t len;
  };
  std::vector<Run> runs;
  for (uint64_t block : blocks) {
    if (!runs.empty() && runs.back().start + runs.back().len == block &&
        runs.back().len < 4) {
      ++runs.back().len;
    } else {
      runs.push_back(Run{block, 1});
    }
  }

  auto pending = std::make_shared<size_t>(runs.size());
  auto after = std::make_shared<std::function<void()>>(std::move(next));
  for (const Run& run : runs) {
    backing_flushes_ += run.len;
    Bytes payload;
    payload.reserve(run.len * kStoreBlockSize);
    for (uint64_t b = run.start; b < run.start + run.len; ++b) {
      const auto page_it = pages_.find(b);
      SLICE_CHECK(page_it != pages_.end());
      payload.insert(payload.end(), page_it->second.begin(), page_it->second.end());
    }
    NfsClient& client = *node_clients_[run.start % node_clients_.size()];
    client.Write(zone_handle_, run.start * kStoreBlockSize, payload, StableHow::kFileSync,
                 [this, run, pending, after](Status st, const WriteRes& res) {
                   if (!st.ok() || res.status != Nfsstat3::kOk) {
                     SLICE_WLOG << "sfs: backing flush failed";
                   }
                   for (uint64_t b = run.start; b < run.start + run.len; ++b) {
                     if (!cache_.Contains(b) && !dirty_.contains(b)) {
                       pages_.erase(b);  // was evicted while dirty
                     }
                   }
                   if (--*pending == 0) {
                     (*after)();
                   }
                 });
  }
}

void SmallFileServer::LogMapRecord(uint64_t fileid) {
  // The descriptor page is dirty, but its durability comes from the WAL;
  // the home location is written back lazily by the syncer, not per commit.
  const uint64_t map_block = MapBlockFor(fileid);
  (void)PageFor(map_block);
  dirty_.insert(map_block);
  ArmSyncer();
  if (!wal_) {
    return;
  }
  const MapRecord& map = maps_[fileid];
  wal_->Append(LogOp::kUpsertMap, MapUpsertRecord<std::span<const BlockExtent>>{
                                       fileid, map.size, map.blocks});
}

void SmallFileServer::LogMapRemove(uint64_t fileid) {
  const uint64_t map_block = MapBlockFor(fileid);
  (void)PageFor(map_block);
  dirty_.insert(map_block);
  ArmSyncer();
  if (!wal_) {
    return;
  }
  wal_->Append(LogOp::kRemoveMap, MapRemoveRecord{fileid});
}

void SmallFileServer::ReplayRecord(ByteSpan record) {
  XdrDecoder dec(record);
  LogOp op{};
  XdrField(dec, op);
  if (!dec.ok()) {
    return;
  }
  if (op == LogOp::kRemoveMap) {
    if (const auto r = XdrDecode<MapRemoveRecord>(dec); r.ok()) {
      maps_.erase(r->fileid);
    }
    return;
  }
  if (auto r = XdrDecode<MapUpsertRecord<std::vector<BlockExtent>>>(dec); r.ok()) {
    maps_[r->fileid] = MapRecord{r->size, std::move(r.value().blocks)};
  }
}

void SmallFileServer::OnRestart() {
  pages_.clear();
  dirty_.clear();
  file_dirty_.clear();
  cache_.Clear();
  maps_.clear();
  if (!wal_) {
    return;
  }
  wal_->DiscardBuffered();
  recovering_ = true;
  wal_->Replay([this](ByteSpan record) { ReplayRecord(record); },
               [this](Status st) {
                 if (!st.ok()) {
                   SLICE_ELOG << "sfs: recovery failed: " << st.ToString();
                 }
                 // Rebuild the allocator tail past every known fragment (free
                 // lists are conservatively forgotten).
                 uint64_t tail = alloc_.zone_tail();
                 for (const auto& [fileid, map] : maps_) {
                   (void)fileid;
                   for (const BlockExtent& extent : map.blocks) {
                     tail = std::max(tail, extent.fragment.offset + extent.fragment.alloc_size);
                   }
                 }
                 while (alloc_.zone_tail() < tail) {
                   (void)alloc_.Allocate(kMaxFragment);
                 }
                 recovering_ = false;
                 SLICE_ILOG << "sfs " << params_.server_index << " recovered " << maps_.size()
                            << " map records";
                 obs::LogEvent(eventlog(), addr(), queue().now(), obs::EventSev::kInfo,
                               obs::EventCat::kFailover, obs::EventCode::kWalReplay,
                               /*trace_id=*/0, st.ok() ? "recovered" : "failed",
                               {{"sfs", params_.server_index},
                                {"maps", static_cast<int64_t>(maps_.size())}});
               });
}

void SmallFileServer::DoRead(const ReadArgs& args, ReplyFn done) {
  ServiceCost cost;
  cost.AddCpu(FromMicros(params_.op_cpu_us));
  if (!CheckHandle(args.file)) {
    done(RpcAcceptStat::kSuccess, NfsErrorRes{NfsProc::kRead, Nfsstat3::kErrBadhandle}, cost);
    return;
  }
  const uint64_t fileid = args.file.fileid();
  const auto map_it = maps_.find(fileid);

  // Resident set: the map-descriptor page plus every fragment overlapped by
  // the request.
  need_.assign(1, MapBlockFor(fileid));
  uint64_t size = 0;
  if (map_it != maps_.end()) {
    size = map_it->second.size;
    const uint64_t end = std::min<uint64_t>(size, args.offset + args.count);
    for (uint64_t abs = args.offset; abs < end;) {
      const uint64_t lblock = abs / kStoreBlockSize;
      if (lblock < map_it->second.blocks.size()) {
        const BlockExtent& extent = map_it->second.blocks[lblock];
        if (extent.fragment.valid()) {
          NeedZoneRange(extent.fragment.offset, extent.fragment.alloc_size);
        }
      }
      abs = (lblock + 1) * kStoreBlockSize;
    }
  }

  const FileHandle fh = args.file;
  const uint64_t offset = args.offset;
  const uint32_t count = args.count;
  EnsureResident([this, fh, fileid, offset, count, cost, size, done]() mutable {
    ReadResPieces res;
    read_pieces_.clear();
    const auto it = maps_.find(fileid);
    if (it == maps_.end() || offset >= size) {
      res.eof = true;
      res.count = 0;
    } else {
      // Each logical block's bytes are one view: of its fragment's page, or
      // of the zero page past the fragment's valid length (a hole).
      const MapRecord& map = it->second;
      const uint64_t n = std::min<uint64_t>(count, size - offset);
      uint64_t produced = 0;
      while (produced < n) {
        const uint64_t abs = offset + produced;
        const uint64_t lblock = abs / kStoreBlockSize;
        const size_t within = abs % kStoreBlockSize;
        const size_t take = std::min<uint64_t>(n - produced, kStoreBlockSize - within);
        size_t have = 0;
        if (lblock < map.blocks.size() && map.blocks[lblock].fragment.valid() &&
            within < map.blocks[lblock].length) {
          have = std::min<size_t>(take, map.blocks[lblock].length - within);
          read_pieces_.push_back(ZoneView(map.blocks[lblock].fragment.offset + within, have));
        }
        if (have < take) {
          read_pieces_.push_back(ByteSpan(kZeroPage.data(), take - have));
        }
        produced += take;
      }
      res.count = static_cast<uint32_t>(n);
      res.eof = offset + n >= size && size < params_.threshold;
    }
    res.file_attributes = MakeAttr(fh);
    cost.AddCpu(static_cast<SimTime>(static_cast<double>(res.count) * params_.cpu_ns_per_byte));
    // ReplyFn encodes the pieces straight into the reply frame.
    res.data = read_pieces_;
    done(RpcAcceptStat::kSuccess, res, cost);
  });
}

void SmallFileServer::DoWrite(WriteArgs args, ReplyFn done) {
  ServiceCost cost;
  cost.AddCpu(FromMicros(params_.op_cpu_us) +
              static_cast<SimTime>(static_cast<double>(args.data.size()) *
                                   params_.cpu_ns_per_byte));
  if (!CheckHandle(args.file)) {
    done(RpcAcceptStat::kSuccess, NfsErrorRes{NfsProc::kWrite, Nfsstat3::kErrBadhandle}, cost);
    return;
  }
  const uint64_t fileid = args.file.fileid();

  // Residency: the map page plus existing fragments we will partially
  // overwrite or grow (their live bytes must be copied on reallocation).
  need_.assign(1, MapBlockFor(fileid));
  if (const auto it = maps_.find(fileid); it != maps_.end() && !args.data.empty()) {
    const std::vector<BlockExtent>& blocks = it->second.blocks;
    const uint64_t last = (args.offset + args.data.size() - 1) / kStoreBlockSize;
    for (uint64_t b = args.offset / kStoreBlockSize; b <= last; ++b) {
      if (b < blocks.size() && blocks[b].fragment.valid()) {
        NeedZoneRange(blocks[b].fragment.offset, blocks[b].length);
      }
    }
  }

  EnsureResident([this, args = std::move(args), cost, done]() mutable {
    const uint64_t file_id = args.file.fileid();
    MapRecord& map = maps_[file_id];
    size_t consumed = 0;
    while (consumed < args.data.size()) {
      const uint64_t abs = args.offset + consumed;
      const uint64_t lblock = abs / kStoreBlockSize;
      const size_t within = abs % kStoreBlockSize;
      const size_t take = std::min(args.data.size() - consumed, kStoreBlockSize - within);
      if (map.blocks.size() <= lblock) {
        map.blocks.resize(lblock + 1);
      }
      BlockExtent& extent = map.blocks[lblock];
      const uint32_t new_length =
          std::max<uint32_t>(extent.length, static_cast<uint32_t>(within + take));
      if (!extent.fragment.valid() || extent.fragment.alloc_size < new_length) {
        // Best-fit reallocation, copying live bytes into the new fragment.
        Fragment bigger = alloc_.Allocate(new_length);
        if (extent.fragment.valid() && extent.length > 0) {
          Bytes live = ReadZone(extent.fragment.offset, extent.length);
          WriteZone(bigger.offset, live, file_id);
        }
        alloc_.Free(extent.fragment);
        extent.fragment = bigger;
      }
      WriteZone(extent.fragment.offset + within,
                ByteSpan(args.data.data() + consumed, take), file_id);
      extent.length = new_length;
      consumed += take;
    }
    map.size = std::max(map.size, args.offset + args.data.size());
    LogMapRecord(file_id);

    auto reply = [this, fh = args.file, count = static_cast<uint32_t>(args.data.size()), cost,
                  done](StableHow committed) mutable {
      WriteRes res;
      res.count = count;
      res.committed = committed;
      res.verf = 0x5f5eull << 32 | params_.server_index;
      res.wcc.after = MakeAttr(fh);
      done(RpcAcceptStat::kSuccess, res, cost);
    };
    if (args.stable != StableHow::kUnstable) {
      FlushFile(file_id, [reply = std::move(reply)]() mutable { reply(StableHow::kFileSync); });
    } else {
      reply(StableHow::kUnstable);
    }
  });
}

void SmallFileServer::DoCommit(const CommitArgs& args, ReplyFn done) {
  ServiceCost cost;
  cost.AddCpu(FromMicros(params_.op_cpu_us));
  const FileHandle fh = args.file;
  FlushFile(fh.fileid(), [this, fh, cost, done]() mutable {
    if (wal_) {
      wal_->Flush();
    }
    CommitRes res;
    res.verf = 0x5f5eull << 32 | params_.server_index;
    res.wcc.after = MakeAttr(fh);
    done(RpcAcceptStat::kSuccess, res, cost);
  });
}

void SmallFileServer::DoRemoveOrTruncate(uint64_t fileid, uint64_t keep_size) {
  const auto it = maps_.find(fileid);
  if (it == maps_.end()) {
    return;
  }
  MapRecord& map = it->second;
  const uint64_t keep_blocks = (keep_size + kStoreBlockSize - 1) / kStoreBlockSize;
  for (size_t b = keep_blocks; b < map.blocks.size(); ++b) {
    alloc_.Free(map.blocks[b].fragment);
    map.blocks[b] = BlockExtent{};
  }
  if (keep_size == 0) {
    maps_.erase(it);
    LogMapRemove(fileid);
    return;
  }
  map.blocks.resize(keep_blocks);
  map.size = std::min(map.size, keep_size);
  if (!map.blocks.empty()) {
    const size_t last_within = ((keep_size - 1) % kStoreBlockSize) + 1;
    map.blocks.back().length =
        std::min<uint32_t>(map.blocks.back().length, static_cast<uint32_t>(last_within));
  }
  LogMapRecord(fileid);
}

void SmallFileServer::DispatchCall(const RpcMessageView& call, const Endpoint& client,
                                   ReplyFn done) {
  const NfsProc proc = static_cast<NfsProc>(call.proc);
  if (recovering_ &&
      (proc == NfsProc::kRead || proc == NfsProc::kWrite || proc == NfsProc::kCommit)) {
    done(RpcAcceptStat::kSuccess, NfsErrorRes{proc, Nfsstat3::kErrJukebox}, ServiceCost{});
    return;
  }
  RpcAcceptStat stat = RpcAcceptStat::kSuccess;
  switch (proc) {
    case NfsProc::kRead:
      stat = Serve<ReadArgs>(call, [&](const ReadArgs& args) { DoRead(args, done); });
      break;
    case NfsProc::kWrite:
      stat = Serve<WriteArgs>(call, [&](WriteArgs& args) { DoWrite(std::move(args), done); });
      break;
    case NfsProc::kCommit:
      stat = Serve<CommitArgs>(call, [&](const CommitArgs& args) { DoCommit(args, done); });
      break;
    default:
      RpcServerNode::DispatchCall(call, client, done);
      return;
  }
  if (stat != RpcAcceptStat::kSuccess) {
    done(stat);
  }
}

RpcAcceptStat SmallFileServer::HandleCall(const RpcMessageView& call, XdrEncoder& reply,
                                          ServiceCost& cost) {
  cost.AddCpu(FromMicros(params_.op_cpu_us / 2));
  switch (static_cast<NfsProc>(call.proc)) {
    case NfsProc::kNull:
      return RpcAcceptStat::kSuccess;
    case NfsProc::kGetattr:
      return Serve<GetattrArgs>(call, [&](const GetattrArgs& args) {
        GetattrRes res;
        if (!CheckHandle(args.object)) {
          res.status = Nfsstat3::kErrBadhandle;
        } else {
          res.attributes = MakeAttr(args.object);
        }
        res.Encode(reply);
      });
    case NfsProc::kSetattr:
      return Serve<SetattrArgs>(call, [&](const SetattrArgs& args) {
        SetattrRes res;
        if (!CheckHandle(args.object)) {
          res.status = Nfsstat3::kErrBadhandle;
        } else if (args.new_attributes.size.has_value()) {
          DoRemoveOrTruncate(args.object.fileid(), *args.new_attributes.size);
          res.wcc.after = MakeAttr(args.object);
        }
        res.Encode(reply);
      });
    case NfsProc::kRemove:
      return Serve<DirOpArgs>(call, [&](const DirOpArgs& args) {
        RemoveRes res;
        if (!CheckHandle(args.dir)) {
          res.status = Nfsstat3::kErrBadhandle;
        } else if (!args.name.empty()) {
          res.status = Nfsstat3::kErrInval;
        } else {
          DoRemoveOrTruncate(args.dir.fileid(), 0);
        }
        res.Encode(reply);
      });
    default:
      return RpcAcceptStat::kProcUnavail;
  }
}

}  // namespace slice
