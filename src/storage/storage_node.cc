#include "src/storage/storage_node.h"

#include <algorithm>

#include "src/common/logging.h"

namespace slice {
namespace {

// Storage objects are keyed by the file's identity; every node addressing
// the same file uses the same object id ("the storage nodes accept NFS file
// handles as object identifiers, using an external hash", paper §4.2).
ObjectId ObjectIdFor(const FileHandle& fh) {
  return MixU64(fh.fileid() ^ (static_cast<uint64_t>(fh.volume()) << 48));
}

Nfsstat3 StoreErrorStatus(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted ? Nfsstat3::kErrNospc
                                                         : Nfsstat3::kErrIo;
}

}  // namespace

StorageNode::StorageNode(Network& net, EventQueue& queue, NetAddr addr,
                         StorageNodeParams params, uint64_t seed, const obs::Sinks& sinks)
    : RpcServerNode(net, queue, addr, kNfsPort, kNfsProgram, kNfsVersion, {}, sinks),
      params_(params),
      store_(params.capacity_bytes),
      cache_(params.cache_bytes),
      disks_(params.num_disks, params.disk, params.channel_mb_per_s),
      rng_(seed ^ addr),
      write_verifier_(rng_.NextU64()) {
  // Sized for the largest READ, so serving one never grows them.
  read_segments_.reserve(MaxGatherPieces(kNfsMaxData));
  read_pages_.reserve(MaxGatherPieces(kNfsMaxData));
  // A pending-ready entry is only meaningful while its block is cached: if
  // capacity pressure evicts the block before its prefetch I/O lands, a
  // later re-fetch must charge fresh disk time, not inherit the stale ready
  // stamp. Tying the lifetime to eviction also bounds the table by the cache
  // size (this replaces an episodic size-triggered clear).
  cache_.SetEvictionHook([this](PhysBlock block) { pending_ready_.Erase(block); });
  if (sinks.profiler != nullptr) {
    sinks.profiler->AddBusyProvider([this, addr](std::map<uint32_t, uint64_t>* out) {
      (*out)[addr] += static_cast<uint64_t>(disks_.TotalBusy()) +
                      static_cast<uint64_t>(disks_.channel().total_busy_time());
    });
  }
  if (sinks.metrics == nullptr || !sinks.metrics->enabled()) {
    return;
  }
  obs::MetricsRegistry& reg = sinks.metrics->Registry(addr);
  reg.GetCounter("storage_disk_ios")->SetProvider([this]() { return disks_.TotalIos(); });
  reg.GetCounter("storage_disk_busy_ns")->SetProvider([this]() {
    return static_cast<uint64_t>(disks_.TotalBusy());
  });
  reg.GetCounter("storage_disk_position_ns")->SetProvider([this]() {
    return static_cast<uint64_t>(disks_.TotalPosition());
  });
  reg.GetCounter("storage_disk_transfer_ns")->SetProvider([this]() {
    return static_cast<uint64_t>(disks_.TotalTransfer());
  });
  // Worst-arm backlog: the gauge the disk_backlog watchdog watches.
  reg.GetGauge("storage_disk_backlog_ns")->SetProvider([this]() -> int64_t {
    const auto backlog =
        static_cast<int64_t>(disks_.MaxBusyUntil()) - static_cast<int64_t>(now());
    return backlog > 0 ? backlog : 0;
  });
  reg.GetCounter("storage_cache_hits")->SetProvider([this]() { return cache_.hits(); });
  reg.GetCounter("storage_cache_misses")->SetProvider([this]() { return cache_.misses(); });
  reg.GetCounter("storage_prefetches")->SetProvider([this]() { return prefetches_issued_; });
}

bool StorageNode::CheckHandle(const FileHandle& fh) const {
  return fh.VerifyCapability(params_.volume_secret);
}

Fattr3 StorageNode::MakeAttr(const FileHandle& fh) const {
  Fattr3 attr;
  attr.type = FileType3::kReg;
  attr.fileid = fh.fileid();
  attr.fsid = fh.volume();
  const ObjectId id = ObjectIdFor(fh);
  attr.size = store_.SizeOrZero(id);
  attr.used = store_.AllocatedBytes(id);
  const uint32_t sec = static_cast<uint32_t>(now() / kNanosPerSec);
  const uint32_t nsec = static_cast<uint32_t>(now() % kNanosPerSec);
  attr.atime = attr.mtime = attr.ctime = NfsTime{sec, nsec};
  return attr;
}

SimTime StorageNode::SubmitCoalesced(std::vector<PhysBlock>& blocks, bool fill_cache) {
  obs::Profiler::Scope prof(profiler(), obs::ProfScope::kStorageDisk);
  std::sort(blocks.begin(), blocks.end());
  SimTime latest = 0;
  const size_t arms = disks_.num_disks();
  size_t runs = 0;
  // Group per arm, then merge runs of consecutive arm-local positions so one
  // positioning covers a whole track-sized transfer.
  for (size_t arm = 0; arm < arms; ++arm) {
    uint64_t run_start = 0;
    uint64_t run_len = 0;
    uint64_t prev = 0;
    auto flush_run = [&]() {
      if (run_len == 0) {
        return;
      }
      ++runs;
      latest = std::max(latest, disks_.SubmitIo(now(), arm, run_start * kStoreBlockSize,
                                                run_len * kStoreBlockSize));
    };
    for (PhysBlock block : blocks) {
      if (block % arms != arm) {
        continue;
      }
      const uint64_t arm_pos = block / arms;
      if (run_len > 0 && arm_pos == prev + 1) {
        ++run_len;
      } else {
        flush_run();
        run_start = arm_pos;
        run_len = 1;
      }
      prev = arm_pos;
      if (fill_cache) {
        cache_.Insert(block);
      }
    }
    flush_run();
  }
  // Metadata I/O (inode/indirect blocks) amortizes over clustered transfers:
  // charge per run, so random 8KB misses pay full freight while sequential
  // log appends and track-sized flushes stay cheap.
  for (size_t r = 0; r < runs; ++r) {
    latest = std::max(latest, ChargeMetadataIos());
  }
  return latest;
}

SimTime StorageNode::RecordDisk(const char* name, SimTime start, SimTime done) {
  if (tracer() != nullptr && done > start) {
    const obs::TraceContext ctx = tracer()->current();
    if (ctx.valid()) {
      tracer()->RecordSpan(addr(), ctx, obs::SpanCat::kDisk, name, start, done);
    }
  }
  return done;
}

SimTime StorageNode::ChargeReads(const std::vector<PhysBlock>& blocks) {
  obs::Profiler::Scope prof(profiler(), obs::ProfScope::kStorageCache);
  read_misses_.clear();
  SimTime latest = 0;
  for (PhysBlock block : blocks) {
    if (cache_.Access(block)) {
      // A hit on an in-flight prefetch still waits for the disk.
      if (const SimTime* ready = pending_ready_.Find(block)) {
        if (*ready > now()) {
          latest = std::max(latest, *ready);
        } else {
          pending_ready_.Erase(block);
        }
      }
    } else {
      read_misses_.push_back(block);
    }
  }
  return RecordDisk("disk_read", now(),
                    std::max(latest, SubmitCoalesced(read_misses_, /*fill_cache=*/true)));
}

SimTime StorageNode::ChargeMetadataIos() {
  meta_debt_ += params_.extra_meta_ios;
  SimTime latest = 0;
  while (meta_debt_ >= 1.0) {
    meta_debt_ -= 1.0;
    const size_t disk = rng_.NextBelow(disks_.num_disks());
    const uint64_t pos = rng_.NextBelow(store_.capacity_blocks()) * kStoreBlockSize;
    latest = std::max(latest, disks_.SubmitIo(now(), disk, pos, kStoreBlockSize));
  }
  return latest;
}

SimTime StorageNode::ChargeWrites(std::vector<PhysBlock>& blocks) {
  return RecordDisk("disk_write", now(), SubmitCoalesced(blocks, /*fill_cache=*/true));
}

void StorageNode::MaybePrefetch(ObjectId id, uint64_t offset, uint32_t count) {
  // Striped files reach each node with large strides between this node's
  // shares; treat bounded forward progress as sequential so the prefetcher
  // stays ahead of a striped sequential reader.
  const uint64_t* expected = next_offset_.Find(id);
  const bool forward =
      expected != nullptr && offset >= *expected && offset - *expected <= (4u << 20);
  *next_offset_.Insert(id).first = offset + count;
  if (!forward && offset != 0) {
    return;
  }
  // Fetch up to prefetch_blocks of existing stable blocks past the access;
  // they go to the cache on the disks' own time, off the reply path. Striped
  // files leave logical holes on each node, so skip gaps rather than stop —
  // the node's share of the file is physically contiguous regardless.
  const BlockIndex first = (offset + count + kStoreBlockSize - 1) / kStoreBlockSize;
  const BlockIndex horizon = first + params_.prefetch_blocks * 16;
  size_t found = 0;
  prefetch_batch_.clear();
  for (const StoreBlock& block : store_.BlocksFrom(id, first)) {
    if (block.block >= horizon || found == params_.prefetch_blocks) {
      break;
    }
    ++found;
    if (!cache_.Contains(block.phys)) {
      prefetch_batch_.push_back(block.phys);
    }
  }
  // Hysteresis: refill in track-sized batches. Dribbling one block per
  // demand read would cost a full positioning delay per 8KB; waiting until
  // half the window has drained keeps per-arm runs long (FFS clustering).
  if (prefetch_batch_.size() < params_.prefetch_blocks / 2) {
    return;
  }
  prefetches_issued_ += prefetch_batch_.size();
  const SimTime ready = SubmitCoalesced(prefetch_batch_, /*fill_cache=*/true);
  // Stale entries cannot accumulate: the cache's eviction hook erases a
  // block's entry when the block itself is evicted.
  for (PhysBlock block : prefetch_batch_) {
    *pending_ready_.Insert(block).first = ready;
  }
}

void StorageNode::HandleRead(const ReadArgs& args, XdrEncoder& reply, ServiceCost& cost) {
  ReadResPieces res;
  if (!CheckHandle(args.file)) {
    res.status = Nfsstat3::kErrBadhandle;
    res.Encode(reply);
    return;
  }
  const ObjectId id = ObjectIdFor(args.file);
  read_segments_.clear();
  read_pages_.clear();
  io_blocks_.clear();
  // Past kNfsMaxData (ReadRes's decode bound), the reply is a short read.
  const auto count = static_cast<uint32_t>(std::min<size_t>(args.count, kNfsMaxData));
  const StoreReadExtent read = store_.ReadGather(id, args.offset, count, &read_segments_,
                                                 &read_pages_, &io_blocks_);
  cost.MergeCompletion(ChargeReads(io_blocks_));
  MaybePrefetch(id, args.offset, count);
  cost.AddCpu(FromMicros(params_.op_cpu_us) +
              static_cast<SimTime>(static_cast<double>(read.length) * params_.cpu_ns_per_byte));
  res.file_attributes = MakeAttr(args.file);
  res.count = read.length;
  res.eof = read.eof;
  // Copy straight from the store's pages into the reply (no per-request
  // buffer on the READ fast path); the DRC pins the pages instead of copying
  // the data again.
  res.data = read_segments_;
  res.Encode(reply);
  PinReplyData(store_.pages(), read_segments_, read_pages_);
}

void StorageNode::HandleWrite(const WriteArgsView& args, XdrEncoder& reply, ServiceCost& cost) {
  WriteRes res;
  if (!CheckHandle(args.file)) {
    res.status = Nfsstat3::kErrBadhandle;
    res.Encode(reply);
    return;
  }
  const ObjectId id = ObjectIdFor(args.file);
  const bool stable = args.stable != StableHow::kUnstable;
  io_blocks_.clear();
  const Status written = store_.Write(id, args.offset, args.data, stable, &io_blocks_);
  if (!written.ok()) {
    res.status = StoreErrorStatus(written);
    res.Encode(reply);
    return;
  }
  if (stable) {
    cost.MergeCompletion(ChargeWrites(io_blocks_));
  }
  cost.AddCpu(FromMicros(params_.op_cpu_us) +
              static_cast<SimTime>(static_cast<double>(args.data.size()) *
                                   params_.cpu_ns_per_byte));
  res.count = static_cast<uint32_t>(args.data.size());
  res.committed = stable ? StableHow::kFileSync : StableHow::kUnstable;
  res.verf = write_verifier_;
  res.wcc.after = MakeAttr(args.file);
  res.Encode(reply);
}

void StorageNode::HandleCommit(const CommitArgs& args, XdrEncoder& reply, ServiceCost& cost) {
  CommitRes res;
  if (!CheckHandle(args.file)) {
    res.status = Nfsstat3::kErrBadhandle;
    res.Encode(reply);
    return;
  }
  io_blocks_.clear();
  const Status committed = store_.Commit(ObjectIdFor(args.file), &io_blocks_);
  cost.MergeCompletion(ChargeWrites(io_blocks_));
  cost.AddCpu(FromMicros(params_.op_cpu_us));
  if (!committed.ok()) {
    // Out of space: the blocks placed are on disk, the rest stay dirty, and
    // the client must not take its unstable data for durable.
    res.status = StoreErrorStatus(committed);
  }
  res.verf = write_verifier_;
  res.wcc.after = MakeAttr(args.file);
  res.Encode(reply);
}

void StorageNode::HandleGetattr(const GetattrArgs& args, XdrEncoder& reply, ServiceCost& cost) {
  GetattrRes res;
  if (!CheckHandle(args.object)) {
    res.status = Nfsstat3::kErrBadhandle;
  } else {
    res.attributes = MakeAttr(args.object);
  }
  cost.AddCpu(FromMicros(params_.op_cpu_us / 2));
  res.Encode(reply);
}

void StorageNode::HandleSetattr(const SetattrArgs& args, XdrEncoder& reply, ServiceCost& cost) {
  SetattrRes res;
  if (!CheckHandle(args.object)) {
    res.status = Nfsstat3::kErrBadhandle;
  } else if (args.new_attributes.size.has_value()) {
    const Status st = store_.Truncate(ObjectIdFor(args.object), *args.new_attributes.size);
    if (!st.ok()) {
      res.status = Nfsstat3::kErrIo;
    }
    res.wcc.after = MakeAttr(args.object);
  }
  cost.AddCpu(FromMicros(params_.op_cpu_us));
  res.Encode(reply);
}

void StorageNode::HandleRemove(const DirOpArgs& args, XdrEncoder& reply, ServiceCost& cost) {
  // Convention: REMOVE with an empty name removes the storage object named
  // by the handle (coordinator-driven object deletion).
  RemoveRes res;
  if (!CheckHandle(args.dir)) {
    res.status = Nfsstat3::kErrBadhandle;
  } else if (!args.name.empty()) {
    res.status = Nfsstat3::kErrInval;
  } else {
    const Status st = store_.Remove(ObjectIdFor(args.dir));
    if (!st.ok()) {
      res.status = Nfsstat3::kErrNoent;
    }
  }
  cost.AddCpu(FromMicros(params_.op_cpu_us));
  res.Encode(reply);
}

void StorageNode::HandleFsstat(XdrEncoder& reply, ServiceCost& cost) {
  FsstatRes res;
  res.tbytes = store_.capacity_blocks() * kStoreBlockSize;
  res.fbytes = (store_.capacity_blocks() - store_.used_blocks()) * kStoreBlockSize;
  res.abytes = res.fbytes;
  res.tfiles = 1u << 20;
  res.ffiles = res.tfiles - store_.object_count();
  res.afiles = res.ffiles;
  cost.AddCpu(FromMicros(params_.op_cpu_us / 2));
  res.Encode(reply);
}

RpcAcceptStat StorageNode::HandleCall(const RpcMessageView& call, XdrEncoder& reply,
                                      ServiceCost& cost) {
  const SimTime disk_before =
      disks_.TotalBusy() + static_cast<SimTime>(disks_.channel().total_busy_time());
  const RpcAcceptStat stat = DispatchNfsCall(call, reply, cost);
  const SimTime disk_after =
      disks_.TotalBusy() + static_cast<SimTime>(disks_.channel().total_busy_time());
  obs::ChargeSim(prof_ledger(), obs::LedgerCat::kDisk, disk_after - disk_before);
  return stat;
}

RpcAcceptStat StorageNode::DispatchNfsCall(const RpcMessageView& call, XdrEncoder& reply,
                                           ServiceCost& cost) {
  switch (static_cast<NfsProc>(call.proc)) {
    case NfsProc::kNull:
      return RpcAcceptStat::kSuccess;
    case NfsProc::kRead:
      return Serve<ReadArgs>(call,
                             [&](const ReadArgs& args) { HandleRead(args, reply, cost); });
    case NfsProc::kWrite:
      return Serve<WriteArgsView>(
          call, [&](const WriteArgsView& args) { HandleWrite(args, reply, cost); });
    case NfsProc::kCommit:
      return Serve<CommitArgs>(
          call, [&](const CommitArgs& args) { HandleCommit(args, reply, cost); });
    case NfsProc::kGetattr:
      return Serve<GetattrArgs>(
          call, [&](const GetattrArgs& args) { HandleGetattr(args, reply, cost); });
    case NfsProc::kSetattr:
      return Serve<SetattrArgs>(
          call, [&](const SetattrArgs& args) { HandleSetattr(args, reply, cost); });
    case NfsProc::kRemove:
      return Serve<DirOpArgs>(call,
                              [&](const DirOpArgs& args) { HandleRemove(args, reply, cost); });
    case NfsProc::kFsstat:
      HandleFsstat(reply, cost);
      return RpcAcceptStat::kSuccess;
    default:
      return RpcAcceptStat::kProcUnavail;
  }
}

void StorageNode::OnRestart() {
  // Unstable data did not survive the crash; a new verifier tells clients to
  // re-send uncommitted writes (NFSv3 commit semantics).
  store_.CrashDiscardDirty();
  cache_.Clear();
  next_offset_.Clear();
  pending_ready_.Clear();
  // Queued disk I/O and accrued metadata debt died with the node: without
  // these resets a restarted node kept servicing its pre-crash arm backlog
  // (phantom wait time for post-restart requests) and carried fractional
  // metadata debt across the crash.
  disks_.ClearBacklog();
  meta_debt_ = 0.0;
  write_verifier_ = rng_.NextU64();
  SLICE_ILOG << "storage node " << AddrToString(addr()) << " restarted, new verifier";
  // Committed objects survive on disk; clients learn from the fresh
  // verifier that unstable writes must be re-sent.
  obs::LogEvent(eventlog(), addr(), queue().now(), obs::EventSev::kInfo,
                obs::EventCat::kFailover, obs::EventCode::kNodeRecover, /*trace_id=*/0,
                "verifier_reset", {{"objects", static_cast<int64_t>(store_.object_count())}});
}

}  // namespace slice
