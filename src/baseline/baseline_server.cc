#include "src/baseline/baseline_server.h"

#include <algorithm>

namespace slice {

BaselineServer::BaselineServer(Network& net, EventQueue& queue, NetAddr addr,
                               BaselineServerParams params)
    : RpcServerNode(net, queue, addr, kNfsPort, kNfsProgram, kNfsVersion),
      params_(params),
      data_(params.capacity_bytes),
      cache_(params.cache_bytes),
      disks_(params.num_disks, params.disk, params.channel_mb_per_s),
      write_verifier_(Fnv1a64(std::string_view("baseline")) ^ addr) {
  attrs_[kRootBaselineFileid] = NewAttr(kRootBaselineFileid, FileType3::kDir);
  // Sized for the largest READ, so serving one never grows them.
  read_segments_.reserve(MaxGatherPieces(kNfsMaxData));
  read_pages_.reserve(MaxGatherPieces(kNfsMaxData));
}

FileHandle BaselineServer::RootHandle() const {
  return MintHandle(kRootBaselineFileid, FileType3::kDir);
}

NfsTime BaselineServer::Now() const {
  return NfsTime{static_cast<uint32_t>(now() / kNanosPerSec),
                 static_cast<uint32_t>(now() % kNanosPerSec)};
}

FileHandle BaselineServer::MintHandle(uint64_t fileid, FileType3 type) const {
  return FileHandle::Make(params_.volume, fileid, 1, type, 1, params_.volume_secret);
}

Fattr3* BaselineServer::FindAttr(uint64_t fileid) {
  auto it = attrs_.find(fileid);
  return it == attrs_.end() ? nullptr : &it->second;
}

Fattr3 BaselineServer::NewAttr(uint64_t fileid, FileType3 type) const {
  Fattr3 attr;
  attr.type = type;
  attr.mode = type == FileType3::kDir ? 0755 : 0644;
  attr.nlink = type == FileType3::kDir ? 2 : 1;
  attr.fsid = params_.volume;
  attr.fileid = fileid;
  attr.atime = attr.mtime = attr.ctime = Now();
  return attr;
}

void BaselineServer::TouchDir(uint64_t dir_id, int entry_delta, int nlink_delta) {
  Fattr3* attr = FindAttr(dir_id);
  if (attr == nullptr) {
    return;
  }
  attr->mtime = attr->ctime = Now();
  attr->size = static_cast<uint64_t>(
      std::max<int64_t>(0, static_cast<int64_t>(attr->size) + entry_delta));
  attr->nlink = static_cast<uint32_t>(
      std::max<int64_t>(1, static_cast<int64_t>(attr->nlink) + nlink_delta));
}

void BaselineServer::ChargeDisk(const std::vector<PhysBlock>& blocks, bool write,
                                ServiceCost& cost) {
  if (params_.memory_backed) {
    return;  // MFS: RAM only
  }
  for (PhysBlock block : blocks) {
    if (!write && cache_.Access(block)) {
      continue;
    }
    if (write) {
      cache_.Insert(block);
    }
    const size_t disk = block % disks_.num_disks();
    const uint64_t pos = (block / disks_.num_disks()) * kStoreBlockSize;
    cost.MergeCompletion(disks_.SubmitIo(now(), disk, pos, kStoreBlockSize));
    meta_debt_ += params_.extra_meta_ios;
    while (meta_debt_ >= 1.0) {
      meta_debt_ -= 1.0;
      const size_t mdisk = rng_.NextBelow(disks_.num_disks());
      const uint64_t mpos = rng_.NextBelow(data_.capacity_blocks()) * kStoreBlockSize;
      cost.MergeCompletion(disks_.SubmitIo(now(), mdisk, mpos, kStoreBlockSize));
    }
  }
}

void BaselineServer::DoGetattr(const GetattrArgs& args, XdrEncoder& reply) {
  GetattrRes res;
  Fattr3* attr = FindAttr(args.object.fileid());
  if (attr == nullptr) {
    res.status = Nfsstat3::kErrStale;
  } else {
    res.attributes = *attr;
  }
  res.Encode(reply);
}

void BaselineServer::DoSetattr(const SetattrArgs& args, XdrEncoder& reply) {
  SetattrRes res;
  Fattr3* attr = FindAttr(args.object.fileid());
  if (attr == nullptr) {
    res.status = Nfsstat3::kErrStale;
    res.Encode(reply);
    return;
  }
  const Sattr3& set = args.new_attributes;
  if (set.mode) {
    attr->mode = *set.mode;
  }
  if (set.size) {
    attr->size = *set.size;
    (void)data_.Truncate(args.object.fileid(), *set.size);
  }
  if (set.mtime) {
    attr->mtime = *set.mtime;
  }
  if (set.atime) {
    attr->atime = *set.atime;
  }
  attr->ctime = Now();
  res.wcc.after = *attr;
  res.Encode(reply);
}

void BaselineServer::DoLookup(const DirOpArgs& args, XdrEncoder& reply) {
  LookupRes res;
  if (Fattr3* dir_attr = FindAttr(args.dir.fileid()); dir_attr != nullptr) {
    res.dir_attributes = *dir_attr;
  }
  const auto it = entries_.find(EntryKey{args.dir.fileid(), args.name});
  if (it == entries_.end()) {
    res.status = Nfsstat3::kErrNoent;
  } else {
    res.object = it->second;
    if (Fattr3* attr = FindAttr(it->second.fileid()); attr != nullptr) {
      res.obj_attributes = *attr;
    }
  }
  res.Encode(reply);
}

void BaselineServer::DoAccess(const AccessArgs& args, XdrEncoder& reply) {
  AccessRes res;
  Fattr3* attr = FindAttr(args.object.fileid());
  if (attr == nullptr) {
    res.status = Nfsstat3::kErrStale;
  } else {
    res.obj_attributes = *attr;
    res.access = args.access;
  }
  res.Encode(reply);
}

void BaselineServer::DoReadlink(const GetattrArgs& args, XdrEncoder& reply) {
  ReadlinkRes res;
  const auto it = symlinks_.find(args.object.fileid());
  if (it == symlinks_.end()) {
    res.status = Nfsstat3::kErrInval;
  } else {
    res.target = it->second;
    if (Fattr3* attr = FindAttr(args.object.fileid()); attr != nullptr) {
      res.symlink_attributes = *attr;
    }
  }
  res.Encode(reply);
}

void BaselineServer::DoRead(const ReadArgs& args, XdrEncoder& reply, ServiceCost& cost) {
  ReadResPieces res;
  Fattr3* attr = FindAttr(args.file.fileid());
  if (attr == nullptr) {
    res.status = Nfsstat3::kErrStale;
    res.Encode(reply);
    return;
  }
  read_segments_.clear();
  read_pages_.clear();
  io_blocks_.clear();
  // Past kNfsMaxData (ReadRes's decode bound), the reply is a short read.
  const auto count = static_cast<uint32_t>(std::min<size_t>(args.count, kNfsMaxData));
  const StoreReadExtent read = data_.ReadGather(args.file.fileid(), args.offset, count,
                                                &read_segments_, &read_pages_, &io_blocks_);
  ChargeDisk(io_blocks_, /*write=*/false, cost);
  cost.AddCpu(static_cast<SimTime>(static_cast<double>(read.length) * params_.cpu_ns_per_byte));
  attr->atime = Now();
  res.file_attributes = *attr;
  res.count = read.length;
  // eof reflects the attribute size (data_ may be sparse/short).
  res.eof = args.offset + res.count >= attr->size;
  res.data = read_segments_;
  res.Encode(reply);
  PinReplyData(data_.pages(), read_segments_, read_pages_);
}

void BaselineServer::DoWrite(const WriteArgsView& args, XdrEncoder& reply, ServiceCost& cost) {
  WriteRes res;
  Fattr3* attr = FindAttr(args.file.fileid());
  if (attr == nullptr) {
    res.status = Nfsstat3::kErrStale;
    res.Encode(reply);
    return;
  }
  const bool stable = args.stable != StableHow::kUnstable;
  io_blocks_.clear();
  if (!data_.Write(args.file.fileid(), args.offset, args.data, stable, &io_blocks_).ok()) {
    res.status = Nfsstat3::kErrNospc;
    res.Encode(reply);
    return;
  }
  if (stable) {
    ChargeDisk(io_blocks_, /*write=*/true, cost);
  }
  cost.AddCpu(static_cast<SimTime>(static_cast<double>(args.data.size()) *
                                   params_.cpu_ns_per_byte));
  attr->size = std::max<uint64_t>(attr->size, args.offset + args.data.size());
  attr->mtime = attr->ctime = Now();
  res.count = static_cast<uint32_t>(args.data.size());
  res.committed = stable ? StableHow::kFileSync : StableHow::kUnstable;
  res.verf = write_verifier_;
  res.wcc.after = *attr;
  res.Encode(reply);
}

void BaselineServer::DoCreate(const CreateArgs& args, XdrEncoder& reply) {
  CreateRes res;
  if (FindAttr(args.dir.fileid()) == nullptr) {
    res.status = Nfsstat3::kErrStale;
    res.Encode(reply);
    return;
  }
  const EntryKey key{args.dir.fileid(), args.name};
  if (const auto it = entries_.find(key); it != entries_.end()) {
    if (args.mode == CreateMode::kUnchecked) {
      res.object = it->second;
      if (Fattr3* attr = FindAttr(it->second.fileid()); attr != nullptr) {
        res.obj_attributes = *attr;
      }
    } else {
      res.status = Nfsstat3::kErrExist;
    }
    res.Encode(reply);
    return;
  }
  const uint64_t fileid = next_fileid_++;
  const FileHandle fh = MintHandle(fileid, FileType3::kReg);
  attrs_[fileid] = NewAttr(fileid, FileType3::kReg);
  entries_[key] = fh;
  dir_entries_[args.dir.fileid()][args.name] = fh;
  TouchDir(args.dir.fileid(), +1, 0);
  res.object = fh;
  res.obj_attributes = attrs_[fileid];
  res.Encode(reply);
}

void BaselineServer::DoMkdir(const MkdirArgs& args, XdrEncoder& reply) {
  CreateRes res;
  if (FindAttr(args.dir.fileid()) == nullptr) {
    res.status = Nfsstat3::kErrStale;
    res.Encode(reply);
    return;
  }
  const EntryKey key{args.dir.fileid(), args.name};
  if (entries_.contains(key)) {
    res.status = Nfsstat3::kErrExist;
    res.Encode(reply);
    return;
  }
  const uint64_t fileid = next_fileid_++;
  const FileHandle fh = MintHandle(fileid, FileType3::kDir);
  attrs_[fileid] = NewAttr(fileid, FileType3::kDir);
  entries_[key] = fh;
  dir_entries_[args.dir.fileid()][args.name] = fh;
  TouchDir(args.dir.fileid(), +1, +1);
  res.object = fh;
  res.obj_attributes = attrs_[fileid];
  res.Encode(reply);
}

void BaselineServer::DoSymlink(const SymlinkArgs& args, XdrEncoder& reply) {
  CreateRes res;
  if (FindAttr(args.dir.fileid()) == nullptr) {
    res.status = Nfsstat3::kErrStale;
    res.Encode(reply);
    return;
  }
  const EntryKey key{args.dir.fileid(), args.name};
  if (entries_.contains(key)) {
    res.status = Nfsstat3::kErrExist;
    res.Encode(reply);
    return;
  }
  const uint64_t fileid = next_fileid_++;
  const FileHandle fh = MintHandle(fileid, FileType3::kLnk);
  Fattr3 attr = NewAttr(fileid, FileType3::kLnk);
  attr.size = args.target.size();
  attrs_[fileid] = attr;
  symlinks_[fileid] = args.target;
  entries_[key] = fh;
  dir_entries_[args.dir.fileid()][args.name] = fh;
  TouchDir(args.dir.fileid(), +1, 0);
  res.object = fh;
  res.obj_attributes = attr;
  res.Encode(reply);
}

void BaselineServer::DoRemove(const DirOpArgs& args, bool rmdir, XdrEncoder& reply) {
  RemoveRes res;
  const EntryKey key{args.dir.fileid(), args.name};
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    res.status = Nfsstat3::kErrNoent;
    res.Encode(reply);
    return;
  }
  const FileHandle child = it->second;
  if (rmdir != child.IsDir()) {
    res.status = rmdir ? Nfsstat3::kErrNotdir : Nfsstat3::kErrIsdir;
    res.Encode(reply);
    return;
  }
  if (rmdir) {
    const auto dit = dir_entries_.find(child.fileid());
    if (dit != dir_entries_.end() && !dit->second.empty()) {
      res.status = Nfsstat3::kErrNotempty;
      res.Encode(reply);
      return;
    }
    dir_entries_.erase(child.fileid());
    attrs_.erase(child.fileid());
    TouchDir(args.dir.fileid(), -1, -1);
  } else {
    Fattr3* attr = FindAttr(child.fileid());
    if (attr != nullptr && --attr->nlink == 0) {
      attrs_.erase(child.fileid());
      symlinks_.erase(child.fileid());
      (void)data_.Remove(child.fileid());
    }
    TouchDir(args.dir.fileid(), -1, 0);
  }
  entries_.erase(it);
  auto dir_it = dir_entries_.find(args.dir.fileid());
  if (dir_it != dir_entries_.end()) {
    dir_it->second.erase(args.name);
  }
  if (Fattr3* dir_attr = FindAttr(args.dir.fileid()); dir_attr != nullptr) {
    res.dir_wcc.after = *dir_attr;
  }
  res.Encode(reply);
}

void BaselineServer::DoRename(const RenameArgs& args, XdrEncoder& reply) {
  RenameRes res;
  const EntryKey from_key{args.from_dir.fileid(), args.from_name};
  const auto it = entries_.find(from_key);
  if (it == entries_.end()) {
    res.status = Nfsstat3::kErrNoent;
    res.Encode(reply);
    return;
  }
  const FileHandle child = it->second;
  const EntryKey to_key{args.to_dir.fileid(), args.to_name};
  if (const auto target = entries_.find(to_key); target != entries_.end()) {
    if (target->second.IsDir()) {
      const auto dit = dir_entries_.find(target->second.fileid());
      if (dit != dir_entries_.end() && !dit->second.empty()) {
        res.status = Nfsstat3::kErrNotempty;
        res.Encode(reply);
        return;
      }
      attrs_.erase(target->second.fileid());
    } else if (Fattr3* attr = FindAttr(target->second.fileid());
               attr != nullptr && --attr->nlink == 0) {
      attrs_.erase(target->second.fileid());
      (void)data_.Remove(target->second.fileid());
    }
    entries_.erase(target);
    dir_entries_[args.to_dir.fileid()].erase(args.to_name);
  }
  entries_.erase(from_key);
  dir_entries_[args.from_dir.fileid()].erase(args.from_name);
  entries_[to_key] = child;
  dir_entries_[args.to_dir.fileid()][args.to_name] = child;
  const bool cross = args.from_dir.fileid() != args.to_dir.fileid();
  TouchDir(args.from_dir.fileid(), -1, child.IsDir() && cross ? -1 : 0);
  TouchDir(args.to_dir.fileid(), +1, child.IsDir() && cross ? +1 : 0);
  res.Encode(reply);
}

void BaselineServer::DoLink(const LinkArgs& args, XdrEncoder& reply) {
  LinkRes res;
  if (FindAttr(args.file.fileid()) == nullptr) {
    res.status = Nfsstat3::kErrStale;
    res.Encode(reply);
    return;
  }
  const EntryKey key{args.dir.fileid(), args.name};
  if (entries_.contains(key)) {
    res.status = Nfsstat3::kErrExist;
    res.Encode(reply);
    return;
  }
  entries_[key] = args.file;
  dir_entries_[args.dir.fileid()][args.name] = args.file;
  Fattr3* attr = FindAttr(args.file.fileid());
  ++attr->nlink;
  TouchDir(args.dir.fileid(), +1, 0);
  res.file_attributes = *attr;
  res.Encode(reply);
}

void BaselineServer::DoReaddir(const ReaddirArgs& args, XdrEncoder& reply) {
  const bool plus = args.plus;
  ReaddirRes res;
  res.plus = plus;
  if (Fattr3* attr = FindAttr(args.dir.fileid()); attr != nullptr) {
    res.dir_attributes = *attr;
  }
  const auto dit = dir_entries_.find(args.dir.fileid());
  res.eof = true;
  res.cookieverf = 1;
  if (dit != dir_entries_.end()) {
    const uint32_t budget = std::max<uint32_t>(plus ? args.maxcount : args.count, 512);
    uint32_t used = 0;
    uint64_t index = 0;
    for (const auto& [name, fh] : dit->second) {
      ++index;
      if (index <= args.cookie) {
        continue;
      }
      const uint32_t entry_size = static_cast<uint32_t>(24 + name.size()) +
                                  (plus ? kFattr3WireSize + FileHandle::kSize + 12 : 0);
      if (used + entry_size > budget) {
        res.eof = false;
        break;
      }
      used += entry_size;
      DirEntry entry;
      entry.fileid = fh.fileid();
      entry.name = name;
      entry.cookie = index;
      if (plus) {
        entry.handle = fh;
        if (Fattr3* attr = FindAttr(fh.fileid()); attr != nullptr) {
          entry.attr = *attr;
        }
      }
      res.entries.push_back(std::move(entry));
    }
  }
  res.Encode(reply);
}

void BaselineServer::DoCommit(const CommitArgs& args, XdrEncoder& reply, ServiceCost& cost) {
  CommitRes res;
  io_blocks_.clear();
  if (!data_.Commit(args.file.fileid(), &io_blocks_).ok()) {
    // Out of space: the unplaced blocks stay dirty, so the data is not
    // durable yet.
    res.status = Nfsstat3::kErrNospc;
  }
  ChargeDisk(io_blocks_, /*write=*/true, cost);
  res.verf = write_verifier_;
  if (Fattr3* attr = FindAttr(args.file.fileid()); attr != nullptr) {
    res.wcc.after = *attr;
  }
  res.Encode(reply);
}

RpcAcceptStat BaselineServer::HandleCall(const RpcMessageView& call, XdrEncoder& reply,
                                         ServiceCost& cost) {
  const NfsProc proc = static_cast<NfsProc>(call.proc);
  const bool is_io =
      proc == NfsProc::kRead || proc == NfsProc::kWrite || proc == NfsProc::kCommit;
  cost.AddCpu(FromMicros(is_io ? params_.io_op_cpu_us : params_.name_op_cpu_us));

  switch (proc) {
    case NfsProc::kNull:
      return RpcAcceptStat::kSuccess;
    case NfsProc::kGetattr:
      return Serve<GetattrArgs>(call, [&](const GetattrArgs& args) { DoGetattr(args, reply); });
    case NfsProc::kSetattr:
      return Serve<SetattrArgs>(call, [&](const SetattrArgs& args) { DoSetattr(args, reply); });
    case NfsProc::kLookup:
      return Serve<DirOpArgs>(call, [&](const DirOpArgs& args) { DoLookup(args, reply); });
    case NfsProc::kAccess:
      return Serve<AccessArgs>(call, [&](const AccessArgs& args) { DoAccess(args, reply); });
    case NfsProc::kReadlink:
      return Serve<GetattrArgs>(call, [&](const GetattrArgs& args) { DoReadlink(args, reply); });
    case NfsProc::kRead:
      return Serve<ReadArgs>(call, [&](const ReadArgs& args) { DoRead(args, reply, cost); });
    case NfsProc::kWrite:
      return Serve<WriteArgsView>(
          call, [&](const WriteArgsView& args) { DoWrite(args, reply, cost); });
    case NfsProc::kCreate:
      return Serve<CreateArgs>(call, [&](const CreateArgs& args) { DoCreate(args, reply); });
    case NfsProc::kMkdir:
      return Serve<MkdirArgs>(call, [&](const MkdirArgs& args) { DoMkdir(args, reply); });
    case NfsProc::kSymlink:
      return Serve<SymlinkArgs>(call, [&](const SymlinkArgs& args) { DoSymlink(args, reply); });
    case NfsProc::kRemove:
    case NfsProc::kRmdir:
      return Serve<DirOpArgs>(call, [&](const DirOpArgs& args) {
        DoRemove(args, proc == NfsProc::kRmdir, reply);
      });
    case NfsProc::kRename:
      return Serve<RenameArgs>(call, [&](const RenameArgs& args) { DoRename(args, reply); });
    case NfsProc::kLink:
      return Serve<LinkArgs>(call, [&](const LinkArgs& args) { DoLink(args, reply); });
    case NfsProc::kReaddir:
    case NfsProc::kReaddirplus:
      return Serve<ReaddirArgs>(call, [&](const ReaddirArgs& args) { DoReaddir(args, reply); });
    case NfsProc::kCommit:
      return Serve<CommitArgs>(call,
                               [&](const CommitArgs& args) { DoCommit(args, reply, cost); });
    case NfsProc::kFsstat: {
      FsstatRes res;
      res.tbytes = params_.capacity_bytes;
      res.fbytes = res.abytes =
          params_.capacity_bytes - data_.used_blocks() * kStoreBlockSize;
      res.tfiles = 1u << 24;
      res.ffiles = res.afiles = res.tfiles - attrs_.size();
      res.Encode(reply);
      return RpcAcceptStat::kSuccess;
    }
    case NfsProc::kFsinfo: {
      FsinfoRes res;
      if (Fattr3* attr = FindAttr(kRootBaselineFileid); attr != nullptr) {
        res.obj_attributes = *attr;
      }
      res.Encode(reply);
      return RpcAcceptStat::kSuccess;
    }
    default:
      return RpcAcceptStat::kProcUnavail;
  }
}

}  // namespace slice
