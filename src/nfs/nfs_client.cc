#include "src/nfs/nfs_client.h"

namespace slice {

NfsClient::NfsClient(Host& host, EventQueue& queue, Endpoint server, RpcClientParams rpc_params,
                     const obs::Sinks& sinks)
    : rpc_(host, queue, rpc_params, sinks), server_(server) {}

void NfsClient::Null(std::function<void(Status)> cb) {
  rpc_.Call(server_, kNfsProgram, kNfsVersion, static_cast<uint32_t>(NfsProc::kNull),
            ByteSpan{}, [cb = std::move(cb)](Status st, const RpcMessageView&) { cb(st); });
}

void NfsClient::Getattr(const FileHandle& object, Callback<GetattrRes> cb) {
  CallNfs<GetattrRes>(rpc_, server_, NfsProc::kGetattr, GetattrArgs{object}, std::move(cb));
}

void NfsClient::Setattr(const SetattrArgs& args, Callback<SetattrRes> cb) {
  CallNfs<SetattrRes>(rpc_, server_, NfsProc::kSetattr, args, std::move(cb));
}

void NfsClient::Lookup(const FileHandle& dir, const std::string& name, Callback<LookupRes> cb) {
  CallNfs<LookupRes>(rpc_, server_, NfsProc::kLookup, DirOpArgs{dir, name}, std::move(cb));
}

void NfsClient::Access(const FileHandle& object, uint32_t access, Callback<AccessRes> cb) {
  CallNfs<AccessRes>(rpc_, server_, NfsProc::kAccess, AccessArgs{object, access}, std::move(cb));
}

void NfsClient::Readlink(const FileHandle& link, Callback<ReadlinkRes> cb) {
  CallNfs<ReadlinkRes>(rpc_, server_, NfsProc::kReadlink, GetattrArgs{link}, std::move(cb));
}

void NfsClient::Read(const FileHandle& file, uint64_t offset, uint32_t count,
                     Callback<ReadResView> cb) {
  CallNfs<ReadResView>(rpc_, server_, NfsProc::kRead, ReadArgs{file, offset, count}, std::move(cb));
}

void NfsClient::Write(const FileHandle& file, uint64_t offset, ByteSpan data, StableHow stable,
                      Callback<WriteRes> cb) {
  const WriteArgsView args{file, offset, static_cast<uint32_t>(data.size()), stable, data};
  CallNfs<WriteRes>(rpc_, server_, NfsProc::kWrite, args, std::move(cb));
}

void NfsClient::Create(const FileHandle& dir, const std::string& name, Callback<CreateRes> cb) {
  CreateArgs args;
  args.dir = dir;
  args.name = name;
  CallNfs<CreateRes>(rpc_, server_, NfsProc::kCreate, args, std::move(cb));
}

void NfsClient::Mkdir(const FileHandle& dir, const std::string& name, Callback<CreateRes> cb) {
  MkdirArgs args;
  args.dir = dir;
  args.name = name;
  CallNfs<CreateRes>(rpc_, server_, NfsProc::kMkdir, args, std::move(cb));
}

void NfsClient::Symlink(const FileHandle& dir, const std::string& name,
                        const std::string& target, Callback<CreateRes> cb) {
  SymlinkArgs args;
  args.dir = dir;
  args.name = name;
  args.target = target;
  CallNfs<CreateRes>(rpc_, server_, NfsProc::kSymlink, args, std::move(cb));
}

void NfsClient::Remove(const FileHandle& dir, const std::string& name, Callback<RemoveRes> cb) {
  CallNfs<RemoveRes>(rpc_, server_, NfsProc::kRemove, DirOpArgs{dir, name}, std::move(cb));
}

void NfsClient::Rmdir(const FileHandle& dir, const std::string& name, Callback<RemoveRes> cb) {
  CallNfs<RemoveRes>(rpc_, server_, NfsProc::kRmdir, DirOpArgs{dir, name}, std::move(cb));
}

void NfsClient::Rename(const FileHandle& from_dir, const std::string& from_name,
                       const FileHandle& to_dir, const std::string& to_name,
                       Callback<RenameRes> cb) {
  CallNfs<RenameRes>(rpc_, server_, NfsProc::kRename,
                     RenameArgs{from_dir, from_name, to_dir, to_name}, std::move(cb));
}

void NfsClient::Link(const FileHandle& file, const FileHandle& dir, const std::string& name,
                     Callback<LinkRes> cb) {
  CallNfs<LinkRes>(rpc_, server_, NfsProc::kLink, LinkArgs{file, dir, name}, std::move(cb));
}

void NfsClient::Readdir(const FileHandle& dir, uint64_t cookie, uint32_t count,
                        Callback<ReaddirRes> cb) {
  ReaddirArgs args;
  args.dir = dir;
  args.cookie = cookie;
  args.count = count;
  CallNfs<ReaddirRes>(rpc_, server_, NfsProc::kReaddir, args, std::move(cb));
}

void NfsClient::Readdirplus(const FileHandle& dir, uint64_t cookie, uint32_t count,
                            Callback<ReaddirRes> cb) {
  ReaddirArgs args;
  args.dir = dir;
  args.cookie = cookie;
  args.count = count;
  args.plus = true;
  CallNfs<ReaddirRes>(rpc_, server_, NfsProc::kReaddirplus, args, std::move(cb));
}

void NfsClient::Fsstat(const FileHandle& root, Callback<FsstatRes> cb) {
  CallNfs<FsstatRes>(rpc_, server_, NfsProc::kFsstat, GetattrArgs{root}, std::move(cb));
}

void NfsClient::Fsinfo(const FileHandle& root, Callback<FsinfoRes> cb) {
  CallNfs<FsinfoRes>(rpc_, server_, NfsProc::kFsinfo, GetattrArgs{root}, std::move(cb));
}

void NfsClient::Commit(const FileHandle& file, uint64_t offset, uint32_t count,
                       Callback<CommitRes> cb) {
  CallNfs<CommitRes>(rpc_, server_, NfsProc::kCommit, CommitArgs{file, offset, count},
                     std::move(cb));
}

// --- SyncNfsClient ---

template <typename Res>
Result<Res> SyncNfsClient::Wait(std::function<void(NfsClient::Callback<Res>)> issue) {
  bool done = false;
  Status status;
  Res result{};
  issue([&](Status st, const Res& res) {
    done = true;
    status = st;
    result = res;
  });
  while (!done && queue_.RunOne()) {
  }
  if (!done) {
    return Status(StatusCode::kInternal, "sync nfs: event queue drained without reply");
  }
  if (!status.ok()) {
    return status;
  }
  return result;
}

Result<Fattr3> SyncNfsClient::Getattr(const FileHandle& object) {
  SLICE_ASSIGN_OR_RETURN(
      GetattrRes res, (Wait<GetattrRes>([&](NfsClient::Callback<GetattrRes> cb) {
        client_.Getattr(object, std::move(cb));
      })));
  if (res.status != Nfsstat3::kOk) {
    return Status(StatusCode::kInternal,
                  "getattr: nfsstat=" + std::to_string(static_cast<uint32_t>(res.status)));
  }
  return res.attributes;
}

Result<SetattrRes> SyncNfsClient::Setattr(const SetattrArgs& args) {
  return Wait<SetattrRes>(
      [&](NfsClient::Callback<SetattrRes> cb) { client_.Setattr(args, std::move(cb)); });
}

Result<LookupRes> SyncNfsClient::Lookup(const FileHandle& dir, const std::string& name) {
  return Wait<LookupRes>(
      [&](NfsClient::Callback<LookupRes> cb) { client_.Lookup(dir, name, std::move(cb)); });
}

Result<AccessRes> SyncNfsClient::Access(const FileHandle& object, uint32_t access) {
  return Wait<AccessRes>([&](NfsClient::Callback<AccessRes> cb) {
    client_.Access(object, access, std::move(cb));
  });
}

Result<ReadRes> SyncNfsClient::Read(const FileHandle& file, uint64_t offset, uint32_t count) {
  // The reply decodes straight into owned data.
  return Wait<ReadRes>([&](NfsClient::Callback<ReadRes> cb) {
    CallNfs<ReadRes>(client_.rpc(), client_.server(), NfsProc::kRead,
                     ReadArgs{file, offset, count}, std::move(cb));
  });
}

Result<WriteRes> SyncNfsClient::Write(const FileHandle& file, uint64_t offset, ByteSpan data,
                                      StableHow stable) {
  return Wait<WriteRes>([&](NfsClient::Callback<WriteRes> cb) {
    client_.Write(file, offset, data, stable, std::move(cb));
  });
}

Result<CreateRes> SyncNfsClient::Create(const FileHandle& dir, const std::string& name) {
  return Wait<CreateRes>(
      [&](NfsClient::Callback<CreateRes> cb) { client_.Create(dir, name, std::move(cb)); });
}

Result<CreateRes> SyncNfsClient::Mkdir(const FileHandle& dir, const std::string& name) {
  return Wait<CreateRes>(
      [&](NfsClient::Callback<CreateRes> cb) { client_.Mkdir(dir, name, std::move(cb)); });
}

Result<CreateRes> SyncNfsClient::Symlink(const FileHandle& dir, const std::string& name,
                                         const std::string& target) {
  return Wait<CreateRes>([&](NfsClient::Callback<CreateRes> cb) {
    client_.Symlink(dir, name, target, std::move(cb));
  });
}

Result<ReadlinkRes> SyncNfsClient::Readlink(const FileHandle& link) {
  return Wait<ReadlinkRes>(
      [&](NfsClient::Callback<ReadlinkRes> cb) { client_.Readlink(link, std::move(cb)); });
}

Result<RemoveRes> SyncNfsClient::Remove(const FileHandle& dir, const std::string& name) {
  return Wait<RemoveRes>(
      [&](NfsClient::Callback<RemoveRes> cb) { client_.Remove(dir, name, std::move(cb)); });
}

Result<RemoveRes> SyncNfsClient::Rmdir(const FileHandle& dir, const std::string& name) {
  return Wait<RemoveRes>(
      [&](NfsClient::Callback<RemoveRes> cb) { client_.Rmdir(dir, name, std::move(cb)); });
}

Result<RenameRes> SyncNfsClient::Rename(const FileHandle& from_dir, const std::string& from_name,
                                        const FileHandle& to_dir, const std::string& to_name) {
  return Wait<RenameRes>([&](NfsClient::Callback<RenameRes> cb) {
    client_.Rename(from_dir, from_name, to_dir, to_name, std::move(cb));
  });
}

Result<LinkRes> SyncNfsClient::Link(const FileHandle& file, const FileHandle& dir,
                                    const std::string& name) {
  return Wait<LinkRes>(
      [&](NfsClient::Callback<LinkRes> cb) { client_.Link(file, dir, name, std::move(cb)); });
}

Result<ReaddirRes> SyncNfsClient::Readdir(const FileHandle& dir, uint64_t cookie,
                                          uint32_t count) {
  return Wait<ReaddirRes>([&](NfsClient::Callback<ReaddirRes> cb) {
    client_.Readdir(dir, cookie, count, std::move(cb));
  });
}

Result<ReaddirRes> SyncNfsClient::Readdirplus(const FileHandle& dir, uint64_t cookie,
                                              uint32_t count) {
  return Wait<ReaddirRes>([&](NfsClient::Callback<ReaddirRes> cb) {
    client_.Readdirplus(dir, cookie, count, std::move(cb));
  });
}

Result<FsstatRes> SyncNfsClient::Fsstat(const FileHandle& root) {
  return Wait<FsstatRes>(
      [&](NfsClient::Callback<FsstatRes> cb) { client_.Fsstat(root, std::move(cb)); });
}

Result<FsinfoRes> SyncNfsClient::Fsinfo(const FileHandle& root) {
  return Wait<FsinfoRes>(
      [&](NfsClient::Callback<FsinfoRes> cb) { client_.Fsinfo(root, std::move(cb)); });
}

Result<CommitRes> SyncNfsClient::Commit(const FileHandle& file, uint64_t offset,
                                        uint32_t count) {
  return Wait<CommitRes>([&](NfsClient::Callback<CommitRes> cb) {
    client_.Commit(file, offset, count, std::move(cb));
  });
}

Result<std::vector<DirEntry>> SyncNfsClient::ReadWholeDir(const FileHandle& dir) {
  std::vector<DirEntry> all;
  uint64_t cookie = 0;
  while (true) {
    SLICE_ASSIGN_OR_RETURN(ReaddirRes res, Readdir(dir, cookie));
    if (res.status != Nfsstat3::kOk) {
      return Status(StatusCode::kInternal,
                    "readdir: nfsstat=" + std::to_string(static_cast<uint32_t>(res.status)));
    }
    for (const DirEntry& entry : res.entries) {
      cookie = entry.cookie;
      all.push_back(entry);
    }
    if (res.eof || res.entries.empty()) {
      break;
    }
  }
  return all;
}

}  // namespace slice
