// Typed NFSv3 client. Async methods issue RPC calls over the simulated
// network; SyncNfsClient layers a blocking convenience API on top by driving
// the event queue (for tests, examples and simple workloads).
//
// Like SPECsfs, this client speaks NFS directly from "user space" — it does
// not model a kernel client cache, so every operation hits the wire, which
// is exactly what the paper's server-side evaluation wants.
#ifndef SLICE_NFS_NFS_CLIENT_H_
#define SLICE_NFS_NFS_CLIENT_H_

#include <functional>
#include <memory>

#include "src/nfs/nfs_xdr.h"
#include "src/rpc/rpc_client.h"

namespace slice {

// The one typed NFS call: CallTyped (src/rpc/rpc_client.h) for NFSv3
// procedure `proc`. NfsClient calls it for its fixed server; the µproxy
// calls it on its own RpcClient for each target of a fan-out.
template <typename Res, typename Args, typename Cb>
void CallNfs(RpcClient& rpc, Endpoint server, NfsProc proc, const Args& args, Cb cb) {
  CallTyped<Res>(rpc, server, kNfsProgram, kNfsVersion, static_cast<uint32_t>(proc), args,
                 std::move(cb));
}

class NfsClient {
 public:
  // 40 inline bytes hold a caller's lambda of a few pointers and counters;
  // CallTyped's wrapper around one fits the ResponseHandler inline.
  template <typename Res>
  using Callback = InlineFunction<void(Status, const Res&), 40>;

  // `server` is the (possibly virtual) NFS service endpoint. The mount-style
  // root file handle is obtained out of band via the volume configuration.
  // `sinks` go to the underlying RpcClient.
  NfsClient(Host& host, EventQueue& queue, Endpoint server, RpcClientParams rpc_params = {},
            const obs::Sinks& sinks = {});

  void Null(std::function<void(Status)> cb);
  void Getattr(const FileHandle& object, Callback<GetattrRes> cb);
  void Setattr(const SetattrArgs& args, Callback<SetattrRes> cb);
  void Lookup(const FileHandle& dir, const std::string& name, Callback<LookupRes> cb);
  void Access(const FileHandle& object, uint32_t access, Callback<AccessRes> cb);
  void Readlink(const FileHandle& link, Callback<ReadlinkRes> cb);
  // The callback's data views the reply packet and is valid only while the
  // callback runs; a caller that keeps the bytes copies them.
  void Read(const FileHandle& file, uint64_t offset, uint32_t count, Callback<ReadResView> cb);
  // `data` is encoded into the call before Write returns; the caller may
  // reuse its buffer at once.
  void Write(const FileHandle& file, uint64_t offset, ByteSpan data, StableHow stable,
             Callback<WriteRes> cb);
  void Create(const FileHandle& dir, const std::string& name, Callback<CreateRes> cb);
  void Mkdir(const FileHandle& dir, const std::string& name, Callback<CreateRes> cb);
  void Symlink(const FileHandle& dir, const std::string& name, const std::string& target,
               Callback<CreateRes> cb);
  void Remove(const FileHandle& dir, const std::string& name, Callback<RemoveRes> cb);
  void Rmdir(const FileHandle& dir, const std::string& name, Callback<RemoveRes> cb);
  void Rename(const FileHandle& from_dir, const std::string& from_name,
              const FileHandle& to_dir, const std::string& to_name, Callback<RenameRes> cb);
  void Link(const FileHandle& file, const FileHandle& dir, const std::string& name,
            Callback<LinkRes> cb);
  void Readdir(const FileHandle& dir, uint64_t cookie, uint32_t count, Callback<ReaddirRes> cb);
  void Readdirplus(const FileHandle& dir, uint64_t cookie, uint32_t count,
                   Callback<ReaddirRes> cb);
  void Fsstat(const FileHandle& root, Callback<FsstatRes> cb);
  void Fsinfo(const FileHandle& root, Callback<FsinfoRes> cb);
  void Commit(const FileHandle& file, uint64_t offset, uint32_t count, Callback<CommitRes> cb);

  Endpoint server() const { return server_; }
  RpcClient& rpc() { return rpc_; }

 private:
  RpcClient rpc_;
  Endpoint server_;
};

// Blocking facade over NfsClient: each method drives the event queue until
// the reply arrives. Only valid when the caller owns the event loop.
class SyncNfsClient {
 public:
  SyncNfsClient(Host& host, EventQueue& queue, Endpoint server)
      : queue_(queue), client_(host, queue, server) {}

  Result<Fattr3> Getattr(const FileHandle& object);
  Result<SetattrRes> Setattr(const SetattrArgs& args);
  Result<LookupRes> Lookup(const FileHandle& dir, const std::string& name);
  Result<AccessRes> Access(const FileHandle& object, uint32_t access = 0x3f);
  Result<ReadRes> Read(const FileHandle& file, uint64_t offset, uint32_t count);
  Result<WriteRes> Write(const FileHandle& file, uint64_t offset, ByteSpan data,
                         StableHow stable = StableHow::kUnstable);
  Result<CreateRes> Create(const FileHandle& dir, const std::string& name);
  Result<CreateRes> Mkdir(const FileHandle& dir, const std::string& name);
  Result<CreateRes> Symlink(const FileHandle& dir, const std::string& name,
                            const std::string& target);
  Result<ReadlinkRes> Readlink(const FileHandle& link);
  Result<RemoveRes> Remove(const FileHandle& dir, const std::string& name);
  Result<RemoveRes> Rmdir(const FileHandle& dir, const std::string& name);
  Result<RenameRes> Rename(const FileHandle& from_dir, const std::string& from_name,
                           const FileHandle& to_dir, const std::string& to_name);
  Result<LinkRes> Link(const FileHandle& file, const FileHandle& dir, const std::string& name);
  Result<ReaddirRes> Readdir(const FileHandle& dir, uint64_t cookie = 0, uint32_t count = 4096);
  Result<ReaddirRes> Readdirplus(const FileHandle& dir, uint64_t cookie = 0,
                                 uint32_t count = 8192);
  Result<FsstatRes> Fsstat(const FileHandle& root);
  Result<FsinfoRes> Fsinfo(const FileHandle& root);
  Result<CommitRes> Commit(const FileHandle& file, uint64_t offset = 0, uint32_t count = 0);

  // Reads all entries of a directory, following cookies.
  Result<std::vector<DirEntry>> ReadWholeDir(const FileHandle& dir);

  NfsClient& async() { return client_; }

 private:
  template <typename Res>
  Result<Res> Wait(std::function<void(NfsClient::Callback<Res>)> issue);

  EventQueue& queue_;
  NfsClient client_;
};

}  // namespace slice

#endif  // SLICE_NFS_NFS_CLIENT_H_
