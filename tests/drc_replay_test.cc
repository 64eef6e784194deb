// Duplicate-request cache replays of READ replies whose data stays in the
// object store's pages, pinned, instead of being copied into the cache. On
// both servers that serve READs from an ObjectStore (the storage node and the
// baseline NFS server), a retransmitted READ is answered with the exact bytes
// of its first reply, without running the handler again, after its block was
// overwritten, committed over, truncated or removed. A READ that fails keeps
// no pin, and a restart drops every pin.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "src/baseline/baseline_server.h"
#include "src/nfs/nfs_client.h"
#include "src/storage/storage_node.h"

namespace slice {
namespace {

constexpr NetAddr kServerAddr = 0x0a000010;
constexpr NetAddr kClientAddr = 0x0a000001;
constexpr NetAddr kRawAddr = 0x0a000002;
constexpr uint64_t kSecret = 0xfeed;
constexpr uint32_t kReadBytes = 2 * kStoreBlockSize;
// What the raw READs ask for: two pages, short of a multiple of 4, so the
// replies end with XDR padding that a replay must reproduce.
constexpr uint32_t kReadCount = kReadBytes - 3;

Bytes Pattern(size_t n, uint8_t seed) {
  Bytes data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>(seed + i * 13);
  }
  return data;
}

enum class Server { kStorage, kBaseline };

// One server, with an NfsClient for setup and mutations and a raw port that
// sends READ calls with chosen xids.
class PinHarness {
 public:
  explicit PinHarness(Server kind) : net_(queue_, NetworkParams{}), raw_host_(net_, kRawAddr) {
    if (kind == Server::kStorage) {
      StorageNodeParams params;
      params.volume_secret = kSecret;
      params.capacity_bytes = 1 << 26;
      auto node = std::make_unique<StorageNode>(net_, queue_, kServerAddr, params);
      store_ = &node->store();
      node_ = std::move(node);
    } else {
      BaselineServerParams params;
      params.memory_backed = true;
      params.capacity_bytes = 1 << 26;
      auto node = std::make_unique<BaselineServer>(net_, queue_, kServerAddr, params);
      store_ = &node->store();
      root_ = node->RootHandle();
      node_ = std::move(node);
    }
    client_host_ = std::make_unique<Host>(net_, kClientAddr);
    client_ = std::make_unique<SyncNfsClient>(*client_host_, queue_, node_->endpoint());
    file_ = NewFile("f", 1);
    raw_port_ = raw_host_.Bind(0, [this](Packet&& pkt) {
      replies_.emplace_back(pkt.payload().begin(), pkt.payload().end());
    });
  }

  // A file handle the server accepts: minted for the storage node, created
  // in the root directory on the baseline.
  FileHandle NewFile(const std::string& name, uint64_t fileid) {
    if (!root_.has_value()) {
      return FileHandle::Make(1, fileid, 1, FileType3::kReg, 1, kSecret);
    }
    CreateRes created = client_->Create(*root_, name).value();
    EXPECT_EQ(created.status, Nfsstat3::kOk);
    return *created.object;
  }
  void RemoveFile() {
    const RemoveRes removed = root_.has_value() ? client_->Remove(*root_, "f").value()
                                                : client_->Remove(file_, "").value();
    EXPECT_EQ(removed.status, Nfsstat3::kOk);
  }
  void Write(uint64_t offset, const Bytes& data, StableHow how) {
    EXPECT_EQ(client_->Write(file_, offset, data, how).value().status, Nfsstat3::kOk);
  }

  // Sends `call` from the raw port and returns the reply's RPC message.
  Bytes RawCall(const RpcCall& call) {
    const size_t before = replies_.size();
    raw_host_.Send(
        Packet::MakeUdp(Endpoint{kRawAddr, raw_port_}, node_->endpoint(), call.Encode()));
    queue_.RunUntilIdle();
    EXPECT_EQ(replies_.size(), before + 1);
    return replies_.empty() ? Bytes{} : replies_.back();
  }
  Bytes RawRead(uint32_t xid, const FileHandle& file) {
    ReadArgs args;
    args.file = file;
    args.count = kReadCount;
    XdrEncoder body;
    args.Encode(body);
    return RawCall(ReadCall(xid, body.Take()));
  }
  static RpcCall ReadCall(uint32_t xid, Bytes args) {
    RpcCall call;
    call.xid = xid;
    call.prog = kNfsProgram;
    call.vers = kNfsVersion;
    call.proc = static_cast<uint32_t>(NfsProc::kRead);
    call.args = std::move(args);
    return call;
  }

  // References the DRC holds on the store's pages: all references beyond
  // the store's own one per stable and dirty block.
  uint64_t Pins() const {
    return store_->pages().references() - (store_->used_blocks() + store_->dirty_blocks());
  }

  EventQueue queue_;
  Network net_;
  Host raw_host_;
  std::unique_ptr<RpcServerNode> node_;
  const ObjectStore* store_ = nullptr;
  std::optional<FileHandle> root_;
  std::unique_ptr<Host> client_host_;
  std::unique_ptr<SyncNfsClient> client_;
  FileHandle file_;
  NetPort raw_port_ = 0;
  std::vector<Bytes> replies_;
};

std::string ServerName(Server kind) { return kind == Server::kStorage ? "storage" : "baseline"; }

enum class Mutation { kUnstableWrite, kStableWrite, kCommit, kTruncate, kRemove };

class DrcReplayAfterMutationTest
    : public ::testing::TestWithParam<std::tuple<Server, Mutation>> {};

TEST_P(DrcReplayAfterMutationTest, ReplayIsTheFirstReplyAndDoesNotReExecute) {
  const auto [kind, mutation] = GetParam();
  PinHarness h(kind);
  h.Write(0, Pattern(kReadBytes, 1), StableHow::kFileSync);
  if (mutation == Mutation::kUnstableWrite) {
    h.Write(0, Pattern(kReadBytes, 2), StableHow::kUnstable);  // the READ sees the overlay
  }
  constexpr uint32_t kXid = 0x51ce;
  const Bytes first = h.RawRead(kXid, h.file_);
  EXPECT_EQ(h.Pins(), 2u) << "the READ's two pages stay pinned";

  switch (mutation) {
    case Mutation::kUnstableWrite:
      h.Write(100, Bytes(50, 0xee), StableHow::kUnstable);
      break;
    case Mutation::kStableWrite:
      h.Write(100, Bytes(50, 0xee), StableHow::kFileSync);
      break;
    case Mutation::kCommit:
      h.Write(0, Pattern(kReadBytes, 3), StableHow::kUnstable);
      EXPECT_EQ(h.client_->Commit(h.file_).value().status, Nfsstat3::kOk);
      break;
    case Mutation::kTruncate: {
      SetattrArgs args;
      args.object = h.file_;
      args.new_attributes.size = 100;
      EXPECT_EQ(h.client_->Setattr(args).value().status, Nfsstat3::kOk);
      break;
    }
    case Mutation::kRemove:
      h.RemoveFile();
      break;
  }
  // New data elsewhere, which a page freed too early would receive.
  const FileHandle other = h.NewFile("g", 2);
  EXPECT_EQ(h.client_->Write(other, 0, Pattern(4 * kReadBytes, 4), StableHow::kFileSync)
                .value()
                .status,
            Nfsstat3::kOk);

  const uint64_t served = h.node_->requests_served();
  const uint64_t duplicates = h.node_->duplicates_answered();
  EXPECT_EQ(h.RawRead(kXid, h.file_), first);
  EXPECT_EQ(h.node_->requests_served(), served) << "a replay does not run the handler";
  EXPECT_EQ(h.node_->duplicates_answered(), duplicates + 1);
}

std::string MutationName(Mutation mutation) {
  switch (mutation) {
    case Mutation::kUnstableWrite:
      return "unstable_write";
    case Mutation::kStableWrite:
      return "stable_write";
    case Mutation::kCommit:
      return "commit";
    case Mutation::kTruncate:
      return "truncate";
    case Mutation::kRemove:
      return "remove";
  }
  return "";
}

INSTANTIATE_TEST_SUITE_P(
    Servers, DrcReplayAfterMutationTest,
    ::testing::Combine(::testing::Values(Server::kStorage, Server::kBaseline),
                       ::testing::Values(Mutation::kUnstableWrite, Mutation::kStableWrite,
                                         Mutation::kCommit, Mutation::kTruncate,
                                         Mutation::kRemove)),
    [](const ::testing::TestParamInfo<DrcReplayAfterMutationTest::ParamType>& point) {
      return ServerName(std::get<0>(point.param)) + "_" + MutationName(std::get<1>(point.param));
    });

class DrcPinTest : public ::testing::TestWithParam<Server> {};

TEST_P(DrcPinTest, FailedReadsKeepNoPin) {
  PinHarness h(GetParam());
  h.Write(0, Pattern(kReadBytes, 1), StableHow::kFileSync);

  // Args that do not decode: GARBAGE_ARGS, and the handler never runs.
  const Bytes garbage = h.RawCall(PinHarness::ReadCall(1, Bytes(4, 0)));
  Result<RpcMessageView> reply = DecodeRpcMessage(garbage);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->accept_stat, RpcAcceptStat::kGarbageArgs);
  EXPECT_EQ(h.Pins(), 0u);

  // A handle the server rejects: BADHANDLE from the storage node (a forged
  // capability), STALE from the baseline (no such file).
  const FileHandle bad =
      GetParam() == Server::kStorage
          ? FileHandle::Make(1, 1, 1, FileType3::kReg, 1, kSecret + 1)
          : FileHandle::Make(1, 999, 1, FileType3::kReg, 1, 0);
  const Bytes rejected = h.RawRead(2, bad);
  reply = DecodeRpcMessage(rejected);
  ASSERT_TRUE(reply.ok());
  Result<ReadRes> res = DecodeBody<ReadRes>(reply->body, reply->proc);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->status, GetParam() == Server::kStorage ? Nfsstat3::kErrBadhandle
                                                        : Nfsstat3::kErrStale);
  EXPECT_EQ(h.Pins(), 0u);

  // Both are cached all the same: their retransmits replay.
  EXPECT_EQ(h.RawCall(PinHarness::ReadCall(1, Bytes(4, 0))), garbage);
  EXPECT_EQ(h.RawRead(2, bad), rejected);
  EXPECT_EQ(h.node_->duplicates_answered(), 2u);

  h.RawRead(3, h.file_);
  EXPECT_EQ(h.Pins(), 2u) << "a READ that succeeds pins its pages";
}

TEST_P(DrcPinTest, RestartReleasesEveryPin) {
  PinHarness h(GetParam());
  h.Write(0, Pattern(kReadBytes, 1), StableHow::kFileSync);
  h.Write(kReadBytes, Pattern(kReadBytes, 2), StableHow::kUnstable);
  for (uint32_t xid = 1; xid <= 8; ++xid) {
    ReadArgs args;
    args.file = h.file_;
    args.offset = (xid % 2) * kReadBytes;
    args.count = kReadCount;
    XdrEncoder body;
    args.Encode(body);
    h.RawCall(PinHarness::ReadCall(xid, body.Take()));
  }
  EXPECT_EQ(h.Pins(), 16u);
  h.node_->Fail();
  h.node_->Restart();
  EXPECT_EQ(h.Pins(), 0u);
  EXPECT_EQ(h.store_->pages().live_pages(), h.store_->used_blocks() + h.store_->dirty_blocks());
}

INSTANTIATE_TEST_SUITE_P(Servers, DrcPinTest,
                         ::testing::Values(Server::kStorage, Server::kBaseline),
                         [](const ::testing::TestParamInfo<Server>& point) {
                           return ServerName(point.param);
                         });

}  // namespace
}  // namespace slice
