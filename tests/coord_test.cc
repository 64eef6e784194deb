// Unit tests for the coordinator: protocol codecs, intent lifecycle, probe
// timeout recovery (orphaned remove/truncate/commit), block-map assignment,
// and log-based coordinator crash recovery.
#include <gtest/gtest.h>

#include "src/coord/coordinator.h"
#include "src/nfs/nfs_client.h"
#include "src/storage/storage_node.h"

namespace slice {
namespace {

constexpr uint64_t kSecret = 0xc0;
constexpr NetAddr kStorage0 = 0x0a000020;
constexpr NetAddr kStorage1 = 0x0a000021;
constexpr NetAddr kCoordAddr = 0x0a000050;
constexpr NetAddr kClientAddr = 0x0a000001;

TEST(CoordProtoTest, IntentArgsRoundTrip) {
  LogIntentArgs args;
  args.op = IntentOp::kTruncate;
  args.file = FileHandle::Make(1, 42, 1, FileType3::kReg, 1, kSecret);
  args.arg = 12345;
  XdrEncoder enc;
  args.Encode(enc);
  XdrDecoder dec(enc.bytes());
  LogIntentArgs out = LogIntentArgs::Decode(dec).value();
  EXPECT_EQ(out.op, IntentOp::kTruncate);
  EXPECT_EQ(out.file.fileid(), 42u);
  EXPECT_EQ(out.arg, 12345u);
}

TEST(CoordProtoTest, MapResRoundTrip) {
  GetMapRes res;
  res.first_block = 7;
  res.sites = {0, 1, 2, kUnmappedBlock};
  XdrEncoder enc;
  res.Encode(enc);
  XdrDecoder dec(enc.bytes());
  GetMapRes out = GetMapRes::Decode(dec).value();
  EXPECT_EQ(out.first_block, 7u);
  EXPECT_EQ(out.sites, res.sites);
}

TEST(CoordProtoTest, BadIntentOpRejected) {
  XdrEncoder enc;
  enc.PutUint32(99);
  XdrDecoder dec(enc.bytes());
  EXPECT_FALSE(LogIntentArgs::Decode(dec).ok());
}

// A tiny typed client for the coordinator protocol (the µproxy embeds the
// same calls; tests drive them directly).
class CoordClient {
 public:
  CoordClient(Host& host, EventQueue& queue, Endpoint coord)
      : queue_(queue), rpc_(host, queue), coord_(coord) {}

  uint64_t LogIntent(IntentOp op, const FileHandle& file, uint64_t arg = 0) {
    LogIntentArgs args;
    args.op = op;
    args.file = file;
    args.arg = arg;
    uint64_t id = 0;
    bool done = false;
    rpc_.Call(coord_, kCoordProgram, kCoordVersion,
              static_cast<uint32_t>(CoordProc::kLogIntent), args,
              [&](Status st, const RpcMessageView& reply) {
                done = true;
                if (st.ok()) {
                  XdrDecoder dec(reply.body);
                  id = LogIntentRes::Decode(dec).value().intent_id;
                }
              });
    while (!done && queue_.RunOne()) {
    }
    return id;
  }

  void Complete(uint64_t intent_id) {
    CompleteArgs args;
    args.intent_id = intent_id;
    bool done = false;
    rpc_.Call(coord_, kCoordProgram, kCoordVersion,
              static_cast<uint32_t>(CoordProc::kComplete), args,
              [&](Status, const RpcMessageView&) { done = true; });
    while (!done && queue_.RunOne()) {
    }
  }

  GetMapRes GetMap(const FileHandle& file, uint64_t first, uint32_t count, bool allocate) {
    GetMapArgs args;
    args.file = file;
    args.first_block = first;
    args.count = count;
    args.allocate = allocate;
    GetMapRes out;
    bool done = false;
    rpc_.Call(coord_, kCoordProgram, kCoordVersion,
              static_cast<uint32_t>(CoordProc::kGetMap), args,
              [&](Status st, const RpcMessageView& reply) {
                done = true;
                if (st.ok()) {
                  XdrDecoder dec(reply.body);
                  out = GetMapRes::Decode(dec).value();
                }
              });
    while (!done && queue_.RunOne()) {
    }
    return out;
  }

 private:
  EventQueue& queue_;
  RpcClient rpc_;
  Endpoint coord_;
};

class CoordinatorTest : public ::testing::Test {
 protected:
  CoordinatorTest() : net_(queue_, NetworkParams{}) {
    StorageNodeParams snp;
    snp.volume_secret = kSecret;
    storage_.push_back(std::make_unique<StorageNode>(net_, queue_, kStorage0, snp));
    storage_.push_back(std::make_unique<StorageNode>(net_, queue_, kStorage1, snp));

    CoordinatorParams params;
    params.volume_secret = kSecret;
    params.num_storage_sites = 2;
    params.intent_timeout = FromMillis(500);
    params.backing_node = storage_[0]->endpoint();
    params.backing_object =
        FileHandle::Make(1, (0xfcull << 48) | 0, 1, FileType3::kReg, 1, kSecret);
    coord_ = std::make_unique<Coordinator>(
        net_, queue_, kCoordAddr, params,
        std::vector<Endpoint>{storage_[0]->endpoint(), storage_[1]->endpoint()},
        std::vector<Endpoint>{});

    client_host_ = std::make_unique<Host>(net_, kClientAddr);
    coord_client_ = std::make_unique<CoordClient>(*client_host_, queue_, coord_->endpoint());
    nfs_ = std::make_unique<SyncNfsClient>(*client_host_, queue_, storage_[0]->endpoint());
    nfs1_ = std::make_unique<SyncNfsClient>(*client_host_, queue_, storage_[1]->endpoint());
  }

  FileHandle Fh(uint64_t fileid = 5) const {
    return FileHandle::Make(1, fileid, 1, FileType3::kReg, 1, kSecret);
  }

  EventQueue queue_;
  Network net_;
  std::vector<std::unique_ptr<StorageNode>> storage_;
  std::unique_ptr<Coordinator> coord_;
  std::unique_ptr<Host> client_host_;
  std::unique_ptr<CoordClient> coord_client_;
  std::unique_ptr<SyncNfsClient> nfs_;
  std::unique_ptr<SyncNfsClient> nfs1_;
};

TEST_F(CoordinatorTest, IntentLifecycle) {
  const uint64_t id = coord_client_->LogIntent(IntentOp::kRemove, Fh());
  EXPECT_GT(id, 0u);
  EXPECT_EQ(coord_->pending_intents(), 1u);
  coord_client_->Complete(id);
  EXPECT_EQ(coord_->pending_intents(), 0u);
  queue_.RunUntilIdle();
  EXPECT_EQ(coord_->recoveries_run(), 0u);  // probe found nothing to do
}

TEST_F(CoordinatorTest, OrphanedRemoveIsRecovered) {
  // Data exists on both storage nodes.
  Bytes data(1000, 0xaa);
  ASSERT_EQ(nfs_->Write(Fh(), 0, data, StableHow::kFileSync).value().status, Nfsstat3::kOk);
  ASSERT_EQ(nfs1_->Write(Fh(), 0, data, StableHow::kFileSync).value().status, Nfsstat3::kOk);

  // A µproxy logs a remove intent and then dies (never completes).
  coord_client_->LogIntent(IntentOp::kRemove, Fh());
  queue_.RunUntilIdle();  // probe fires, recovery fans out

  EXPECT_EQ(coord_->recoveries_run(), 1u);
  EXPECT_EQ(coord_->pending_intents(), 0u);
  // The file's data is gone from both nodes (the remaining object on node 0
  // is the coordinator's own log).
  EXPECT_EQ(nfs_->Read(Fh(), 0, 100).value().count, 0u);
  EXPECT_EQ(nfs1_->Read(Fh(), 0, 100).value().count, 0u);
}

TEST_F(CoordinatorTest, OrphanedTruncateIsRecovered) {
  Bytes data(3 * kStoreBlockSize, 0xbb);
  ASSERT_EQ(nfs_->Write(Fh(), 0, data, StableHow::kFileSync).value().status, Nfsstat3::kOk);
  coord_client_->LogIntent(IntentOp::kTruncate, Fh(), 100);
  queue_.RunUntilIdle();
  EXPECT_EQ(nfs_->Getattr(Fh()).value().size, 100u);
}

TEST_F(CoordinatorTest, OrphanedCommitForcesDurability) {
  Bytes data(2000, 0xcc);
  ASSERT_EQ(nfs_->Write(Fh(), 0, data, StableHow::kUnstable).value().status, Nfsstat3::kOk);
  EXPECT_GT(storage_[0]->store().dirty_blocks(), 0u);
  coord_client_->LogIntent(IntentOp::kMirrorWrite, Fh());
  queue_.RunUntilIdle();
  EXPECT_EQ(storage_[0]->store().dirty_blocks(), 0u);  // recovery committed
}

TEST_F(CoordinatorTest, BlockMapAssignmentIsStable) {
  GetMapRes first = coord_client_->GetMap(Fh(), 0, 8, /*allocate=*/true);
  ASSERT_EQ(first.sites.size(), 8u);
  for (uint32_t site : first.sites) {
    EXPECT_LT(site, 2u);
  }
  // Round-robin alternation across the two sites.
  for (size_t i = 1; i < first.sites.size(); ++i) {
    EXPECT_NE(first.sites[i], first.sites[i - 1]);
  }
  // Re-fetch without allocate returns the same placements.
  GetMapRes again = coord_client_->GetMap(Fh(), 0, 8, /*allocate=*/false);
  EXPECT_EQ(again.sites, first.sites);
}

TEST_F(CoordinatorTest, UnmappedReadReturnsSentinel) {
  GetMapRes res = coord_client_->GetMap(Fh(77), 0, 4, /*allocate=*/false);
  for (uint32_t site : res.sites) {
    EXPECT_EQ(site, kUnmappedBlock);
  }
}

TEST_F(CoordinatorTest, CrashRecoveryReplaysIntentsAndMaps) {
  GetMapRes map = coord_client_->GetMap(Fh(), 0, 4, /*allocate=*/true);
  Bytes data(1000, 0xdd);
  ASSERT_EQ(nfs_->Write(Fh(9), 0, data, StableHow::kFileSync).value().status, Nfsstat3::kOk);
  coord_client_->LogIntent(IntentOp::kRemove, Fh(9));
  coord_->FlushLog();
  queue_.RunUntil(queue_.now() + FromMillis(100));  // flush lands, probe not yet fired

  coord_->Fail();
  coord_->Restart();
  queue_.RunUntilIdle();  // replay + recovery of the orphaned intent

  EXPECT_EQ(coord_->pending_intents(), 0u);
  EXPECT_FALSE(storage_[0]->store().Exists(0));  // remove fanned out
  EXPECT_GT(coord_->recoveries_run(), 0u);
  // Block maps survived.
  GetMapRes again = coord_client_->GetMap(Fh(), 0, 4, /*allocate=*/false);
  EXPECT_EQ(again.sites, map.sites);
}

TEST_F(CoordinatorTest, CompletedIntentsDoNotRecoverAfterRestart) {
  const uint64_t id = coord_client_->LogIntent(IntentOp::kRemove, Fh());
  coord_client_->Complete(id);
  coord_->FlushLog();
  queue_.RunUntil(queue_.now() + FromMillis(100));
  coord_->Fail();
  coord_->Restart();
  queue_.RunUntilIdle();
  EXPECT_EQ(coord_->pending_intents(), 0u);
  EXPECT_EQ(coord_->recoveries_run(), 0u);
}

}  // namespace
}  // namespace slice
