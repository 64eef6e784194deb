// Unit tests for the small-file server: fragment allocation classes, the
// paper's 8300-byte example, dataless backing via storage nodes, unstable
// write + commit semantics, cache-miss fetches, truncate/remove, recovery.
#include <gtest/gtest.h>

#include "src/nfs/nfs_client.h"
#include "src/sfs/fragment_alloc.h"
#include "src/sfs/small_file_server.h"
#include "src/storage/storage_node.h"

namespace slice {
namespace {

constexpr uint64_t kSecret = 0x5f5;
constexpr NetAddr kStorage0 = 0x0a000020;
constexpr NetAddr kStorage1 = 0x0a000021;
constexpr NetAddr kSfsAddr = 0x0a000040;
constexpr NetAddr kClientAddr = 0x0a000001;

TEST(FragmentAllocTest, SizeClasses) {
  EXPECT_EQ(FragmentSizeFor(1), 128u);
  EXPECT_EQ(FragmentSizeFor(128), 128u);
  EXPECT_EQ(FragmentSizeFor(129), 256u);
  EXPECT_EQ(FragmentSizeFor(4097), 8192u);
  EXPECT_EQ(FragmentSizeFor(8192), 8192u);
}

TEST(FragmentAllocTest, SequentialCarving) {
  FragmentAllocator alloc;
  Fragment a = alloc.Allocate(100);
  Fragment b = alloc.Allocate(100);
  EXPECT_EQ(a.offset, 0u);
  EXPECT_EQ(b.offset, 128u);  // batched into a single stream
  EXPECT_EQ(alloc.zone_tail(), 256u);
}

TEST(FragmentAllocTest, FreeListReuse) {
  FragmentAllocator alloc;
  Fragment a = alloc.Allocate(1000);  // 1024 class
  alloc.Free(a);
  Fragment b = alloc.Allocate(900);  // same class: reuses
  EXPECT_EQ(b.offset, a.offset);
  EXPECT_EQ(alloc.reused_fragments(), 1u);
}

TEST(FragmentAllocTest, PaperExample8300Bytes) {
  // "a 8300 byte file would consume only 8320 bytes of physical storage
  // space, 8192 bytes for the first block, and 128 for the remaining 108."
  FragmentAllocator alloc;
  Fragment first = alloc.Allocate(8192);
  Fragment rest = alloc.Allocate(108);
  EXPECT_EQ(first.alloc_size + rest.alloc_size, 8320u);
}

TEST(FragmentAllocTest, AccountingBalances) {
  FragmentAllocator alloc;
  Fragment a = alloc.Allocate(300);
  Fragment b = alloc.Allocate(5000);
  EXPECT_EQ(alloc.allocated_bytes(), 512u + 8192u);
  alloc.Free(a);
  alloc.Free(b);
  EXPECT_EQ(alloc.allocated_bytes(), 0u);
  EXPECT_EQ(alloc.free_bytes(), 512u + 8192u);
}

class SfsTest : public ::testing::Test {
 protected:
  SfsTest() : net_(queue_, NetworkParams{}) {
    StorageNodeParams snp;
    snp.volume_secret = kSecret;
    storage_.push_back(std::make_unique<StorageNode>(net_, queue_, kStorage0, snp));
    storage_.push_back(std::make_unique<StorageNode>(net_, queue_, kStorage1, snp));

    SmallFileServerParams params;
    params.volume_secret = kSecret;
    params.cache_bytes = 4 << 20;  // small cache so tests can overflow it
    params.backing_node = storage_[0]->endpoint();
    params.backing_object =
        FileHandle::Make(1, (0xfdull << 48) | 0, 1, FileType3::kReg, 1, kSecret);
    sfs_ = std::make_unique<SmallFileServer>(
        net_, queue_, kSfsAddr, params,
        std::vector<Endpoint>{storage_[0]->endpoint(), storage_[1]->endpoint()});

    client_host_ = std::make_unique<Host>(net_, kClientAddr);
    client_ = std::make_unique<SyncNfsClient>(*client_host_, queue_, sfs_->endpoint());
  }

  FileHandle Fh(uint64_t fileid = 10) const {
    return FileHandle::Make(1, fileid, 1, FileType3::kReg, 1, kSecret);
  }

  static Bytes Pattern(size_t n, uint8_t seed = 1) {
    Bytes data(n);
    for (size_t i = 0; i < n; ++i) {
      data[i] = static_cast<uint8_t>(seed + i * 13);
    }
    return data;
  }

  EventQueue queue_;
  Network net_;
  std::vector<std::unique_ptr<StorageNode>> storage_;
  std::unique_ptr<SmallFileServer> sfs_;
  std::unique_ptr<Host> client_host_;
  std::unique_ptr<SyncNfsClient> client_;
};

TEST_F(SfsTest, WriteReadSmallFile) {
  const Bytes data = Pattern(5000);
  WriteRes w = client_->Write(Fh(), 0, data, StableHow::kFileSync).value();
  ASSERT_EQ(w.status, Nfsstat3::kOk);
  ReadRes r = client_->Read(Fh(), 0, 8192).value();
  ASSERT_EQ(r.status, Nfsstat3::kOk);
  EXPECT_EQ(r.data, data);
  EXPECT_TRUE(r.eof);
}

TEST_F(SfsTest, ReadMissingFileIsEmptyEof) {
  ReadRes r = client_->Read(Fh(99), 0, 100).value();
  EXPECT_EQ(r.status, Nfsstat3::kOk);
  EXPECT_EQ(r.count, 0u);
  EXPECT_TRUE(r.eof);
}

TEST_F(SfsTest, GrowingFileReallocatesFragments) {
  // 100 bytes -> 128 fragment; grow to 5000 -> 8192 fragment, data intact.
  ASSERT_EQ(client_->Write(Fh(), 0, Pattern(100, 7), StableHow::kUnstable).value().status,
            Nfsstat3::kOk);
  Bytes more = Pattern(4900, 9);
  ASSERT_EQ(client_->Write(Fh(), 100, more, StableHow::kUnstable).value().status, Nfsstat3::kOk);
  ReadRes r = client_->Read(Fh(), 0, 5000).value();
  Bytes expect = Pattern(100, 7);
  expect.insert(expect.end(), more.begin(), more.end());
  EXPECT_EQ(r.data, expect);
}

TEST_F(SfsTest, PhysicalSpaceMatchesPaperExample) {
  ASSERT_EQ(client_->Write(Fh(), 0, Pattern(8300), StableHow::kFileSync).value().status,
            Nfsstat3::kOk);
  Fattr3 attr = client_->Getattr(Fh()).value();
  EXPECT_EQ(attr.size, 8300u);
  EXPECT_EQ(attr.used, 8320u);
}

TEST_F(SfsTest, MultiBlockFile) {
  const Bytes data = Pattern(3 * kStoreBlockSize + 500);
  ASSERT_EQ(client_->Write(Fh(), 0, data, StableHow::kFileSync).value().status, Nfsstat3::kOk);
  ReadRes r = client_->Read(Fh(), 0, static_cast<uint32_t>(data.size())).value();
  EXPECT_EQ(r.data, data);
}

TEST_F(SfsTest, UnstableThenCommitFlushesToStorageNodes) {
  const Bytes data = Pattern(4000);
  WriteRes w = client_->Write(Fh(), 0, data, StableHow::kUnstable).value();
  ASSERT_EQ(w.status, Nfsstat3::kOk);
  EXPECT_EQ(w.committed, StableHow::kUnstable);
  const uint64_t flushes_before = sfs_->backing_flushes();
  CommitRes c = client_->Commit(Fh()).value();
  ASSERT_EQ(c.status, Nfsstat3::kOk);
  EXPECT_GT(sfs_->backing_flushes(), flushes_before);
}

TEST_F(SfsTest, DatalessRecoveryViaBackingStore) {
  const Bytes data = Pattern(6000, 3);
  ASSERT_EQ(client_->Write(Fh(), 0, data, StableHow::kFileSync).value().status, Nfsstat3::kOk);
  sfs_->FlushDirtyForTest();
  queue_.RunUntilIdle();

  // Crash: RAM pages and map records vanish; recovery replays the WAL and
  // refetches data from the storage array on demand.
  sfs_->Fail();
  sfs_->Restart();
  queue_.RunUntilIdle();

  ReadRes r = client_->Read(Fh(), 0, 6000).value();
  ASSERT_EQ(r.status, Nfsstat3::kOk);
  EXPECT_EQ(r.data, data);
  EXPECT_GT(sfs_->backing_fetches(), 0u);
}

// While WAL replay runs, a restarted server answers READ, WRITE and COMMIT
// with NFS3ERR_JUKEBOX. Each body is its procedure's failure arm, so the
// client decodes the status (and can retry) instead of failing the decode.
TEST_F(SfsTest, RecoveringServerAnswersDecodableJukebox) {
  ASSERT_EQ(client_->Write(Fh(), 0, Pattern(1000), StableHow::kFileSync).value().status,
            Nfsstat3::kOk);
  sfs_->FlushDirtyForTest();
  queue_.RunUntilIdle();
  sfs_->Fail();
  sfs_->Restart();  // replay starts; the queue is not drained first

  struct Reply {
    Status st;
    Nfsstat3 status = Nfsstat3::kOk;
  };
  Reply write, commit, read;
  int replies = 0;
  auto record = [&replies](Reply& out) {
    return [&out, &replies](Status st, const auto& res) {
      out = Reply{st, res.status};
      ++replies;
    };
  };
  NfsClient& async = client_->async();
  async.Write(Fh(), 0, Pattern(10), StableHow::kUnstable, record(write));
  async.Commit(Fh(), 0, 0, record(commit));
  async.Read(Fh(), 0, 100, record(read));
  while (replies < 3 && queue_.RunOne()) {
  }
  ASSERT_EQ(replies, 3);
  for (const Reply* reply : {&write, &commit, &read}) {
    ASSERT_TRUE(reply->st.ok()) << reply->st.ToString();
    EXPECT_EQ(reply->status, Nfsstat3::kErrJukebox);
  }
}

TEST_F(SfsTest, CacheMissFetchesFromStorage) {
  const Bytes data = Pattern(2000);
  ASSERT_EQ(client_->Write(Fh(), 0, data, StableHow::kFileSync).value().status, Nfsstat3::kOk);
  // Fill the 4MB cache with other files to evict the first one.
  for (uint64_t id = 100; id < 100 + 1200; ++id) {
    ASSERT_EQ(client_->Write(Fh(id), 0, Pattern(4096), StableHow::kUnstable).value().status,
              Nfsstat3::kOk);
  }
  ASSERT_EQ(client_->Commit(Fh(100)).value().status, Nfsstat3::kOk);
  const uint64_t fetches_before = sfs_->backing_fetches();
  ReadRes r = client_->Read(Fh(), 0, 2000).value();
  EXPECT_EQ(r.data, data);
  EXPECT_GT(sfs_->backing_fetches(), fetches_before);
}

TEST_F(SfsTest, TruncateFreesFragments) {
  ASSERT_EQ(client_->Write(Fh(), 0, Pattern(3 * kStoreBlockSize), StableHow::kFileSync)
                .value()
                .status,
            Nfsstat3::kOk);
  const uint64_t allocated_before = sfs_->allocator().allocated_bytes();
  SetattrArgs args;
  args.object = Fh();
  args.new_attributes.size = 100;
  ASSERT_EQ(client_->Setattr(args).value().status, Nfsstat3::kOk);
  EXPECT_LT(sfs_->allocator().allocated_bytes(), allocated_before);
  EXPECT_EQ(client_->Getattr(Fh()).value().size, 100u);
  ReadRes r = client_->Read(Fh(), 0, 8192).value();
  EXPECT_EQ(r.count, 100u);
}

TEST_F(SfsTest, RemoveDropsFileAndSpace) {
  ASSERT_EQ(client_->Write(Fh(), 0, Pattern(1000), StableHow::kFileSync).value().status,
            Nfsstat3::kOk);
  ASSERT_EQ(client_->Remove(Fh(), "").value().status, Nfsstat3::kOk);
  EXPECT_EQ(sfs_->file_count(), 0u);
  EXPECT_EQ(sfs_->allocator().allocated_bytes(), 0u);
  ReadRes r = client_->Read(Fh(), 0, 100).value();
  EXPECT_EQ(r.count, 0u);
}

TEST_F(SfsTest, BadCapabilityRejected) {
  FileHandle forged = FileHandle::Make(1, 10, 1, FileType3::kReg, 1, kSecret + 1);
  EXPECT_EQ(client_->Write(forged, 0, Pattern(10), StableHow::kUnstable).value().status,
            Nfsstat3::kErrBadhandle);
}

TEST_F(SfsTest, EofClearedAtThresholdBoundary) {
  // A file that reaches the 64KB threshold may continue on storage nodes;
  // the small-file server must not claim EOF.
  const Bytes data = Pattern(65536);
  ASSERT_EQ(client_->Write(Fh(), 0, data, StableHow::kFileSync).value().status, Nfsstat3::kOk);
  ReadRes r = client_->Read(Fh(), 32768, 32768).value();
  EXPECT_EQ(r.count, 32768u);
  EXPECT_FALSE(r.eof);
}

TEST_F(SfsTest, SparseSmallFileReadsZeros) {
  ASSERT_EQ(client_->Write(Fh(), 2 * kStoreBlockSize, Pattern(100), StableHow::kFileSync)
                .value()
                .status,
            Nfsstat3::kOk);
  ReadRes r = client_->Read(Fh(), 0, 100).value();
  EXPECT_EQ(r.data, Bytes(100, 0));
}

}  // namespace
}  // namespace slice
