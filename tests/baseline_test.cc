// Unit tests for the monolithic baseline NFS server (the N-MFS / single-NFS
// comparison points): full NFSv3 semantics on one node, memory- and
// disk-backed timing.
#include <gtest/gtest.h>

#include "src/baseline/baseline_server.h"
#include "src/nfs/nfs_client.h"

namespace slice {
namespace {

constexpr NetAddr kServerAddr = 0x0a000010;
constexpr NetAddr kClientAddr = 0x0a000001;

Bytes Pattern(size_t n, uint8_t seed = 1) {
  Bytes data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>(seed + i * 11);
  }
  return data;
}

class BaselineTest : public ::testing::Test {
 protected:
  explicit BaselineTest(bool memory_backed = true) : net_(queue_, NetworkParams{}) {
    BaselineServerParams params;
    params.memory_backed = memory_backed;
    params.capacity_bytes = 1 << 28;
    server_ = std::make_unique<BaselineServer>(net_, queue_, kServerAddr, params);
    client_host_ = std::make_unique<Host>(net_, kClientAddr);
    client_ = std::make_unique<SyncNfsClient>(*client_host_, queue_, server_->endpoint());
    root_ = server_->RootHandle();
  }

  EventQueue queue_;
  Network net_;
  std::unique_ptr<BaselineServer> server_;
  std::unique_ptr<Host> client_host_;
  std::unique_ptr<SyncNfsClient> client_;
  FileHandle root_;
};

TEST_F(BaselineTest, CreateWriteReadRemove) {
  CreateRes created = client_->Create(root_, "f").value();
  ASSERT_EQ(created.status, Nfsstat3::kOk);
  const FileHandle fh = *created.object;
  const Bytes data = Pattern(10000);
  ASSERT_EQ(client_->Write(fh, 0, data, StableHow::kFileSync).value().status, Nfsstat3::kOk);
  ReadRes read = client_->Read(fh, 0, 16384).value();
  EXPECT_EQ(read.data, data);
  EXPECT_TRUE(read.eof);
  EXPECT_EQ(client_->Remove(root_, "f").value().status, Nfsstat3::kOk);
  EXPECT_EQ(client_->Lookup(root_, "f").value().status, Nfsstat3::kErrNoent);
}

// A READ asking for more than kNfsMaxData, the bound of the client's ReadRes
// decode, gets a short read of the first kNfsMaxData bytes.
TEST_F(BaselineTest, ReadPastMaxDataIsShort) {
  const FileHandle fh = *client_->Create(root_, "big").value().object;
  const Bytes data = Pattern(2 * kNfsMaxData);
  for (size_t offset = 0; offset < data.size(); offset += kNfsMaxData) {
    const ByteSpan piece = ByteSpan(data).subspan(offset, kNfsMaxData);
    ASSERT_EQ(client_->Write(fh, offset, piece, StableHow::kFileSync).value().status,
              Nfsstat3::kOk);
  }
  const Result<ReadRes> read = client_->Read(fh, 0, 2 * kNfsMaxData);
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_EQ(read.value().status, Nfsstat3::kOk);
  EXPECT_EQ(read.value().count, kNfsMaxData);
  EXPECT_FALSE(read.value().eof);
  EXPECT_TRUE(read.value().data == Bytes(data.begin(), data.begin() + kNfsMaxData));
}

TEST_F(BaselineTest, DirectoryTreeOperations) {
  CreateRes dir = client_->Mkdir(root_, "sub").value();
  ASSERT_EQ(dir.status, Nfsstat3::kOk);
  EXPECT_EQ(client_->Getattr(root_).value().nlink, 3u);
  ASSERT_EQ(client_->Create(*dir.object, "inner").value().status, Nfsstat3::kOk);
  EXPECT_EQ(client_->Rmdir(root_, "sub").value().status, Nfsstat3::kErrNotempty);
  ASSERT_EQ(client_->Remove(*dir.object, "inner").value().status, Nfsstat3::kOk);
  EXPECT_EQ(client_->Rmdir(root_, "sub").value().status, Nfsstat3::kOk);
}

TEST_F(BaselineTest, RenameAndLink) {
  CreateRes created = client_->Create(root_, "a").value();
  ASSERT_EQ(created.status, Nfsstat3::kOk);
  ASSERT_EQ(client_->Link(*created.object, root_, "b").value().status, Nfsstat3::kOk);
  EXPECT_EQ(client_->Getattr(*created.object).value().nlink, 2u);
  ASSERT_EQ(client_->Rename(root_, "a", root_, "c").value().status, Nfsstat3::kOk);
  EXPECT_EQ(client_->Lookup(root_, "c").value().status, Nfsstat3::kOk);
  EXPECT_EQ(client_->Lookup(root_, "b").value().status, Nfsstat3::kOk);
}

TEST_F(BaselineTest, SymlinkReadlink) {
  CreateRes made = client_->Symlink(root_, "lnk", "/somewhere").value();
  ASSERT_EQ(made.status, Nfsstat3::kOk);
  EXPECT_EQ(client_->Readlink(*made.object).value().target, "/somewhere");
}

TEST_F(BaselineTest, ReaddirListsEverything) {
  for (int i = 0; i < 25; ++i) {
    ASSERT_EQ(client_->Create(root_, "e" + std::to_string(i)).value().status, Nfsstat3::kOk);
  }
  std::vector<DirEntry> all = client_->ReadWholeDir(root_).value();
  EXPECT_EQ(all.size(), 25u);
}

TEST_F(BaselineTest, UnstableWriteCommit) {
  CreateRes created = client_->Create(root_, "u").value();
  const FileHandle fh = *created.object;
  WriteRes w = client_->Write(fh, 0, Pattern(100), StableHow::kUnstable).value();
  EXPECT_EQ(w.committed, StableHow::kUnstable);
  CommitRes c = client_->Commit(fh).value();
  EXPECT_EQ(c.status, Nfsstat3::kOk);
  EXPECT_EQ(c.verf, w.verf);
}

TEST_F(BaselineTest, TruncateViaSetattr) {
  CreateRes created = client_->Create(root_, "t").value();
  const FileHandle fh = *created.object;
  ASSERT_EQ(client_->Write(fh, 0, Pattern(50000), StableHow::kFileSync).value().status,
            Nfsstat3::kOk);
  SetattrArgs args;
  args.object = fh;
  args.new_attributes.size = 10;
  ASSERT_EQ(client_->Setattr(args).value().status, Nfsstat3::kOk);
  EXPECT_EQ(client_->Getattr(fh).value().size, 10u);
}

class DiskBackedBaselineTest : public BaselineTest {
 protected:
  DiskBackedBaselineTest() : BaselineTest(/*memory_backed=*/false) {}
};

TEST_F(DiskBackedBaselineTest, ColdWritePaysDiskTimeWarmReadDoesNot) {
  CreateRes created = client_->Create(root_, "disk").value();
  const FileHandle fh = *created.object;
  ASSERT_EQ(client_->Write(fh, 0, Pattern(65536), StableHow::kFileSync).value().status,
            Nfsstat3::kOk);
  const SimTime after_write = queue_.now();
  EXPECT_GT(after_write, FromMillis(2));  // disk-backed sync write

  const SimTime t0 = queue_.now();
  ASSERT_EQ(client_->Read(fh, 0, 32768).value().status, Nfsstat3::kOk);
  EXPECT_LT(queue_.now() - t0, FromMillis(2));  // warm cache read
}

TEST(BaselineMemoryTest, MfsHasNoDiskLatency) {
  EventQueue queue;
  Network net(queue, NetworkParams{});
  BaselineServerParams params;
  params.memory_backed = true;
  BaselineServer server(net, queue, kServerAddr, params);
  Host client_host(net, kClientAddr);
  SyncNfsClient client(client_host, queue, server.endpoint());

  CreateRes created = client.Create(server.RootHandle(), "fast").value();
  const SimTime t0 = queue.now();
  ASSERT_EQ(client.Write(*created.object, 0, Pattern(32768), StableHow::kFileSync)
                .value()
                .status,
            Nfsstat3::kOk);
  EXPECT_LT(queue.now() - t0, FromMillis(1));  // CPU + wire only
}

}  // namespace
}  // namespace slice
