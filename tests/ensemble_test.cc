// Whole-system integration tests: a client mounts the virtual NFS server and
// every operation flows through the interposed µproxy to the right server
// class. Covers functional decomposition, attribute consistency, mirrored
// striping, fan-out commit/remove, µproxy soft-state loss, packet loss,
// failover, and both name policies.
#include <gtest/gtest.h>

#include "src/slice/ensemble.h"
#include "src/slice/volume_client.h"

namespace slice {
namespace {

Bytes Pattern(size_t n, uint8_t seed = 1) {
  Bytes data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>(seed + i * 31);
  }
  return data;
}

class EnsembleTest : public ::testing::Test {
 protected:
  explicit EnsembleTest(EnsembleConfig config = {}) {
    config_ = config;
    ensemble_ = std::make_unique<Ensemble>(queue_, config_);
    client_ = ensemble_->MakeSyncClient(0);
    root_ = ensemble_->root();
  }

  FileHandle CreateFile(const std::string& name) {
    CreateRes res = client_->Create(root_, name).value();
    EXPECT_EQ(res.status, Nfsstat3::kOk);
    return *res.object;
  }

  EventQueue queue_;
  EnsembleConfig config_;
  std::unique_ptr<Ensemble> ensemble_;
  std::unique_ptr<SyncNfsClient> client_;
  FileHandle root_;
};

TEST_F(EnsembleTest, MountAndStatRoot) {
  Fattr3 attr = client_->Getattr(root_).value();
  EXPECT_EQ(attr.fileid, kRootFileid);
  EXPECT_EQ(attr.type, FileType3::kDir);
}

TEST_F(EnsembleTest, SmallFileRoundTripThroughSfs) {
  const FileHandle fh = CreateFile("small.txt");
  const Bytes data = Pattern(5000);
  ASSERT_EQ(client_->Write(fh, 0, data, StableHow::kUnstable).value().status, Nfsstat3::kOk);
  ReadRes read = client_->Read(fh, 0, 8192).value();
  EXPECT_EQ(read.data, data);
  // The I/O went to a small-file server, not a storage node or dir server.
  const OpCounters counters = ensemble_->AggregateCounters();
  EXPECT_GE(counters.Get("routed_sfs"), 2u);
  uint64_t sfs_files = 0;
  for (size_t i = 0; i < ensemble_->num_small_file_servers(); ++i) {
    sfs_files += ensemble_->small_file_server(i).file_count();
  }
  EXPECT_EQ(sfs_files, 1u);
}

TEST_F(EnsembleTest, LargeFileStripesAcrossStorageNodes) {
  const FileHandle fh = CreateFile("big.bin");
  const Bytes data = Pattern(1 << 20);  // 1MB
  for (size_t off = 0; off < data.size(); off += 32768) {
    ASSERT_EQ(client_
                  ->Write(fh, off, ByteSpan(data.data() + off, 32768),
                          StableHow::kUnstable)
                  .value()
                  .status,
              Nfsstat3::kOk);
  }
  ASSERT_EQ(client_->Commit(fh).value().status, Nfsstat3::kOk);

  // Read everything back through the ensemble.
  Bytes got;
  for (size_t off = 0; off < data.size(); off += 32768) {
    ReadRes read = client_->Read(fh, off, 32768).value();
    ASSERT_EQ(read.status, Nfsstat3::kOk);
    got.insert(got.end(), read.data.begin(), read.data.end());
  }
  EXPECT_EQ(got, data);

  // Bulk blocks (>= 64KB) really landed on multiple storage nodes.
  size_t nodes_with_data = 0;
  for (size_t i = 0; i < ensemble_->num_storage_nodes(); ++i) {
    if (ensemble_->storage_node(i).store().object_count() > 0) {
      ++nodes_with_data;
    }
  }
  EXPECT_GE(nodes_with_data, 2u);
}

TEST_F(EnsembleTest, AttributesStayFreshThroughIoPath) {
  const FileHandle fh = CreateFile("fresh");
  const Bytes data = Pattern(10000);
  ASSERT_EQ(client_->Write(fh, 0, data, StableHow::kUnstable).value().status, Nfsstat3::kOk);
  // getattr routes to the directory server, which has NOT yet seen the size
  // change; the µproxy's attribute cache must patch the reply.
  Fattr3 attr = client_->Getattr(fh).value();
  EXPECT_EQ(attr.size, 10000u);
}

TEST_F(EnsembleTest, AttrWritebackReachesDirServer) {
  const FileHandle fh = CreateFile("wb");
  ASSERT_EQ(client_->Write(fh, 0, Pattern(4242), StableHow::kUnstable).value().status,
            Nfsstat3::kOk);
  ASSERT_EQ(client_->Commit(fh).value().status, Nfsstat3::kOk);
  queue_.RunUntilIdle();
  // The authoritative attr cell now reflects the size, without patching.
  const AttrCell* cell =
      ensemble_->dir_server(SiteOfFileid(fh.fileid())).store().FindAttr(fh.fileid());
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->attr.size, 4242u);
}

TEST_F(EnsembleTest, DeepPathsAndListing) {
  VolumeClient volume(ensemble_->client_host(0), queue_, ensemble_->virtual_server(), root_);
  ASSERT_TRUE(volume.MkdirAll("/a/b/c").ok());
  ASSERT_TRUE(volume.WriteFile("/a/b/c/file.txt", Pattern(100)).ok());
  EXPECT_EQ(volume.ReadFile("/a/b/c/file.txt").value(), Pattern(100));
  EXPECT_EQ(volume.List("/a/b").value(), std::vector<std::string>{"c"});
  EXPECT_EQ(volume.Stat("/a/b/c/file.txt").value().size, 100u);
}

TEST_F(EnsembleTest, RemoveReclaimsDataEverywhere) {
  const FileHandle fh = CreateFile("doomed");
  // Both small (below threshold) and bulk (above threshold) data.
  ASSERT_EQ(client_->Write(fh, 0, Pattern(1000), StableHow::kFileSync).value().status,
            Nfsstat3::kOk);
  ASSERT_EQ(client_->Write(fh, 1 << 20, Pattern(32768), StableHow::kFileSync).value().status,
            Nfsstat3::kOk);
  ASSERT_EQ(client_->Remove(root_, "doomed").value().status, Nfsstat3::kOk);
  queue_.RunUntilIdle();  // µproxy fan-out + coordinator completion

  for (size_t i = 0; i < ensemble_->num_small_file_servers(); ++i) {
    EXPECT_EQ(ensemble_->small_file_server(i).LocalSize(fh.fileid()), 0u);
  }
  EXPECT_EQ(client_->Read(fh, 1 << 20, 100).value().count, 0u);
  EXPECT_EQ(ensemble_->coordinator(0).pending_intents(), 0u);
}

TEST_F(EnsembleTest, TruncatePropagatesToDataServers) {
  const FileHandle fh = CreateFile("shrink");
  // Small (below threshold) and bulk (above threshold) data, then a
  // truncate that keeps part of the small data.
  const Bytes small = Pattern(1000);
  ASSERT_EQ(client_->Write(fh, 0, small, StableHow::kFileSync).value().status, Nfsstat3::kOk);
  ASSERT_EQ(client_->Write(fh, 1 << 20, Pattern(32768), StableHow::kFileSync).value().status,
            Nfsstat3::kOk);
  constexpr uint64_t kKeep = 600;
  SetattrArgs args;
  args.object = fh;
  args.new_attributes.size = kKeep;
  ASSERT_EQ(client_->Setattr(args).value().status, Nfsstat3::kOk);
  queue_.RunUntilIdle();  // µproxy fan-out + coordinator completion

  // The file's small-file server keeps the bytes below the new size; no
  // other server holds any.
  uint64_t kept = 0;
  for (size_t i = 0; i < ensemble_->num_small_file_servers(); ++i) {
    const uint64_t local = ensemble_->small_file_server(i).LocalSize(fh.fileid());
    EXPECT_TRUE(local == 0 || local == kKeep) << "sfs " << i << " holds " << local;
    kept += local;
  }
  EXPECT_EQ(kept, kKeep);
  EXPECT_EQ(client_->Read(fh, 1 << 20, 100).value().count, 0u);
  EXPECT_EQ(client_->Read(fh, 0, 1000).value().data,
            Bytes(small.begin(), small.begin() + kKeep));
  EXPECT_EQ(ensemble_->coordinator(0).pending_intents(), 0u);
}

TEST_F(EnsembleTest, SoftStateLossIsHarmless) {
  const FileHandle fh = CreateFile("resilient");
  ensemble_->uproxy(0).DropSoftState();
  ASSERT_EQ(client_->Write(fh, 0, Pattern(100), StableHow::kFileSync).value().status,
            Nfsstat3::kOk);
  ensemble_->uproxy(0).DropSoftState();
  EXPECT_EQ(client_->Read(fh, 0, 100).value().data, Pattern(100));
}

TEST_F(EnsembleTest, MultipleClientsShareOneVolume) {
  EnsembleConfig config;
  config.num_clients = 2;
  EventQueue queue;
  Ensemble ensemble(queue, config);
  auto alice = ensemble.MakeSyncClient(0);
  auto bob = ensemble.MakeSyncClient(1);
  const FileHandle root = ensemble.root();

  CreateRes created = alice->Create(root, "shared").value();
  ASSERT_EQ(created.status, Nfsstat3::kOk);
  ASSERT_EQ(alice->Write(*created.object, 0, Pattern(64), StableHow::kFileSync).value().status,
            Nfsstat3::kOk);

  // Bob sees Alice's file through his own µproxy.
  LookupRes found = bob->Lookup(root, "shared").value();
  ASSERT_EQ(found.status, Nfsstat3::kOk);
  EXPECT_EQ(bob->Read(found.object, 0, 64).value().data, Pattern(64));
}

TEST_F(EnsembleTest, RoutingDistributionCounters) {
  for (int i = 0; i < 10; ++i) {
    const FileHandle fh = CreateFile("file" + std::to_string(i));
    ASSERT_EQ(client_->Write(fh, 0, Pattern(100), StableHow::kUnstable).value().status,
              Nfsstat3::kOk);
  }
  const OpCounters counters = ensemble_->AggregateCounters();
  EXPECT_GE(counters.Get("routed_dir"), 10u);
  EXPECT_GE(counters.Get("routed_sfs"), 10u);
  EXPECT_EQ(counters.Get("pass_through"), 0u);
}

// --- mirrored striping ---

class MirroredTest : public EnsembleTest {
 protected:
  static EnsembleConfig MirrorConfig() {
    EnsembleConfig config;
    config.default_replication = 2;
    config.num_storage_nodes = 4;
    config.num_small_file_servers = 0;  // exercise pure bulk path
    return config;
  }
  MirroredTest() : EnsembleTest(MirrorConfig()) {}
};

TEST_F(MirroredTest, WritesAreReplicated) {
  const FileHandle fh = CreateFile("mirrored");
  ASSERT_EQ(fh.replication(), 2);
  const Bytes data = Pattern(32768);
  WriteRes res = client_->Write(fh, 0, data, StableHow::kFileSync).value();
  ASSERT_EQ(res.status, Nfsstat3::kOk);
  EXPECT_EQ(res.count, 32768u);

  // Two storage nodes hold the block.
  size_t holders = 0;
  for (size_t i = 0; i < ensemble_->num_storage_nodes(); ++i) {
    Bytes probe;
    SyncNfsClient direct(ensemble_->client_host(0), queue_,
                         ensemble_->storage_node(i).endpoint());
    ReadRes read = direct.Read(fh, 0, 32768).value();
    if (read.status == Nfsstat3::kOk && read.data == data) {
      ++holders;
    }
  }
  EXPECT_EQ(holders, 2u);
  EXPECT_GE(ensemble_->AggregateCounters().Get("mirrored_writes"), 1u);
}

TEST_F(MirroredTest, SurvivesSingleNodeFailure) {
  const FileHandle fh = CreateFile("durable");
  const Bytes data = Pattern(2 * 32768);
  for (size_t off = 0; off < data.size(); off += 32768) {
    ASSERT_EQ(client_
                  ->Write(fh, off, ByteSpan(data.data() + off, 32768), StableHow::kFileSync)
                  .value()
                  .status,
              Nfsstat3::kOk);
  }

  // Kill the replica that serves block 0 reads, then read through the other.
  const uint32_t primary = ensemble_->uproxy(0).StripeSite(fh, 0, 0);
  ensemble_->storage_node(primary).Fail();

  // A direct read from the surviving replica of block 0 still works.
  const uint32_t backup = ensemble_->uproxy(0).StripeSite(fh, 0, 1);
  SyncNfsClient direct(ensemble_->client_host(0), queue_,
                       ensemble_->storage_node(backup).endpoint());
  ReadRes read = direct.Read(fh, 0, 32768).value();
  EXPECT_EQ(read.status, Nfsstat3::kOk);
  EXPECT_EQ(read.data, Bytes(data.begin(), data.begin() + 32768));
}

// --- packet loss end to end ---

TEST(EnsembleLossTest, LossyNetworkStillCorrect) {
  EnsembleConfig config;
  config.loss_rate = 0.05;
  EventQueue queue;
  Ensemble ensemble(queue, config);
  auto client = ensemble.MakeSyncClient(0);
  const FileHandle root = ensemble.root();

  for (int i = 0; i < 20; ++i) {
    CreateRes created = client->Create(root, "lossy" + std::to_string(i)).value();
    ASSERT_EQ(created.status, Nfsstat3::kOk) << i;
    ASSERT_EQ(client->Write(*created.object, 0, Pattern(100, static_cast<uint8_t>(i)),
                            StableHow::kFileSync)
                  .value()
                  .status,
              Nfsstat3::kOk);
  }
  for (int i = 0; i < 20; ++i) {
    LookupRes found = client->Lookup(root, "lossy" + std::to_string(i)).value();
    ASSERT_EQ(found.status, Nfsstat3::kOk);
    EXPECT_EQ(client->Read(found.object, 0, 100).value().data,
              Pattern(100, static_cast<uint8_t>(i)));
  }
}

// --- name hashing end to end ---

class NameHashEnsembleTest : public EnsembleTest {
 protected:
  static EnsembleConfig HashConfig() {
    EnsembleConfig config;
    config.name_policy = NamePolicy::kNameHashing;
    config.num_dir_servers = 3;
    return config;
  }
  NameHashEnsembleTest() : EnsembleTest(HashConfig()) {}
};

TEST_F(NameHashEnsembleTest, CreateLookupReaddir) {
  for (int i = 0; i < 30; ++i) {
    CreateFile("hashed" + std::to_string(i));
  }
  // Entries scattered over all three dir servers.
  size_t sites_with_entries = 0;
  for (size_t i = 0; i < ensemble_->num_dir_servers(); ++i) {
    if (ensemble_->dir_server(i).store().CountDir(kRootFileid) > 0) {
      ++sites_with_entries;
    }
  }
  EXPECT_EQ(sites_with_entries, 3u);

  // Lookups and a gathered readdir both work through the µproxy.
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(client_->Lookup(root_, "hashed" + std::to_string(i)).value().status,
              Nfsstat3::kOk);
  }
  std::vector<DirEntry> all = client_->ReadWholeDir(root_).value();
  EXPECT_EQ(all.size(), 30u);
}

TEST_F(NameHashEnsembleTest, RenameAndRemoveAcrossSites) {
  CreateFile("start");
  ASSERT_EQ(client_->Rename(root_, "start", root_, "finish").value().status, Nfsstat3::kOk);
  EXPECT_EQ(client_->Lookup(root_, "start").value().status, Nfsstat3::kErrNoent);
  EXPECT_EQ(client_->Lookup(root_, "finish").value().status, Nfsstat3::kOk);
  ASSERT_EQ(client_->Remove(root_, "finish").value().status, Nfsstat3::kOk);
  EXPECT_EQ(client_->Lookup(root_, "finish").value().status, Nfsstat3::kErrNoent);
}

// --- dir server failover with WAL recovery, through the µproxy ---

TEST_F(EnsembleTest, DirServerCrashRecoveryEndToEnd) {
  const FileHandle fh = CreateFile("persistent");
  ensemble_->dir_server(0).FlushLog();
  queue_.RunUntilIdle();

  ensemble_->dir_server(0).Fail();
  ensemble_->dir_server(0).Restart();
  queue_.RunUntilIdle();

  LookupRes found = client_->Lookup(root_, "persistent").value();
  ASSERT_EQ(found.status, Nfsstat3::kOk);
  EXPECT_EQ(found.object, fh);
}

// --- block-map (dynamic placement) mode ---

TEST(EnsembleBlockMapTest, DynamicPlacementRoundTrips) {
  EnsembleConfig config;
  config.use_block_maps = true;
  config.num_small_file_servers = 0;
  config.num_storage_nodes = 4;
  EventQueue queue;
  Ensemble ensemble(queue, config);
  auto client = ensemble.MakeSyncClient(0);

  CreateRes created = client->Create(ensemble.root(), "mapped").value();
  ASSERT_EQ(created.status, Nfsstat3::kOk);
  const FileHandle fh = *created.object;
  const Bytes data = Pattern(4 * 32768);
  for (size_t off = 0; off < data.size(); off += 32768) {
    ASSERT_EQ(client->Write(fh, off, ByteSpan(data.data() + off, 32768), StableHow::kFileSync)
                  .value()
                  .status,
              Nfsstat3::kOk);
  }
  Bytes got;
  for (size_t off = 0; off < data.size(); off += 32768) {
    ReadRes read = client->Read(fh, off, 32768).value();
    ASSERT_EQ(read.status, Nfsstat3::kOk);
    got.insert(got.end(), read.data.begin(), read.data.end());
  }
  EXPECT_EQ(got, data);
  EXPECT_GT(ensemble.coordinator(0).maps_assigned(), 0u);
  EXPECT_GE(ensemble.AggregateCounters().Get("map_fetches"), 1u);
}

}  // namespace
}  // namespace slice
