// Ensemble control plane (src/mgmt): failure detector unit tests, wire
// protocol round trips, and end-to-end detection / failover / rebalance
// scenarios on a full simulated ensemble.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "src/chaos/invariants.h"
#include "src/mgmt/failure_detector.h"
#include "src/mgmt/mgmt_proto.h"
#include "src/slice/ensemble.h"

namespace slice {
namespace {

Bytes Pattern(size_t n, uint8_t seed = 1) {
  Bytes data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>(seed + i * 53);
  }
  return data;
}

// --- failure detector ---

TEST(FailureDetectorTest, DeclaresDeadAfterTimeout) {
  HeartbeatFailureDetector det({.timeout = FromMillis(500)});
  det.Register(1, 0);
  det.Register(2, 0);
  det.Touch(1, FromMillis(400));
  EXPECT_TRUE(det.Sweep(FromMillis(450)).empty());
  std::vector<uint64_t> died = det.Sweep(FromMillis(600));
  ASSERT_EQ(died.size(), 1u);  // node 2 silent since t=0; node 1 heard at 400
  EXPECT_EQ(died[0], 2u);
  EXPECT_FALSE(det.alive(2));
  EXPECT_TRUE(det.alive(1));
  // A sweep never re-declares an already-dead node.
  EXPECT_TRUE(det.Sweep(FromMillis(5000)).size() == 1u);  // now node 1 too
  EXPECT_EQ(det.dead_count(), 2u);
}

TEST(FailureDetectorTest, TouchReportsRejoin) {
  HeartbeatFailureDetector det({.timeout = FromMillis(500)});
  det.Register(7, 0);
  EXPECT_FALSE(det.Touch(7, FromMillis(100)));  // still alive: not a rejoin
  ASSERT_EQ(det.Sweep(FromMillis(700)).size(), 1u);
  EXPECT_TRUE(det.Touch(7, FromMillis(800)));  // beat from a dead node
  EXPECT_TRUE(det.alive(7));
  EXPECT_FALSE(det.Touch(7, FromMillis(850)));
}

TEST(FailureDetectorTest, SweepReturnsDeterministicAscendingIds) {
  HeartbeatFailureDetector det({.timeout = FromMillis(100)});
  det.Register(NodeId(NodeClass::kDir, 1), 0);
  det.Register(NodeId(NodeClass::kStorage, 3), 0);
  det.Register(NodeId(NodeClass::kStorage, 0), 0);
  std::vector<uint64_t> died = det.Sweep(FromMillis(200));
  ASSERT_EQ(died.size(), 3u);
  EXPECT_EQ(died[0], NodeId(NodeClass::kStorage, 0));
  EXPECT_EQ(died[1], NodeId(NodeClass::kStorage, 3));
  EXPECT_EQ(died[2], NodeId(NodeClass::kDir, 1));
}

// --- wire protocol ---

TEST(MgmtProtoTest, HeartbeatRoundTrip) {
  HeartbeatArgs args;
  args.node_class = NodeClass::kSfs;
  args.index = 9;
  args.known_epoch = 42;
  XdrEncoder enc;
  args.Encode(enc);
  XdrDecoder dec(enc.bytes());
  Result<HeartbeatArgs> back = HeartbeatArgs::Decode(dec);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->node_class, NodeClass::kSfs);
  EXPECT_EQ(back->index, 9u);
  EXPECT_EQ(back->known_epoch, 42u);
}

TEST(MgmtProtoTest, TableSetRoundTrip) {
  MgmtTableSet tables;
  tables.epoch = 17;
  tables.dir_servers = {{0x0a000100, kNfsPort}, {0x0a000101, kNfsPort}};
  tables.dir_slots = {0, 1, 0, 0};
  tables.dir_alive = {1, 0};
  tables.sfs_servers = {{0x0a000200, kNfsPort}};
  tables.sfs_slots = {0, 0};
  tables.sfs_alive = {1};
  tables.storage_alive = {1, 1, 0, 1};
  XdrEncoder enc;
  tables.Encode(enc);
  XdrDecoder dec(enc.bytes());
  Result<MgmtTableSet> back = MgmtTableSet::Decode(dec);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->epoch, 17u);
  EXPECT_EQ(back->dir_servers.size(), 2u);
  EXPECT_EQ(back->dir_servers[1].addr, 0x0a000101u);
  EXPECT_EQ(back->dir_slots, (std::vector<uint32_t>{0, 1, 0, 0}));
  EXPECT_EQ(back->dir_alive, (std::vector<uint8_t>{1, 0}));
  EXPECT_EQ(back->storage_alive, (std::vector<uint8_t>{1, 1, 0, 1}));
}

TEST(MgmtProtoTest, ControlMessagesCarryMagicAndEpoch) {
  MgmtTableSet tables;
  tables.epoch = 5;
  tables.dir_servers = {{1, 1}};
  tables.dir_slots = {0};
  Bytes push = EncodeTablePush(tables);
  XdrDecoder push_dec(push);
  uint32_t magic = 0;
  XdrField(push_dec, magic);
  EXPECT_EQ(magic, kTablePushMagic);
  ASSERT_TRUE(MgmtTableSet::Decode(push_dec).ok());

  Bytes notice = EncodeMisdirectNotice(9);
  XdrDecoder notice_dec(notice);
  uint64_t epoch = 0;
  XdrField(notice_dec, magic);
  XdrField(notice_dec, epoch);
  EXPECT_TRUE(notice_dec.ok());
  EXPECT_EQ(magic, kMisdirectMagic);
  EXPECT_EQ(epoch, 9u);
}

// --- end-to-end scenarios ---

class MgmtTest : public ::testing::Test {
 protected:
  void Build(EnsembleConfig config) {
    ensemble_ = std::make_unique<Ensemble>(queue_, config);
    client_ = ensemble_->MakeSyncClient(0);
    root_ = ensemble_->root();
  }

  // Advances simulated time so heartbeats flow and sweeps run.
  void RunFor(SimTime dt) { queue_.RunUntil(queue_.now() + dt); }

  // Retries an op through transient kErrJukebox (recovery, adoption,
  // misdirects); the client's own RPC layer already covers lost packets.
  template <typename Fn>
  auto RetryJukebox(Fn&& op) {
    for (int attempt = 0;; ++attempt) {
      auto res = op();
      if (res.status != Nfsstat3::kErrJukebox || attempt >= 50) {
        return res;
      }
      RunFor(FromMillis(10));
    }
  }

  EventQueue queue_;
  std::unique_ptr<Ensemble> ensemble_;
  std::unique_ptr<SyncNfsClient> client_;
  FileHandle root_;
};

TEST_F(MgmtTest, ManagerDetectsFailureAndRejoin) {
  EnsembleConfig config;
  config.num_storage_nodes = 4;
  config.num_small_file_servers = 1;
  Build(config);
  EnsembleManager& mgr = *ensemble_->manager();

  RunFor(FromMillis(200));
  EXPECT_EQ(mgr.current_epoch(), 1u);
  EXPECT_GT(mgr.heartbeats_received(), 0u);
  EXPECT_TRUE(mgr.NodeAlive(NodeClass::kStorage, 2));

  ensemble_->storage_node(2).Fail();
  RunFor(FromMillis(800));
  EXPECT_FALSE(mgr.NodeAlive(NodeClass::kStorage, 2));
  EXPECT_EQ(mgr.current_epoch(), 2u);
  EXPECT_EQ(mgr.reconfigurations(), 1u);
  // The push reached the µproxy: its table epoch follows the manager's.
  EXPECT_EQ(ensemble_->uproxy(0).table_epoch(), 2u);
  EXPECT_FALSE(ensemble_->uproxy(0).StorageAlive(2));
  EXPECT_TRUE(ensemble_->uproxy(0).StorageAlive(1));

  ensemble_->storage_node(2).Restart();
  RunFor(FromMillis(800));
  EXPECT_TRUE(mgr.NodeAlive(NodeClass::kStorage, 2));
  EXPECT_EQ(mgr.current_epoch(), 3u);
  EXPECT_TRUE(ensemble_->uproxy(0).StorageAlive(2));
}

TEST_F(MgmtTest, MirroredWriteSurvivesNodeDeathAndResyncsOnRejoin) {
  EnsembleConfig config;
  config.num_storage_nodes = 4;
  config.num_small_file_servers = 0;
  config.default_replication = 2;
  Build(config);

  CreateRes created = client_->Create(root_, "mirrored").value();
  ASSERT_EQ(created.status, Nfsstat3::kOk);
  const FileHandle fh = *created.object;
  ASSERT_EQ(client_->Write(fh, 0, Pattern(32768, 1), StableHow::kFileSync).value().status,
            Nfsstat3::kOk);

  const uint32_t victim = ensemble_->uproxy(0).StripeSite(fh, 0, 0);
  ensemble_->storage_node(victim).Fail();
  RunFor(FromMillis(800));

  // Reads fail over to the surviving mirror; writes go degraded and are
  // logged with the coordinator against the dead replica.
  ReadRes read = client_->Read(fh, 0, 32768).value();
  EXPECT_EQ(read.status, Nfsstat3::kOk);
  EXPECT_EQ(read.data, Pattern(32768, 1));
  ASSERT_EQ(client_->Write(fh, 0, Pattern(32768, 2), StableHow::kFileSync).value().status,
            Nfsstat3::kOk);
  queue_.RunUntilIdle();
  EXPECT_GE(ensemble_->coordinator(0).degraded_count(victim), 1u);

  // Rejoin triggers mirror resync from the surviving replica.
  ensemble_->storage_node(victim).Restart();
  RunFor(FromMillis(800));
  queue_.RunUntilIdle();
  EXPECT_EQ(ensemble_->coordinator(0).degraded_count(victim), 0u);
  EXPECT_GE(ensemble_->coordinator(0).repairs_run(), 1u);
  SyncNfsClient direct(ensemble_->client_host(0), queue_,
                       ensemble_->storage_node(victim).endpoint());
  ReadRes healed = direct.Read(fh, 0, 32768).value();
  EXPECT_EQ(healed.status, Nfsstat3::kOk);
  EXPECT_EQ(healed.data, Pattern(32768, 2));
}

TEST_F(MgmtTest, DoubleFailureOfMirroredPairFailsFast) {
  EnsembleConfig config;
  config.num_storage_nodes = 2;
  config.num_small_file_servers = 0;
  config.default_replication = 2;
  Build(config);

  CreateRes created = client_->Create(root_, "doomed").value();
  ASSERT_EQ(created.status, Nfsstat3::kOk);
  const FileHandle fh = *created.object;
  ASSERT_EQ(client_->Write(fh, 0, Pattern(4096), StableHow::kFileSync).value().status,
            Nfsstat3::kOk);

  // With 2 nodes and 2-way mirroring, both replicas of every block are gone.
  ensemble_->storage_node(0).Fail();
  ensemble_->storage_node(1).Fail();
  RunFor(FromMillis(800));
  EXPECT_EQ(ensemble_->manager()->current_epoch(), 2u);  // one sweep, both dead

  // The µproxy fails the ops fast with an I/O error instead of hanging the
  // client in retransmission against dead nodes.
  ReadRes read = client_->Read(fh, 0, 4096).value();
  EXPECT_EQ(read.status, Nfsstat3::kErrIo);
  WriteRes write = client_->Write(fh, 0, Pattern(4096), StableHow::kFileSync).value();
  EXPECT_EQ(write.status, Nfsstat3::kErrIo);
}

TEST_F(MgmtTest, FailFastReplyToAForwardedRequestErasesItsPendingRecord) {
  EnsembleConfig config;
  config.num_storage_nodes = 2;
  config.num_small_file_servers = 1;
  Build(config);
  CreateRes created = client_->Create(root_, "small").value();
  ASSERT_EQ(created.status, Nfsstat3::kOk);
  const FileHandle fh = *created.object;
  ASSERT_EQ(client_->Write(fh, 0, Pattern(4096), StableHow::kFileSync).value().status,
            Nfsstat3::kOk);

  // The READ is forwarded to the small-file server, which dies before it
  // answers.
  Uproxy& uproxy = ensemble_->uproxy(0);
  ensemble_->small_file_server(0).Fail();
  std::optional<Nfsstat3> status;
  client_->async().Read(fh, 0, 4096, [&status](Status st, const ReadResView& res) {
    ASSERT_TRUE(st.ok());
    status = res.status;
  });
  RunFor(FromMillis(100));
  ASSERT_EQ(uproxy.pending_count(), 1u);

  // Once the manager declares the server dead, a client retransmission of
  // the forwarded READ is failed fast, and that reply ends its record.
  RunFor(FromSeconds(3));
  EXPECT_FALSE(uproxy.SfsAlive(0));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, Nfsstat3::kErrJukebox);
  EXPECT_EQ(uproxy.pending_count(), 0u);
}

TEST_F(MgmtTest, DirFailoverAdoptsSiteAndRebalancesOnRejoin) {
  EnsembleConfig config;
  config.num_dir_servers = 2;
  config.num_storage_nodes = 4;
  config.num_small_file_servers = 1;
  config.name_policy = NamePolicy::kNameHashing;
  Build(config);

  // Spread names across both servers; remember which server owns each.
  std::vector<std::string> names;
  for (int i = 0; i < 12; ++i) {
    names.push_back("f" + std::to_string(i));
    ASSERT_EQ(client_->Create(root_, names.back()).value().status, Nfsstat3::kOk);
  }
  ensemble_->dir_server(1).FlushLog();
  queue_.RunUntilIdle();
  ASSERT_GT(ensemble_->dir_server(1).store().entry_count(), 0u);

  ensemble_->dir_server(1).Fail();
  RunFor(FromMillis(800));
  EnsembleManager& mgr = *ensemble_->manager();
  EXPECT_FALSE(mgr.NodeAlive(NodeClass::kDir, 1));
  const uint64_t failover_epoch = mgr.current_epoch();
  EXPECT_GE(failover_epoch, 2u);
  RunFor(FromMillis(200));  // let the adoption replay finish
  EXPECT_TRUE(ensemble_->dir_server(0).adopted_sites().count(1) > 0);

  // Every name resolves with one server down — site 1 is served by its
  // adopter after WAL replay (jukebox while the replay is in flight).
  for (const std::string& name : names) {
    LookupRes found = RetryJukebox([&] { return client_->Lookup(root_, name).value(); });
    EXPECT_EQ(found.status, Nfsstat3::kOk) << name;
  }
  // Mutations during the outage land on the adopter.
  ASSERT_EQ(RetryJukebox([&] { return client_->Create(root_, "during-outage").value(); }).status,
            Nfsstat3::kOk);

  // Rejoin: fresh epoch, state handed back, adopter holds nothing.
  ensemble_->dir_server(1).Restart();
  RunFor(FromMillis(1500));
  EXPECT_TRUE(mgr.NodeAlive(NodeClass::kDir, 1));
  EXPECT_GT(mgr.current_epoch(), failover_epoch);
  EXPECT_TRUE(ensemble_->dir_server(0).adopted_sites().empty());
  EXPECT_FALSE(ensemble_->dir_server(0).adopting());
  for (const std::string& name : names) {
    LookupRes found = RetryJukebox([&] { return client_->Lookup(root_, name).value(); });
    EXPECT_EQ(found.status, Nfsstat3::kOk) << name;
  }
  EXPECT_EQ(RetryJukebox([&] { return client_->Lookup(root_, "during-outage").value(); }).status,
            Nfsstat3::kOk);
}

TEST_F(MgmtTest, ReaddirAfterThirdPartyAdoptionListsEachNameOnce) {
  // Regression: with three dir servers, dead dir1's site is bound to the
  // next live server, dir2, so the peer table reads [dir0, dir2, dir2].
  // READDIR must visit the adopter once, not once per site it serves.
  EnsembleConfig config;
  config.num_dir_servers = 3;
  config.num_storage_nodes = 4;
  config.num_small_file_servers = 1;
  config.name_policy = NamePolicy::kNameHashing;
  Build(config);

  std::vector<std::string> names;
  for (int i = 0; i < 30; ++i) {
    names.push_back("adopt" + std::to_string(i));
    ASSERT_EQ(client_->Create(root_, names.back()).value().status, Nfsstat3::kOk);
  }
  ensemble_->dir_server(1).FlushLog();
  queue_.RunUntilIdle();
  ASSERT_GT(ensemble_->dir_server(1).store().entry_count(), 0u);

  ensemble_->dir_server(1).Fail();
  RunFor(FromMillis(1000));  // declare dir1 dead, let dir2 replay its log
  ASSERT_FALSE(ensemble_->manager()->NodeAlive(NodeClass::kDir, 1));
  ASSERT_TRUE(ensemble_->dir_server(2).adopted_sites().count(1) > 0);

  Result<std::vector<DirEntry>> listed = client_->ReadWholeDir(root_);
  for (int attempt = 0; !listed.ok() && attempt < 50; ++attempt) {
    RunFor(FromMillis(10));  // jukebox while a table install is in flight
    listed = client_->ReadWholeDir(root_);
  }
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  std::map<std::string, int> seen;
  for (const DirEntry& entry : *listed) {
    ++seen[entry.name];
  }
  EXPECT_EQ(listed->size(), names.size());
  for (const std::string& name : names) {
    EXPECT_EQ(seen[name], 1) << name;
  }
}

TEST_F(MgmtTest, StaleEpochMisdirectTriggersTableReload) {
  EnsembleConfig config;
  config.num_dir_servers = 2;
  config.num_storage_nodes = 4;
  config.num_small_file_servers = 1;
  config.name_policy = NamePolicy::kNameHashing;
  Build(config);

  for (int i = 0; i < 12; ++i) {
    ASSERT_EQ(client_->Create(root_, "s" + std::to_string(i)).value().status, Nfsstat3::kOk);
  }
  ensemble_->dir_server(1).FlushLog();
  queue_.RunUntilIdle();

  // Fail server 1 and capture the failover tables (site 1 bound to 0), then
  // bring it back so the cluster moves on to a fresher epoch.
  ensemble_->dir_server(1).Fail();
  RunFor(FromMillis(900));
  const MgmtTableSet failover_tables = ensemble_->manager()->tables();
  ensemble_->dir_server(1).Restart();
  RunFor(FromMillis(1500));
  const uint64_t fresh_epoch = ensemble_->manager()->current_epoch();
  ASSERT_GT(fresh_epoch, failover_tables.epoch);
  ASSERT_EQ(ensemble_->uproxy(0).table_epoch(), fresh_epoch);

  // Simulate a µproxy that missed the rejoin push: force the stale failover
  // tables back in. Its requests for server-1 names now land on server 0,
  // which answers jukebox plus a misdirect notice; the µproxy fetches the
  // fresh tables from the manager and the retried op succeeds.
  ASSERT_TRUE(ensemble_->uproxy(0).InstallTables(failover_tables, /*force=*/true));
  ASSERT_EQ(ensemble_->uproxy(0).table_epoch(), failover_tables.epoch);
  const uint64_t misdirects_before = ensemble_->dir_server(0).misdirects_answered();

  for (int i = 0; i < 12; ++i) {
    LookupRes found =
        RetryJukebox([&] { return client_->Lookup(root_, "s" + std::to_string(i)).value(); });
    EXPECT_EQ(found.status, Nfsstat3::kOk) << i;
  }
  EXPECT_GT(ensemble_->dir_server(0).misdirects_answered(), misdirects_before);
  EXPECT_EQ(ensemble_->uproxy(0).table_epoch(), fresh_epoch);
  EXPECT_GT(ensemble_->uproxy(0).counters().Get("table_fetches"), 0u);
}

TEST_F(MgmtTest, FlappingDirRejoinMidAdoptionKeepsEpochsSane) {
  // Regression: a node that rejoins while its site is still being adopted
  // must not corrupt the epoch sequence or get its site adopted twice. The
  // restart lands within one sweep of the death declaration, so the
  // adopter's WAL replay and the rejoin race — the deferred-handoff path.
  EnsembleConfig config;
  config.num_dir_servers = 2;
  config.num_storage_nodes = 4;
  config.num_small_file_servers = 1;
  config.name_policy = NamePolicy::kNameHashing;
  config.eventlog = {.enabled = true};
  Build(config);

  std::vector<std::string> names;
  for (int i = 0; i < 12; ++i) {
    names.push_back("flap" + std::to_string(i));
    ASSERT_EQ(client_->Create(root_, names.back()).value().status, Nfsstat3::kOk);
  }
  ensemble_->dir_server(1).FlushLog();
  queue_.RunUntilIdle();

  EnsembleManager& mgr = *ensemble_->manager();
  uint64_t last_epoch = mgr.current_epoch();
  for (int cycle = 0; cycle < 2; ++cycle) {
    ensemble_->dir_server(1).Fail();
    // Restart as soon as the manager declares the node dead: the adoption
    // kicked off by that very sweep is still replaying the WAL.
    for (int i = 0; i < 400 && mgr.NodeAlive(NodeClass::kDir, 1); ++i) {
      RunFor(FromMillis(5));
    }
    ASSERT_FALSE(mgr.NodeAlive(NodeClass::kDir, 1)) << "cycle " << cycle;
    const uint64_t dead_epoch = mgr.current_epoch();
    EXPECT_GT(dead_epoch, last_epoch) << "cycle " << cycle;
    ensemble_->dir_server(1).Restart();

    RunFor(FromMillis(1500));  // rejoin, finish adoption, hand the site back
    EXPECT_TRUE(mgr.NodeAlive(NodeClass::kDir, 1)) << "cycle " << cycle;
    EXPECT_GT(mgr.current_epoch(), dead_epoch) << "cycle " << cycle;
    EXPECT_TRUE(ensemble_->dir_server(0).adopted_sites().empty()) << "cycle " << cycle;
    EXPECT_FALSE(ensemble_->dir_server(0).adopting()) << "cycle " << cycle;
    last_epoch = mgr.current_epoch();

    // The namespace survived the flap intact.
    for (const std::string& name : names) {
      LookupRes found = RetryJukebox([&] { return client_->Lookup(root_, name).value(); });
      EXPECT_EQ(found.status, Nfsstat3::kOk) << name << " cycle " << cycle;
    }
  }

  // Replay the event log through the chaos invariant checker: epochs
  // monotone, no double adoption, every failure episode closed.
  chaos::InvariantBounds bounds;
  bounds.expect_adoption = true;
  chaos::InvariantReport report =
      chaos::CheckInvariants(ensemble_->eventlog()->Collect(), bounds);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.epoch_bumps, 4u);  // two deaths + two rejoins
}

TEST_F(MgmtTest, DisabledMgmtRunsNoManager) {
  EnsembleConfig config;
  config.mgmt.enabled = false;
  Build(config);
  EXPECT_EQ(ensemble_->manager(), nullptr);
  ASSERT_EQ(client_->Create(root_, "plain").value().status, Nfsstat3::kOk);
  RunFor(FromMillis(500));  // no heartbeat traffic to run; just works
  EXPECT_EQ(client_->Lookup(root_, "plain").value().status, Nfsstat3::kOk);
}

}  // namespace
}  // namespace slice
