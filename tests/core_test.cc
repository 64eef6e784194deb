// Unit tests for the µproxy building blocks: routing table, request decode,
// attribute cache, and route selection on a real µproxy instance.
#include <gtest/gtest.h>

#include <set>

#include <unordered_map>

#include "src/common/rng.h"
#include "src/core/attr_cache.h"
#include "src/core/pending_map.h"
#include "src/core/request_decode.h"
#include "src/core/routing_table.h"
#include "src/core/uproxy.h"
#include "src/slice/ensemble.h"

namespace slice {
namespace {

constexpr uint64_t kSecret = 0x51ce2000;

FileHandle RegFh(uint64_t fileid, uint8_t replication = 1) {
  return FileHandle::Make(1, fileid, 1, FileType3::kReg, replication, kSecret);
}
FileHandle DirFh(uint64_t fileid) {
  return FileHandle::Make(1, fileid, 1, FileType3::kDir, 1, kSecret);
}

TEST(RoutingTableTest, RoundRobinFill) {
  std::vector<Endpoint> servers{{1, 1}, {2, 1}, {3, 1}};
  RoutingTable table(9, servers);
  EXPECT_EQ(table.logical_slots(), 9u);
  EXPECT_EQ(table.physical_count(), 3u);
  EXPECT_EQ(table.Lookup(0).addr, 1u);
  EXPECT_EQ(table.Lookup(1).addr, 2u);
  EXPECT_EQ(table.Lookup(3).addr, 1u);
}

TEST(RoutingTableTest, RebindMovesOneSlot) {
  std::vector<Endpoint> servers{{1, 1}, {2, 1}};
  RoutingTable table(4, servers);
  EXPECT_EQ(table.Lookup(0).addr, 1u);
  table.Rebind(0, 1);
  EXPECT_EQ(table.Lookup(0).addr, 2u);
  EXPECT_EQ(table.Lookup(2).addr, 1u);  // others untouched
}

TEST(RoutingTableTest, ReloadRemaps) {
  RoutingTable table(8, {{1, 1}});
  table.Reload({{1, 1}, {2, 1}, {3, 1}, {4, 1}});
  EXPECT_EQ(table.physical_count(), 4u);
  std::set<NetAddr> seen;
  for (uint64_t k = 0; k < 8; ++k) {
    seen.insert(table.Lookup(k).addr);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RoutingTableDeathTest, EmptyTableLookupAborts) {
  RoutingTable table;
  ASSERT_TRUE(table.empty());
  EXPECT_DEATH(table.SlotFor(7), "slots_");
  EXPECT_DEATH(table.Lookup(7), "servers_");
  EXPECT_DEATH(table.ByPhysical(0), "servers_");
}

TEST(RoutingTableTest, EpochStampsAndInstallAssignment) {
  RoutingTable table(4, {{1, 1}, {2, 1}});
  EXPECT_EQ(table.epoch(), 0u);
  table.InstallAssignment(7, {{1, 1}, {2, 1}}, {1, 1, 0, 1});
  EXPECT_EQ(table.epoch(), 7u);
  EXPECT_EQ(table.BySlot(0).addr, 2u);
  EXPECT_EQ(table.BySlot(2).addr, 1u);
  EXPECT_EQ(table.PhysicalIndexOfSlot(3), 1u);
}

TEST(RoutingTableDeathTest, InstallAssignmentRejectsOutOfRangeSlot) {
  RoutingTable table(4, {{1, 1}, {2, 1}});
  EXPECT_DEATH(table.InstallAssignment(2, {{1, 1}, {2, 1}}, {0, 2}), "servers");
}

Bytes EncodeCall(NfsProc proc, const std::function<void(XdrEncoder&)>& args) {
  RpcCall call;
  call.xid = 42;
  call.prog = kNfsProgram;
  call.vers = kNfsVersion;
  call.proc = static_cast<uint32_t>(proc);
  XdrEncoder enc;
  args(enc);
  call.args = enc.Take();
  return call.Encode();
}

// Decodes `wire` into a view, failing the test on a decode error.
DecodedView DecodeView(const Bytes& wire) {
  DecodedView view;
  EXPECT_TRUE(DecodeNfsRequestView(wire, &view).ok());
  return view;
}

TEST(RequestDecodeTest, ReadFields) {
  const Bytes wire = EncodeCall(NfsProc::kRead, [](XdrEncoder& enc) {
    ReadArgs{RegFh(7), 65536, 32768}.Encode(enc);
  });
  const DecodedView req = DecodeView(wire);
  EXPECT_EQ(req.proc, NfsProc::kRead);
  EXPECT_EQ(req.fh.fileid(), 7u);
  EXPECT_EQ(req.offset, 65536u);
  EXPECT_EQ(req.count, 32768u);
  EXPECT_EQ(req.xid, 42u);
}

TEST(RequestDecodeTest, WriteCarriesStability) {
  const Bytes wire = EncodeCall(NfsProc::kWrite, [](XdrEncoder& enc) {
    WriteArgs args;
    args.file = RegFh(9);
    args.offset = 100;
    args.count = 3;
    args.stable = StableHow::kFileSync;
    args.data = {1, 2, 3};
    args.Encode(enc);
  });
  const DecodedView req = DecodeView(wire);
  EXPECT_EQ(req.stable, StableHow::kFileSync);
  EXPECT_EQ(req.count, 3u);
}

TEST(RequestDecodeTest, LookupName) {
  const Bytes wire = EncodeCall(NfsProc::kLookup, [](XdrEncoder& enc) {
    DirOpArgs{DirFh(1), "target"}.Encode(enc);
  });
  const DecodedView req = DecodeView(wire);
  EXPECT_EQ(req.name(wire), "target");
  EXPECT_TRUE(req.fh.IsDir());
}

TEST(RequestDecodeTest, RenameBothPairs) {
  const Bytes wire = EncodeCall(NfsProc::kRename, [](XdrEncoder& enc) {
    RenameArgs{DirFh(1), "a", DirFh(2), "b"}.Encode(enc);
  });
  const DecodedView req = DecodeView(wire);
  EXPECT_EQ(req.name(wire), "a");
  EXPECT_EQ(req.name2(wire), "b");
  EXPECT_EQ(req.fh2.fileid(), 2u);
}

TEST(RequestDecodeTest, LinkRoutesByDirEntry) {
  const Bytes wire = EncodeCall(NfsProc::kLink, [](XdrEncoder& enc) {
    LinkArgs{RegFh(9), DirFh(1), "alias"}.Encode(enc);
  });
  const DecodedView req = DecodeView(wire);
  EXPECT_EQ(req.fh.fileid(), 1u);   // the directory
  EXPECT_EQ(req.fh2.fileid(), 9u);  // the file
  EXPECT_EQ(req.name(wire), "alias");
}

TEST(RequestDecodeTest, SetattrSizeExtraction) {
  const Bytes wire = EncodeCall(NfsProc::kSetattr, [](XdrEncoder& enc) {
    SetattrArgs args;
    args.object = RegFh(3);
    args.new_attributes.size = 777;
    args.Encode(enc);
  });
  const DecodedView req = DecodeView(wire);
  EXPECT_EQ(req.offset, 777u);
  EXPECT_EQ(req.count, 1u);
}

TEST(RequestDecodeTest, NonNfsRejected) {
  RpcCall call;
  call.prog = 200001;  // not NFS
  DecodedView req;
  EXPECT_FALSE(DecodeNfsRequestView(call.Encode(), &req).ok());
}

// A GETATTR call whose AUTH_SYS credential body is `body`, built by hand.
Bytes GetattrCallWithAuthSysBody(const Bytes& body) {
  XdrEncoder cred;
  cred.PutUint32(static_cast<uint32_t>(RpcAuthFlavor::kSys));
  cred.PutOpaqueVar(body);
  XdrEncoder enc;
  EncodeCallHeader(enc, 9, kNfsProgram, kNfsVersion, static_cast<uint32_t>(NfsProc::kGetattr),
                   cred.bytes());
  GetattrArgs{RegFh(3)}.Encode(enc);
  return enc.Take();
}

// An AUTH_SYS body: stamp, machine name, uid (the tenant tag), gid and
// `gids` gids.
Bytes AuthSysBody(const std::string& name, uint32_t uid, uint32_t gids) {
  XdrEncoder body;
  body.PutUint32(1);
  body.PutString(name);
  body.PutUint32(uid);
  body.PutUint32(0);
  body.PutUint32(gids);
  for (uint32_t g = 0; g < gids; ++g) {
    body.PutUint32(g);
  }
  return body.Take();
}

TEST(RequestDecodeTest, MalformedAuthSysCallsPassThrough) {
  // The µproxy reads the header with the servers' walk, so it rejects (and
  // passes through untouched) exactly the credentials a server would drop.
  DecodedView req;
  ASSERT_TRUE(DecodeNfsRequestView(GetattrCallWithAuthSysBody(AuthSysBody("h", 3, 16)), &req)
                  .ok());
  EXPECT_EQ(req.tenant, 3u);
  EXPECT_EQ(req.fh, RegFh(3));

  Bytes past_end = AuthSysBody("h", 3, 2);
  past_end.resize(past_end.size() - 4);  // the second gid lies past the body
  for (const Bytes& body : {AuthSysBody("h", 3, 17), AuthSysBody(std::string(256, 'm'), 3, 0),
                            past_end}) {
    EXPECT_FALSE(DecodeNfsRequestView(GetattrCallWithAuthSysBody(body), &req).ok());
  }
}

TEST(AttrCacheTest, WriteUpdatesSizeAndDirties) {
  AttrCache cache(16);
  cache.NoteWrite(5, 1000, NfsTime{10, 0});
  const AttrCache::Entry* entry = cache.Find(5);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->attr.size, 1000u);
  EXPECT_TRUE(entry->dirty);
  EXPECT_EQ(cache.DirtyFiles().size(), 1u);
}

TEST(AttrCacheTest, MergeKeepsFresherLocalView) {
  AttrCache cache(16);
  cache.NoteWrite(5, 9999, NfsTime{100, 0});
  Fattr3 server_attr;
  server_attr.fileid = 5;
  server_attr.size = 100;  // stale
  server_attr.mtime = NfsTime{1, 0};
  server_attr.nlink = 3;
  cache.MergeFromReply(5, server_attr);
  const AttrCache::Entry* entry = cache.Find(5);
  EXPECT_EQ(entry->attr.size, 9999u);  // ours wins
  EXPECT_EQ(entry->attr.mtime.seconds, 100u);
  EXPECT_EQ(entry->attr.nlink, 3u);  // server fields adopted
}

TEST(AttrCacheTest, CleanEntryAdoptsServerView) {
  AttrCache cache(16);
  Fattr3 attr;
  attr.fileid = 7;
  attr.size = 123;
  cache.MergeFromReply(7, attr);
  attr.size = 456;
  cache.MergeFromReply(7, attr);
  EXPECT_EQ(cache.Find(7)->attr.size, 456u);
}

TEST(AttrCacheTest, EvictionSurfacesDirtyEntries) {
  AttrCache cache(2);
  cache.NoteWrite(1, 100, NfsTime{1, 0});
  cache.NoteWrite(2, 200, NfsTime{2, 0});
  cache.NoteWrite(3, 300, NfsTime{3, 0});  // evicts 1
  auto evicted = cache.TakeEvictedDirty();
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].first, 1u);
  EXPECT_EQ(evicted[0].second.size, 100u);
  EXPECT_TRUE(cache.TakeEvictedDirty().empty());
}

TEST(AttrCacheTest, MarkCleanStopsWriteback) {
  AttrCache cache(16);
  cache.NoteWrite(1, 100, NfsTime{1, 0});
  cache.MarkClean(1);
  EXPECT_TRUE(cache.DirtyFiles().empty());
}

TEST(AttrCacheTest, NoteReadOnUncachedIsNoop) {
  AttrCache cache(16);
  cache.NoteRead(5, NfsTime{1, 0});
  EXPECT_EQ(cache.Find(5), nullptr);
}

// --- route selection through a real µproxy (tiny ensemble) ---

class RouteSelectionTest : public ::testing::Test {
 protected:
  RouteSelectionTest() {
    EnsembleConfig config;
    config.num_dir_servers = 3;
    config.num_small_file_servers = 2;
    config.num_storage_nodes = 4;
    config.num_coordinators = 1;
    ensemble_ = std::make_unique<Ensemble>(queue_, config);
  }

  // Routes one encoded call the way the µproxy does: single-pass view
  // decode, then route selection over the view and its payload.
  Uproxy::RouteDecision Route(const Bytes& wire) {
    return ensemble_->uproxy(0).SelectRoute(DecodeView(wire), wire);
  }

  static Bytes Read(const FileHandle& fh, uint64_t offset) {
    return EncodeCall(NfsProc::kRead,
                      [&](XdrEncoder& enc) { ReadArgs{fh, offset, 8192}.Encode(enc); });
  }

  EventQueue queue_;
  std::unique_ptr<Ensemble> ensemble_;
};

TEST_F(RouteSelectionTest, SmallIoBelowThreshold) {
  EXPECT_EQ(Route(Read(RegFh(MakeFileid(0, 5)), 0)).cls, Uproxy::RouteClass::kSmallFile);
  EXPECT_EQ(Route(Read(RegFh(MakeFileid(0, 5)), 65535)).cls, Uproxy::RouteClass::kSmallFile);
}

TEST_F(RouteSelectionTest, BulkIoAboveThreshold) {
  EXPECT_EQ(Route(Read(RegFh(MakeFileid(0, 5)), 65536)).cls, Uproxy::RouteClass::kStorage);
}

TEST_F(RouteSelectionTest, StripingSpreadsBlocks) {
  std::set<uint32_t> nodes;
  for (uint64_t off = 65536; off < 65536 + 8ull * 32768; off += 32768) {
    nodes.insert(Route(Read(RegFh(MakeFileid(0, 5)), off)).storage_index);
  }
  EXPECT_EQ(nodes.size(), 4u);  // all four storage nodes hit
}

TEST_F(RouteSelectionTest, MirroredWritesAbsorb) {
  const Bytes wire = EncodeCall(NfsProc::kWrite, [](XdrEncoder& enc) {
    WriteArgs args;
    args.file = RegFh(MakeFileid(0, 5), /*replication=*/2);
    args.offset = 1 << 20;
    args.Encode(enc);
  });
  EXPECT_EQ(Route(wire).cls, Uproxy::RouteClass::kMirrorWrite);
}

TEST_F(RouteSelectionTest, MirroredReadsAlternateReplicas) {
  const FileHandle fh = RegFh(MakeFileid(0, 5), /*replication=*/2);
  const uint32_t a = Route(Read(fh, 1 << 20)).storage_index;
  const uint32_t b = Route(Read(fh, (1 << 20) + 32768)).storage_index;
  EXPECT_NE(a, b);
}

TEST_F(RouteSelectionTest, NameOpsFollowParentSite) {
  const Bytes wire = EncodeCall(NfsProc::kLookup, [](XdrEncoder& enc) {
    DirOpArgs{DirFh(MakeFileid(2, 9)), "x"}.Encode(enc);
  });
  EXPECT_TRUE(Route(wire).target == ensemble_->dir_server(2).endpoint());
}

TEST_F(RouteSelectionTest, GetattrFollowsEmbeddedSite) {
  const Bytes wire = EncodeCall(NfsProc::kGetattr, [](XdrEncoder& enc) {
    GetattrArgs{RegFh(MakeFileid(1, 3))}.Encode(enc);
  });
  EXPECT_TRUE(Route(wire).target == ensemble_->dir_server(1).endpoint());
}

TEST_F(RouteSelectionTest, MkdirSwitchingRedirectsSome) {
  int redirected = 0;
  constexpr int kTrials = 400;
  for (int i = 0; i < kTrials; ++i) {
    const Bytes wire = EncodeCall(NfsProc::kMkdir, [i](XdrEncoder& enc) {
      MkdirArgs args;
      args.dir = DirFh(MakeFileid(0, 1));
      args.name = "dir" + std::to_string(i);
      args.Encode(enc);
    });
    if (!(Route(wire).target == ensemble_->dir_server(0).endpoint())) {
      ++redirected;
    }
  }
  // p = 0.25, but a redirect can hash back to the parent's own server
  // (1/3 of the time with 3 servers): expect roughly 0.25 * 2/3 ≈ 17%.
  EXPECT_GT(redirected, kTrials / 10);
  EXPECT_LT(redirected, kTrials / 3);
}

TEST_F(RouteSelectionTest, CommitFansOut) {
  const Bytes wire = EncodeCall(NfsProc::kCommit, [](XdrEncoder& enc) {
    CommitArgs{RegFh(MakeFileid(0, 5)), 0, 0}.Encode(enc);
  });
  EXPECT_EQ(Route(wire).cls, Uproxy::RouteClass::kMultiCommit);
}

TEST_F(RouteSelectionTest, DeterministicAcrossCalls) {
  const Bytes wire = Read(RegFh(MakeFileid(0, 123)), 1 << 20);
  const auto first = Route(wire);
  for (int i = 0; i < 10; ++i) {
    const auto again = Route(wire);
    EXPECT_EQ(again.storage_index, first.storage_index);
    EXPECT_TRUE(again.target == first.target);
  }
}

// --- FlatU64Map (the pending-request table) vs. a reference map ---
//
// Backward-shift deletion is the delicate part: a wrong "stays" predicate
// corrupts probe chains only when clusters wrap the table edge or collide
// densely, so the keys here are drawn from a small range to force both.

TEST(FlatU64MapTest, RandomizedOpsMatchUnorderedMap) {
  Rng rng(0xf1a7);
  FlatU64Map<uint64_t> map(16);
  std::unordered_map<uint64_t, uint64_t> ref;
  for (int step = 0; step < 20000; ++step) {
    const uint64_t key = rng.NextBelow(97);  // dense: forces clusters + wrap
    switch (rng.NextBelow(4)) {
      case 0:
      case 1: {  // insert / overwrite
        const uint64_t value = rng.NextU64();
        auto [slot, inserted] = map.Insert(key);
        EXPECT_EQ(inserted, ref.find(key) == ref.end());
        *slot = value;
        ref[key] = value;
        break;
      }
      case 2: {  // erase
        EXPECT_EQ(map.Erase(key), ref.erase(key) > 0);
        break;
      }
      default: {  // find
        uint64_t* found = map.Find(key);
        auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end());
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), ref.size());
  }
  // Full-content check via ForEach, then Clear.
  std::unordered_map<uint64_t, uint64_t> walked;
  map.ForEach([&](uint64_t k, const uint64_t& v) { walked.emplace(k, v); });
  EXPECT_EQ(walked, ref);
  map.Clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(1), nullptr);
}

TEST(FlatU64MapTest, GrowthPreservesEntriesAndPointersStayValidUntilMutation) {
  FlatU64Map<uint32_t> map(16);
  for (uint64_t k = 0; k < 1000; ++k) {
    *map.Insert(k * 0x9e3779b97f4a7c15ull).first = static_cast<uint32_t>(k);
  }
  EXPECT_EQ(map.size(), 1000u);
  for (uint64_t k = 0; k < 1000; ++k) {
    uint32_t* v = map.Find(k * 0x9e3779b97f4a7c15ull);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k);
  }
}

}  // namespace
}  // namespace slice
