// Unit tests for the directory service: name/attr cell store, READDIR paging
// over several stores, NFS name-space semantics, cross-site peer operations
// under both placement policies, failover handoff and slot re-striping, and
// WAL-based crash recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "src/common/rng.h"
#include "src/dir/dir_server.h"
#include "src/nfs/nfs_client.h"
#include "src/storage/storage_node.h"

namespace slice {
namespace {

constexpr uint64_t kSecret = 0xd00d;
constexpr NetAddr kStorageAddr = 0x0a000020;
constexpr NetAddr kClientAddr = 0x0a000001;

FileHandle BackingObjectFor(uint32_t site) {
  return FileHandle::Make(1, (0xffull << 48) | site, 1, FileType3::kReg, 1, kSecret);
}

TEST(DirStoreTest, InsertFindErase) {
  DirStore store;
  FileHandle child = FileHandle::Make(1, 5, 1, FileType3::kReg, 1, kSecret);
  EXPECT_TRUE(store.InsertEntry(1, "a", child).ok());
  EXPECT_EQ(store.FindEntry(1, "a").value(), child);
  EXPECT_EQ(store.InsertEntry(1, "a", child).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(store.EraseEntry(1, "a").ok());
  EXPECT_EQ(store.FindEntry(1, "a").status().code(), StatusCode::kNotFound);
}

TEST(DirStoreTest, ListDirIsNameOrdered) {
  DirStore store;
  for (const char* name : {"zeta", "alpha", "mid"}) {
    ASSERT_TRUE(
        store.InsertEntry(1, name, FileHandle::Make(1, 2, 1, FileType3::kReg, 1, kSecret)).ok());
  }
  std::span<const NameCell> list = store.Entries(1);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].name, "alpha");
  EXPECT_EQ(list[2].name, "zeta");
  EXPECT_EQ(store.CountDir(1), 3u);
  EXPECT_EQ(store.CountDir(99), 0u);
  EXPECT_TRUE(store.Entries(99).empty());
}

TEST(DirStoreTest, EmptiedDirectoryDropsItsTable) {
  DirStore store;
  const FileHandle child = FileHandle::Make(1, 2, 1, FileType3::kReg, 1, kSecret);
  ASSERT_TRUE(store.InsertEntry(7, "only", child).ok());
  ASSERT_TRUE(store.InsertEntry(8, "other", child).ok());
  EXPECT_EQ(store.entry_count(), 2u);
  ASSERT_TRUE(store.EraseEntry(7, "only").ok());
  EXPECT_EQ(store.EraseEntry(7, "only").code(), StatusCode::kNotFound);
  EXPECT_EQ(store.entry_count(), 1u);
  std::vector<uint64_t> dirs;
  store.ForEachEntry([&](uint64_t dir_id, const NameCell&) { dirs.push_back(dir_id); });
  EXPECT_EQ(dirs, std::vector<uint64_t>{8});
}

// --- READDIR paging over several stores, against the pre-merge reference ---

struct PageEntry {
  std::string name;
  uint64_t fileid = 0;
  uint64_t cookie = 0;
  bool operator==(const PageEntry&) const = default;
};

struct Page {
  std::vector<PageEntry> entries;
  bool eof = true;
  bool operator==(const Page&) const = default;
};

uint32_t ReaddirEntrySize(const std::string& name, bool plus) {
  return static_cast<uint32_t>(24 + name.size()) +
         (plus ? kFattr3WireSize + FileHandle::kSize + 12 : 0);
}

// The listing READDIR paged before the merge: every store's entries of the
// directory, concatenated in store order and stable-sorted by name.
std::vector<NameCell> ReferenceListing(const std::vector<const DirStore*>& stores,
                                       uint64_t dir_id) {
  std::vector<NameCell> all;
  for (const DirStore* store : stores) {
    const std::span<const NameCell> table = store->Entries(dir_id);
    all.insert(all.end(), table.begin(), table.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const NameCell& a, const NameCell& b) { return a.name < b.name; });
  return all;
}

// Slices the reference listing from the rank cookie under the budget rule.
Page ReferencePage(const std::vector<NameCell>& all, uint64_t cookie, uint32_t count, bool plus) {
  Page page;
  const uint32_t budget = std::max<uint32_t>(count, 512);
  uint32_t used = 0;
  for (size_t i = cookie; i < all.size(); ++i) {
    const uint32_t size = ReaddirEntrySize(all[i].name, plus);
    if (used + size > budget) {
      page.eof = false;
      break;
    }
    used += size;
    page.entries.push_back({all[i].name, all[i].child.fileid(), i + 1});
  }
  return page;
}

Page MergedPage(const std::vector<const DirStore*>& stores, uint64_t dir_id, uint64_t cookie,
                uint32_t count, bool plus) {
  Page page;
  page.eof = ReaddirPage(stores, dir_id, cookie, count, plus,
                         [&](const NameCell& cell, uint64_t next) {
                           page.entries.push_back({cell.name, cell.child.fileid(), next});
                         });
  return page;
}

TEST(ReaddirPageTest, SeekAndMergeMatchSortedUnionReference) {
  uint64_t pages_checked = 0;
  for (uint64_t trial = 1; trial <= 120; ++trial) {
    Rng rng(trial);
    // Mostly 1-4 stores; every tenth trial has more stores than the merge
    // keeps cursors for in place.
    std::vector<DirStore> stores(trial % 10 == 0 ? 9 + rng.NextBelow(3) : 1 + rng.NextBelow(4));
    std::vector<const DirStore*> views;
    for (const DirStore& store : stores) {
      views.push_back(&store);
    }
    // Random inserts and erases over a shared name pool, so a name can sit
    // in two stores at once. One name in five is 300-600 bytes long, so a
    // single entry can overflow the 512-byte budget floor.
    const uint64_t ops = rng.NextBelow(400);
    for (uint64_t op = 0; op < ops; ++op) {
      DirStore& store = stores[rng.NextBelow(stores.size())];
      const uint64_t dir_id = 1 + rng.NextBelow(2);
      const uint64_t pick = rng.NextBelow(150);
      std::string name = "n" + std::to_string(pick);
      if (pick % 5 == 0) {
        name += std::string(300 + 2 * pick, 'x');
      }
      if (rng.NextBool(0.7)) {
        (void)store.InsertEntry(
            dir_id, name, FileHandle::Make(1, 1000 + op, 1, FileType3::kReg, 1, kSecret));
      } else {
        (void)store.EraseEntry(dir_id, name);
      }
    }
    for (uint64_t dir_id : {1, 2, 3}) {
      const std::vector<NameCell> all = ReferenceListing(views, dir_id);
      const uint64_t total = all.size();
      std::set<uint64_t> cookies = {0, total, total + 3};
      if (total > 0) {
        cookies.insert({1, total / 2, total - 1, rng.NextBelow(total)});
      }
      for (const uint64_t cookie : cookies) {
        for (const bool plus : {false, true}) {
          std::set<uint32_t> counts = {0, 100, 511, 512, 1u << 30};
          if (cookie < total) {
            const uint32_t first = ReaddirEntrySize(all[cookie].name, plus);
            counts.insert({first - 1, first, first + 1});
            if (cookie + 1 < total) {
              counts.insert(first + ReaddirEntrySize(all[cookie + 1].name, plus));
            }
          }
          for (const uint32_t count : counts) {
            ASSERT_EQ(MergedPage(views, dir_id, cookie, count, plus),
                      ReferencePage(all, cookie, count, plus))
                << "trial " << trial << " stores " << stores.size() << " dir " << dir_id
                << " cookie " << cookie << "/" << total << " count " << count << " plus "
                << plus;
            ++pages_checked;
          }
        }
      }
    }
  }
  EXPECT_GT(pages_checked, 10000u);
}

TEST(DirStoreTest, AttrCells) {
  DirStore store;
  Fattr3 attr;
  attr.fileid = 9;
  EXPECT_TRUE(store.InsertAttr(9, attr).ok());
  ASSERT_NE(store.FindAttr(9), nullptr);
  EXPECT_EQ(store.FindAttr(9)->attr.fileid, 9u);
  EXPECT_TRUE(store.EraseAttr(9).ok());
  EXPECT_EQ(store.FindAttr(9), nullptr);
}

TEST(DirStoreTest, FingerprintsRouteConsistently) {
  FileHandle parent = FileHandle::Make(1, 1, 1, FileType3::kDir, 1, kSecret);
  const uint64_t a = NameFingerprint(parent, "x");
  const uint64_t b = NameFingerprint(parent, "x");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, NameFingerprint(parent, "y"));
}

TEST(FileidTest, SiteEmbedding) {
  const uint64_t id = MakeFileid(3, 77);
  EXPECT_EQ(SiteOfFileid(id), 3u);
  EXPECT_EQ(id & 0xffffffffffffull, 77u);
  EXPECT_EQ(SiteOfFileid(kRootFileid), 0u);
}

// Test fixture with N directory servers, a storage node for WAL backing, and
// a sync client that can be pointed at any server (standing in for the
// µproxy's routing decisions).
class DirServerTest : public ::testing::Test {
 protected:
  static constexpr int kSites = 3;

  explicit DirServerTest(NamePolicy policy = NamePolicy::kMkdirSwitching)
      : net_(queue_, NetworkParams{}) {
    StorageNodeParams snp;
    snp.volume_secret = kSecret;
    storage_ = std::make_unique<StorageNode>(net_, queue_, kStorageAddr, snp);

    std::vector<DirServer*> peers;
    for (uint32_t site = 0; site < kSites; ++site) {
      DirServerParams params;
      params.site = site;
      params.num_sites = kSites;
      params.volume_secret = kSecret;
      params.policy = policy;
      params.backing_node = storage_->endpoint();
      params.backing_object = BackingObjectFor(site);
      servers_.push_back(std::make_unique<DirServer>(
          net_, queue_, 0x0a000030 + site, params));
      peers.push_back(servers_.back().get());
    }
    for (auto& server : servers_) {
      server->SetPeers(peers);
    }
    client_host_ = std::make_unique<Host>(net_, kClientAddr);
    for (uint32_t site = 0; site < kSites; ++site) {
      clients_.push_back(std::make_unique<SyncNfsClient>(*client_host_, queue_,
                                                         servers_[site]->endpoint()));
    }
    root_ = servers_[0]->RootHandle();
  }

  // The µproxy's fileID-keyed routing: ops on a directory go to its site.
  SyncNfsClient& At(const FileHandle& fh) {
    return *clients_[SiteOfFileid(fh.fileid()) % kSites];
  }
  SyncNfsClient& AtSite(uint32_t site) { return *clients_[site]; }
  // The µproxy's name-hashing routing.
  SyncNfsClient& AtNameHash(const FileHandle& dir, const std::string& name) {
    return *clients_[NameHashSite(NameFingerprint(dir, name), kSites)];
  }

  EventQueue queue_;
  Network net_;
  std::unique_ptr<StorageNode> storage_;
  std::vector<std::unique_ptr<DirServer>> servers_;
  std::unique_ptr<Host> client_host_;
  std::vector<std::unique_ptr<SyncNfsClient>> clients_;
  FileHandle root_;
};

TEST_F(DirServerTest, RootGetattr) {
  Fattr3 attr = At(root_).Getattr(root_).value();
  EXPECT_EQ(attr.fileid, kRootFileid);
  EXPECT_EQ(attr.type, FileType3::kDir);
  EXPECT_EQ(attr.nlink, 2u);
}

TEST_F(DirServerTest, CreateLookupRoundTrip) {
  CreateRes created = At(root_).Create(root_, "hello.txt").value();
  ASSERT_EQ(created.status, Nfsstat3::kOk);
  ASSERT_TRUE(created.object.has_value());
  EXPECT_EQ(created.object->type(), FileType3::kReg);

  LookupRes found = At(root_).Lookup(root_, "hello.txt").value();
  ASSERT_EQ(found.status, Nfsstat3::kOk);
  EXPECT_EQ(found.object, *created.object);
  ASSERT_TRUE(found.obj_attributes.has_value());
  EXPECT_EQ(found.obj_attributes->nlink, 1u);
}

TEST_F(DirServerTest, LookupMissingIsNoent) {
  LookupRes res = At(root_).Lookup(root_, "ghost").value();
  EXPECT_EQ(res.status, Nfsstat3::kErrNoent);
  EXPECT_TRUE(res.dir_attributes.has_value());
}

TEST_F(DirServerTest, CreateUpdatesParentMtimeAndSize) {
  const Fattr3 before = At(root_).Getattr(root_).value();
  queue_.RunUntil(queue_.now() + FromSeconds(2));
  ASSERT_EQ(At(root_).Create(root_, "f1").value().status, Nfsstat3::kOk);
  const Fattr3 after = At(root_).Getattr(root_).value();
  EXPECT_EQ(after.size, before.size + 1);
  EXPECT_TRUE(before.mtime < after.mtime);
}

TEST_F(DirServerTest, GuardedCreateExists) {
  ASSERT_EQ(At(root_).Create(root_, "dup").value().status, Nfsstat3::kOk);
  // SyncNfsClient::Create issues UNCHECKED; it should return the same file.
  CreateRes again = At(root_).Create(root_, "dup").value();
  EXPECT_EQ(again.status, Nfsstat3::kOk);
}

TEST_F(DirServerTest, RemoveFileDecrementsAndDeletes) {
  CreateRes created = At(root_).Create(root_, "gone").value();
  ASSERT_EQ(created.status, Nfsstat3::kOk);
  RemoveRes removed = At(root_).Remove(root_, "gone").value();
  EXPECT_EQ(removed.status, Nfsstat3::kOk);
  EXPECT_EQ(At(root_).Lookup(root_, "gone").value().status, Nfsstat3::kErrNoent);
  // Attr cell is gone too.
  EXPECT_FALSE(At(*created.object).Getattr(*created.object).ok());
}

TEST_F(DirServerTest, RemoveOnDirectoryIsIsdir) {
  ASSERT_EQ(At(root_).Mkdir(root_, "d").value().status, Nfsstat3::kOk);
  EXPECT_EQ(At(root_).Remove(root_, "d").value().status, Nfsstat3::kErrIsdir);
}

TEST_F(DirServerTest, RmdirSemantics) {
  CreateRes made = At(root_).Mkdir(root_, "subdir").value();
  ASSERT_EQ(made.status, Nfsstat3::kOk);
  const FileHandle dir = *made.object;

  // Parent nlink bumped by the new directory.
  EXPECT_EQ(At(root_).Getattr(root_).value().nlink, 3u);

  // Non-empty rmdir fails.
  ASSERT_EQ(At(dir).Create(dir, "inner").value().status, Nfsstat3::kOk);
  EXPECT_EQ(At(root_).Rmdir(root_, "subdir").value().status, Nfsstat3::kErrNotempty);

  ASSERT_EQ(At(dir).Remove(dir, "inner").value().status, Nfsstat3::kOk);
  EXPECT_EQ(At(root_).Rmdir(root_, "subdir").value().status, Nfsstat3::kOk);
  EXPECT_EQ(At(root_).Getattr(root_).value().nlink, 2u);
  EXPECT_EQ(At(root_).Lookup(root_, "subdir").value().status, Nfsstat3::kErrNoent);
}

TEST_F(DirServerTest, RmdirOnFileIsNotdir) {
  ASSERT_EQ(At(root_).Create(root_, "f").value().status, Nfsstat3::kOk);
  EXPECT_EQ(At(root_).Rmdir(root_, "f").value().status, Nfsstat3::kErrNotdir);
}

TEST_F(DirServerTest, LinkBumpsNlink) {
  CreateRes created = At(root_).Create(root_, "orig").value();
  ASSERT_EQ(created.status, Nfsstat3::kOk);
  LinkRes linked = At(root_).Link(*created.object, root_, "alias").value();
  ASSERT_EQ(linked.status, Nfsstat3::kOk);
  ASSERT_TRUE(linked.file_attributes.has_value());
  EXPECT_EQ(linked.file_attributes->nlink, 2u);

  // Remove one name: file persists with nlink 1.
  ASSERT_EQ(At(root_).Remove(root_, "orig").value().status, Nfsstat3::kOk);
  EXPECT_EQ(At(*created.object).Getattr(*created.object).value().nlink, 1u);
  LookupRes via_alias = At(root_).Lookup(root_, "alias").value();
  EXPECT_EQ(via_alias.status, Nfsstat3::kOk);
}

TEST_F(DirServerTest, RenameWithinDirectory) {
  CreateRes created = At(root_).Create(root_, "old").value();
  ASSERT_EQ(created.status, Nfsstat3::kOk);
  RenameRes renamed = At(root_).Rename(root_, "old", root_, "new").value();
  ASSERT_EQ(renamed.status, Nfsstat3::kOk);
  EXPECT_EQ(At(root_).Lookup(root_, "old").value().status, Nfsstat3::kErrNoent);
  EXPECT_EQ(At(root_).Lookup(root_, "new").value().object, *created.object);
}

TEST_F(DirServerTest, RenameReplacesExistingTarget) {
  ASSERT_EQ(At(root_).Create(root_, "src").value().status, Nfsstat3::kOk);
  CreateRes victim = At(root_).Create(root_, "dst").value();
  ASSERT_EQ(victim.status, Nfsstat3::kOk);
  ASSERT_EQ(At(root_).Rename(root_, "src", root_, "dst").value().status, Nfsstat3::kOk);
  // Victim's attr cell removed.
  EXPECT_FALSE(At(*victim.object).Getattr(*victim.object).ok());
}

TEST_F(DirServerTest, RenameMissingSourceIsNoent) {
  EXPECT_EQ(At(root_).Rename(root_, "nope", root_, "x").value().status, Nfsstat3::kErrNoent);
}

TEST_F(DirServerTest, SymlinkReadlink) {
  CreateRes made = At(root_).Symlink(root_, "lnk", "/target/path").value();
  ASSERT_EQ(made.status, Nfsstat3::kOk);
  ReadlinkRes read = At(*made.object).Readlink(*made.object).value();
  ASSERT_EQ(read.status, Nfsstat3::kOk);
  EXPECT_EQ(read.target, "/target/path");
}

TEST_F(DirServerTest, SetattrUpdatesSizeAndTimes) {
  CreateRes created = At(root_).Create(root_, "file").value();
  ASSERT_EQ(created.status, Nfsstat3::kOk);
  SetattrArgs args;
  args.object = *created.object;
  args.new_attributes.size = 12345;
  args.new_attributes.mtime = NfsTime{500, 0};
  SetattrRes res = At(*created.object).Setattr(args).value();
  ASSERT_EQ(res.status, Nfsstat3::kOk);
  Fattr3 attr = At(*created.object).Getattr(*created.object).value();
  EXPECT_EQ(attr.size, 12345u);
  EXPECT_EQ(attr.mtime.seconds, 500u);
}

TEST_F(DirServerTest, GuardedSetattrChecksCtime) {
  CreateRes created = At(root_).Create(root_, "g").value();
  SetattrArgs args;
  args.object = *created.object;
  args.new_attributes.mode = 0600;
  args.guard_ctime = NfsTime{9999, 9999};  // wrong
  SetattrRes res = At(*created.object).Setattr(args).value();
  EXPECT_EQ(res.status, Nfsstat3::kErrNotSync);
}

TEST_F(DirServerTest, AccessIsPermissive) {
  AccessRes res = At(root_).Access(root_, 0x3f).value();
  ASSERT_EQ(res.status, Nfsstat3::kOk);
  EXPECT_EQ(res.access, 0x3fu);
}

TEST_F(DirServerTest, ReaddirPagesWithCookies) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(At(root_).Create(root_, "file" + std::to_string(i)).value().status, Nfsstat3::kOk);
  }
  std::vector<DirEntry> all = At(root_).ReadWholeDir(root_).value();
  EXPECT_EQ(all.size(), 50u);
  // Paged read with a small budget requires multiple round trips.
  ReaddirRes first = At(root_).Readdir(root_, 0, 600).value();
  EXPECT_FALSE(first.eof);
  EXPECT_LT(first.entries.size(), 50u);
}

TEST_F(DirServerTest, ReaddirplusCarriesHandles) {
  ASSERT_EQ(At(root_).Create(root_, "x").value().status, Nfsstat3::kOk);
  ReaddirRes res = At(root_).Readdirplus(root_).value();
  ASSERT_EQ(res.status, Nfsstat3::kOk);
  ASSERT_FALSE(res.entries.empty());
  EXPECT_TRUE(res.entries[0].handle.has_value());
  EXPECT_TRUE(res.entries[0].attr.has_value());
}

TEST_F(DirServerTest, MkdirSwitchingOrphanDirectory) {
  // Simulate the µproxy redirecting a mkdir to site 1 (p-probability path):
  // the entry lands at the parent's site (0), the new directory's cells at
  // site 1.
  CreateRes made = AtSite(1).Mkdir(root_, "orphan").value();
  ASSERT_EQ(made.status, Nfsstat3::kOk);
  EXPECT_EQ(SiteOfFileid(made.object->fileid()), 1u);

  // The name entry is visible at the parent's site.
  LookupRes found = AtSite(0).Lookup(root_, "orphan").value();
  ASSERT_EQ(found.status, Nfsstat3::kOk);
  EXPECT_EQ(found.object, *made.object);

  // Files created inside the orphan route to site 1 and stay local there.
  const uint64_t cross_before = servers_[1]->cross_site_ops();
  ASSERT_EQ(AtSite(1).Create(*made.object, "child").value().status, Nfsstat3::kOk);
  EXPECT_EQ(servers_[1]->cross_site_ops(), cross_before);

  // Cross-site rmdir of the orphan works (entry at 0, cells at 1).
  ASSERT_EQ(AtSite(1).Remove(*made.object, "child").value().status, Nfsstat3::kOk);
  EXPECT_EQ(AtSite(0).Rmdir(root_, "orphan").value().status, Nfsstat3::kOk);
  EXPECT_FALSE(AtSite(1).Getattr(*made.object).ok());
}

TEST_F(DirServerTest, RedirectedMkdirCountsCrossSiteOps) {
  const uint64_t before = servers_[2]->cross_site_ops();
  ASSERT_EQ(AtSite(2).Mkdir(root_, "redirected").value().status, Nfsstat3::kOk);
  EXPECT_GT(servers_[2]->cross_site_ops(), before);
}

TEST_F(DirServerTest, RecoveryReplaysLog) {
  CreateRes created = At(root_).Create(root_, "durable").value();
  ASSERT_EQ(created.status, Nfsstat3::kOk);
  ASSERT_EQ(At(root_).Mkdir(root_, "dir1").value().status, Nfsstat3::kOk);
  ASSERT_EQ(At(root_).Create(root_, "temp").value().status, Nfsstat3::kOk);
  ASSERT_EQ(At(root_).Remove(root_, "temp").value().status, Nfsstat3::kOk);

  servers_[0]->FlushLog();
  queue_.RunUntilIdle();

  servers_[0]->Fail();
  servers_[0]->Restart();
  queue_.RunUntilIdle();  // drive replay
  ASSERT_FALSE(servers_[0]->recovering());

  LookupRes found = At(root_).Lookup(root_, "durable").value();
  ASSERT_EQ(found.status, Nfsstat3::kOk);
  EXPECT_EQ(found.object, *created.object);
  EXPECT_EQ(At(root_).Lookup(root_, "temp").value().status, Nfsstat3::kErrNoent);
  EXPECT_EQ(At(root_).Lookup(root_, "dir1").value().status, Nfsstat3::kOk);

  // Minting continues without fileid reuse.
  CreateRes fresh = At(root_).Create(root_, "after").value();
  ASSERT_EQ(fresh.status, Nfsstat3::kOk);
  EXPECT_NE(fresh.object->fileid(), created.object->fileid());
}

TEST_F(DirServerTest, UnflushedTailLostOnCrash) {
  // Do NOT flush: records sit in the group-commit buffer.
  ASSERT_EQ(At(root_).Create(root_, "volatile").value().status, Nfsstat3::kOk);
  servers_[0]->Fail();
  servers_[0]->Restart();
  queue_.RunUntilIdle();
  EXPECT_EQ(At(root_).Lookup(root_, "volatile").value().status, Nfsstat3::kErrNoent);
}

// --- name hashing policy ---

class NameHashingTest : public DirServerTest {
 protected:
  NameHashingTest() : DirServerTest(NamePolicy::kNameHashing) {}

  static uint32_t HashSite(const FileHandle& dir, const std::string& name) {
    return NameHashSite(NameFingerprint(dir, name), kSites);
  }

  // Creates prefix0..prefix<count-1> in `dir`, each at its hash site;
  // returns the names sorted.
  std::vector<std::string> CreateHashed(const FileHandle& dir, const std::string& prefix,
                                        int count) {
    std::vector<std::string> names;
    for (int i = 0; i < count; ++i) {
      names.push_back(prefix + std::to_string(i));
      EXPECT_EQ(AtNameHash(dir, names.back()).Create(dir, names.back()).value().status,
                Nfsstat3::kOk);
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  // The first prefix<i> in `dir` that hashes to `site`.
  static std::string NameAtSite(const FileHandle& dir, const std::string& prefix,
                                uint32_t site) {
    for (int i = 0;; ++i) {
      const std::string name = prefix + std::to_string(i);
      if (HashSite(dir, name) == site) {
        return name;
      }
    }
  }

  // The servers among `candidates` holding a (dir, name) entry.
  std::vector<uint32_t> Residents(const FileHandle& dir, const std::string& name,
                                  std::vector<uint32_t> candidates = {0, 1, 2}) const {
    std::vector<uint32_t> out;
    for (uint32_t s : candidates) {
      if (servers_[s]->store().FindEntry(dir.fileid(), name).ok()) {
        out.push_back(s);
      }
    }
    return out;
  }

  // Names a full READDIR of `dir` at its own site returns, in order.
  std::vector<std::string> Listed(const FileHandle& dir) {
    const std::vector<DirEntry> entries = At(dir).ReadWholeDir(dir).value();
    std::vector<std::string> names;
    for (const DirEntry& entry : entries) {
      names.push_back(entry.name);
    }
    return names;
  }

  // Points every server's peer table at `owners` (peers[site] serves site),
  // as the ensemble does on a table install.
  void Remap(const std::vector<uint32_t>& owners) {
    std::vector<DirServer*> peers;
    for (uint32_t owner : owners) {
      peers.push_back(servers_[owner].get());
    }
    for (auto& server : servers_) {
      server->SetPeers(peers);
    }
  }
};

TEST_F(NameHashingTest, EntriesScatterAcrossSites) {
  // Create many files in one directory, routing each to its hash site the
  // way the µproxy would.
  for (int i = 0; i < 60; ++i) {
    const std::string name = "scattered" + std::to_string(i);
    ASSERT_EQ(AtNameHash(root_, name).Create(root_, name).value().status, Nfsstat3::kOk);
  }
  size_t sites_with_entries = 0;
  for (const auto& server : servers_) {
    if (server->store().CountDir(kRootFileid) > 0) {
      ++sites_with_entries;
    }
  }
  EXPECT_EQ(sites_with_entries, 3u);
}

TEST_F(NameHashingTest, ReaddirGathersAllSites) {
  for (int i = 0; i < 30; ++i) {
    const std::string name = "g" + std::to_string(i);
    ASSERT_EQ(AtNameHash(root_, name).Create(root_, name).value().status, Nfsstat3::kOk);
  }
  // readdir routes to the directory's own site (root -> site 0).
  std::vector<DirEntry> all = AtSite(0).ReadWholeDir(root_).value();
  EXPECT_EQ(all.size(), 30u);
  // Merged listing is name-ordered.
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].name, all[i].name);
  }
}

TEST_F(NameHashingTest, ConflictingOpsSerializeAtOneSite) {
  // create/create on the same (dir, name) always hash to the same server.
  const std::string name = "contested";
  SyncNfsClient& owner = AtNameHash(root_, name);
  ASSERT_EQ(owner.Create(root_, name).value().status, Nfsstat3::kOk);
  // A lookup for the same name routes to the same site and sees it.
  EXPECT_EQ(owner.Lookup(root_, name).value().status, Nfsstat3::kOk);
}

TEST_F(NameHashingTest, RenameAcrossHashSites) {
  // Choose names that hash to different sites to force the cross-site path.
  std::string from = "from0";
  std::string to;
  for (int i = 0; i < 100; ++i) {
    std::string candidate = "to" + std::to_string(i);
    if (NameHashSite(NameFingerprint(root_, candidate), kSites) !=
        NameHashSite(NameFingerprint(root_, from), kSites)) {
      to = candidate;
      break;
    }
  }
  ASSERT_FALSE(to.empty());
  ASSERT_EQ(AtNameHash(root_, from).Create(root_, from).value().status, Nfsstat3::kOk);
  RenameRes renamed = AtNameHash(root_, from).Rename(root_, from, root_, to).value();
  ASSERT_EQ(renamed.status, Nfsstat3::kOk);
  EXPECT_EQ(AtNameHash(root_, from).Lookup(root_, from).value().status, Nfsstat3::kErrNoent);
  EXPECT_EQ(AtNameHash(root_, to).Lookup(root_, to).value().status, Nfsstat3::kOk);
}

TEST_F(NameHashingTest, MigrateSlotMovesExactlyTheSlotsEntries) {
  CreateRes made = AtNameHash(root_, "sub").Mkdir(root_, "sub").value();
  ASSERT_EQ(made.status, Nfsstat3::kOk);
  const FileHandle sub = *made.object;
  std::vector<std::pair<FileHandle, std::string>> created = {{root_, "sub"}};
  for (const FileHandle& dir : {root_, sub}) {
    for (const std::string& name : CreateHashed(dir, "m", 60)) {
      created.emplace_back(dir, name);
    }
  }
  const std::vector<std::string> root_before = Listed(root_);
  const std::vector<std::string> sub_before = Listed(sub);
  ASSERT_EQ(root_before.size(), 61u);
  ASSERT_EQ(sub_before.size(), 60u);

  // Re-stripe the slot that holds the most of server 0's names (across
  // both directories) onto server 1.
  std::map<uint32_t, int> per_slot;
  for (const auto& [dir, name] : created) {
    if (HashSite(dir, name) == 0) {
      ++per_slot[NameFingerprint(dir, name) % kDefaultLogicalSlots];
    }
  }
  const uint32_t slot = std::max_element(per_slot.begin(), per_slot.end(), [](const auto& a,
                                                                           const auto& b) {
                          return a.second < b.second;
                        })->first;
  ASSERT_GE(per_slot[slot], 2);
  servers_[0]->MigrateSlot(slot, kDefaultLogicalSlots, *servers_[1]);

  // Exactly the slot's entries moved; every name is on exactly one server.
  for (const auto& [dir, name] : created) {
    const uint32_t home = HashSite(dir, name);
    const bool moved = home == 0 && NameFingerprint(dir, name) % kDefaultLogicalSlots == slot;
    EXPECT_EQ(Residents(dir, name), std::vector<uint32_t>{moved ? 1u : home}) << name;
  }
  EXPECT_EQ(Listed(root_), root_before);
  EXPECT_EQ(Listed(sub), sub_before);
}

TEST_F(NameHashingTest, AdoptionAndHandoffKeepEachNameOnOneServer) {
  std::vector<std::string> names = CreateHashed(root_, "h", 45);
  servers_[1]->FlushLog();
  queue_.RunUntilIdle();

  // Server 1 dies and server 2 adopts its site from the log. The peer table
  // then names the adopter for both sites it serves.
  servers_[1]->Fail();
  Status adopted(StatusCode::kInternal, "pending");
  servers_[2]->AdoptSite(1, storage_->endpoint(), BackingObjectFor(1),
                         [&](Status st) { adopted = st; });
  queue_.RunUntilIdle();
  ASSERT_TRUE(adopted.ok()) << adopted.ToString();
  Remap({0, 2, 2});

  // Outage mutations land on the adopter: a new site-1 name, and a site-1
  // name removed (the rejoining server's log still holds it).
  const std::string fresh = NameAtSite(root_, "fresh", 1);
  ASSERT_EQ(AtSite(2).Create(root_, fresh).value().status, Nfsstat3::kOk);
  const auto gone_it = std::find_if(names.begin(), names.end(), [&](const std::string& name) {
    return HashSite(root_, name) == 1;
  });
  ASSERT_NE(gone_it, names.end());
  const std::string gone = *gone_it;
  names.erase(gone_it);
  ASSERT_EQ(AtSite(2).Remove(root_, gone).value().status, Nfsstat3::kOk);
  names.push_back(fresh);
  std::sort(names.begin(), names.end());

  // READDIR visits the adopter once, so each name is listed exactly once.
  EXPECT_EQ(Listed(root_), names);
  for (const std::string& name : names) {
    const uint32_t home = HashSite(root_, name);
    EXPECT_EQ(Residents(root_, name, {0, 2}), std::vector<uint32_t>{home == 1 ? 2u : home})
        << name;
  }
  // The rmdir emptiness check charges one peer leg for the adopter, not two.
  const std::string empty_dir = NameAtSite(root_, "empty", 0);
  ASSERT_EQ(AtSite(0).Mkdir(root_, empty_dir).value().status, Nfsstat3::kOk);
  const uint64_t cross_before = servers_[0]->cross_site_ops();
  ASSERT_EQ(AtSite(0).Rmdir(root_, empty_dir).value().status, Nfsstat3::kOk);
  EXPECT_EQ(servers_[0]->cross_site_ops(), cross_before + 1);

  // Rejoin: server 1 recovers its own stale log, then the adopter hands the
  // site back, moving exactly the site's entries.
  servers_[1]->Restart();
  queue_.RunUntilIdle();
  ASSERT_FALSE(servers_[1]->recovering());
  servers_[2]->HandoffSite(1, *servers_[1]);
  Remap({0, 1, 2});
  for (const std::string& name : names) {
    EXPECT_EQ(Residents(root_, name), std::vector<uint32_t>{HashSite(root_, name)}) << name;
  }
  EXPECT_TRUE(Residents(root_, gone).empty());
  EXPECT_EQ(Listed(root_), names);
}

TEST_F(NameHashingTest, RmdirChecksAllSitesForEmptiness) {
  CreateRes made = AtNameHash(root_, "dir").Mkdir(root_, "dir").value();
  ASSERT_EQ(made.status, Nfsstat3::kOk);
  const FileHandle dir = *made.object;
  // Put an entry on some site.
  ASSERT_EQ(AtNameHash(dir, "leaf").Create(dir, "leaf").value().status, Nfsstat3::kOk);
  EXPECT_EQ(AtNameHash(root_, "dir").Rmdir(root_, "dir").value().status,
            Nfsstat3::kErrNotempty);
  ASSERT_EQ(AtNameHash(dir, "leaf").Remove(dir, "leaf").value().status, Nfsstat3::kOk);
  EXPECT_EQ(AtNameHash(root_, "dir").Rmdir(root_, "dir").value().status, Nfsstat3::kOk);
}

}  // namespace
}  // namespace slice
