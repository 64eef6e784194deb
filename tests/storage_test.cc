// Unit tests for the object store (allocation, sparse objects, unstable
// write overlay, commit, truncate, crash loss), the block cache, and the
// storage node wire service.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.h"
#include "src/nfs/nfs_client.h"
#include "src/storage/block_cache.h"
#include "src/storage/object_store.h"
#include "src/storage/storage_node.h"

namespace slice {
namespace {

constexpr uint64_t kSecret = 0xfeed;

Bytes Pattern(size_t n, uint8_t seed = 1) {
  Bytes data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return data;
}

TEST(ObjectStoreTest, WriteReadRoundTrip) {
  ObjectStore store(1 << 20);
  const Bytes data = Pattern(5000);
  ASSERT_TRUE(store.Write(1, 0, data, /*stable=*/true).ok());
  StoreReadResult read = store.Read(1, 0, 5000);
  EXPECT_EQ(read.data, data);
  EXPECT_TRUE(read.eof);
}

TEST(ObjectStoreTest, ReadPastEndIsEof) {
  ObjectStore store(1 << 20);
  ASSERT_TRUE(store.Write(1, 0, Pattern(100), true).ok());
  StoreReadResult read = store.Read(1, 100, 50);
  EXPECT_TRUE(read.eof);
  EXPECT_TRUE(read.data.empty());
}

TEST(ObjectStoreTest, MissingObjectReadsAsEof) {
  ObjectStore store(1 << 20);
  StoreReadResult read = store.Read(99, 0, 100);
  EXPECT_TRUE(read.eof);
  EXPECT_TRUE(read.data.empty());
}

TEST(ObjectStoreTest, SparseHolesReadAsZeros) {
  ObjectStore store(1 << 20);
  ASSERT_TRUE(store.Write(1, 3 * kStoreBlockSize, Pattern(100), true).ok());
  StoreReadResult read = store.Read(1, 0, 100);
  EXPECT_EQ(read.data, Bytes(100, 0));
  EXPECT_FALSE(read.eof);
}

TEST(ObjectStoreTest, UnalignedWritesSpanBlocks) {
  ObjectStore store(1 << 20);
  const Bytes data = Pattern(3 * kStoreBlockSize);
  ASSERT_TRUE(store.Write(1, 1000, data, true).ok());
  EXPECT_EQ(store.Read(1, 1000, static_cast<uint32_t>(data.size())).data, data);
  // First 1000 bytes are a hole.
  EXPECT_EQ(store.Read(1, 0, 1000).data, Bytes(1000, 0));
}

TEST(ObjectStoreTest, SequentialWritesGetContiguousBlocks) {
  ObjectStore store(8 << 20);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        store.Write(1, static_cast<uint64_t>(i) * kStoreBlockSize, Pattern(kStoreBlockSize), true)
            .ok());
  }
  for (uint64_t b = 1; b < 10; ++b) {
    EXPECT_EQ(*store.PhysicalFor(1, b), *store.PhysicalFor(1, b - 1) + 1);
  }
}

TEST(ObjectStoreTest, UnstableWriteVisibleToReadsButNotDisk) {
  ObjectStore store(1 << 20);
  const Bytes data = Pattern(4000);
  std::vector<PhysBlock> written;
  ASSERT_TRUE(store.Write(1, 0, data, /*stable=*/false, &written).ok());
  EXPECT_TRUE(written.empty());  // nothing hit the disk
  EXPECT_EQ(store.Read(1, 0, 4000).data, data);
  EXPECT_EQ(store.dirty_blocks(), 1u);
}

TEST(ObjectStoreTest, CommitFlushesDirtyBlocks) {
  ObjectStore store(1 << 20);
  ASSERT_TRUE(store.Write(1, 0, Pattern(2 * kStoreBlockSize), false).ok());
  std::vector<PhysBlock> written;
  ASSERT_TRUE(store.Commit(1, &written).ok());
  EXPECT_EQ(written.size(), 2u);
  EXPECT_EQ(store.dirty_blocks(), 0u);
  const Bytes expect = Pattern(2 * kStoreBlockSize);
  EXPECT_EQ(store.Read(1, 0, 100).data, Bytes(expect.begin(), expect.begin() + 100));
}

TEST(ObjectStoreTest, CrashDropsUncommittedData) {
  ObjectStore store(1 << 20);
  const Bytes stable = Pattern(1000, 1);
  const Bytes unstable = Pattern(1000, 2);
  ASSERT_TRUE(store.Write(1, 0, stable, true).ok());
  ASSERT_TRUE(store.Write(1, 0, unstable, false).ok());
  EXPECT_EQ(store.Read(1, 0, 1000).data, unstable);
  store.CrashDiscardDirty();
  EXPECT_EQ(store.Read(1, 0, 1000).data, stable);
}

TEST(ObjectStoreTest, CommittedDataSurvivesCrash) {
  ObjectStore store(1 << 20);
  const Bytes data = Pattern(1000, 3);
  ASSERT_TRUE(store.Write(1, 0, data, false).ok());
  ASSERT_TRUE(store.Commit(1).ok());
  store.CrashDiscardDirty();
  EXPECT_EQ(store.Read(1, 0, 1000).data, data);
}

TEST(ObjectStoreTest, PartialDirtyBlockPreservesStableBytes) {
  ObjectStore store(1 << 20);
  ASSERT_TRUE(store.Write(1, 0, Bytes(kStoreBlockSize, 0xaa), true).ok());
  ASSERT_TRUE(store.Write(1, 100, Bytes(50, 0xbb), false).ok());
  ASSERT_TRUE(store.Commit(1).ok());
  Bytes got = store.Read(1, 0, kStoreBlockSize).data;
  EXPECT_EQ(got[0], 0xaa);
  EXPECT_EQ(got[100], 0xbb);
  EXPECT_EQ(got[149], 0xbb);
  EXPECT_EQ(got[150], 0xaa);
}

TEST(ObjectStoreTest, StableWriteSupersedesDirtyOverlay) {
  ObjectStore store(1 << 20);
  ASSERT_TRUE(store.Write(1, 0, Bytes(100, 0x11), false).ok());
  ASSERT_TRUE(store.Write(1, 0, Bytes(100, 0x22), true).ok());
  EXPECT_EQ(store.Read(1, 0, 100).data, Bytes(100, 0x22));
  ASSERT_TRUE(store.Commit(1).ok());
  EXPECT_EQ(store.Read(1, 0, 100).data, Bytes(100, 0x22));
}

TEST(ObjectStoreTest, TruncateFreesBlocks) {
  ObjectStore store(1 << 20);
  ASSERT_TRUE(store.Write(1, 0, Pattern(4 * kStoreBlockSize), true).ok());
  const uint64_t used_before = store.used_blocks();
  ASSERT_TRUE(store.Truncate(1, kStoreBlockSize).ok());
  EXPECT_EQ(store.used_blocks(), used_before - 3);
  EXPECT_EQ(store.SizeOrZero(1), kStoreBlockSize);
  StoreReadResult read = store.Read(1, 0, 2 * kStoreBlockSize);
  EXPECT_EQ(read.data.size(), kStoreBlockSize);
  EXPECT_TRUE(read.eof);
}

TEST(ObjectStoreTest, RemoveFreesEverything) {
  ObjectStore store(1 << 20);
  ASSERT_TRUE(store.Write(1, 0, Pattern(4 * kStoreBlockSize), true).ok());
  ASSERT_TRUE(store.Remove(1).ok());
  EXPECT_EQ(store.used_blocks(), 0u);
  EXPECT_FALSE(store.Exists(1));
  EXPECT_EQ(store.Remove(1).code(), StatusCode::kNotFound);
}

TEST(ObjectStoreTest, OutOfSpaceReported) {
  ObjectStore store(4 * kStoreBlockSize);
  EXPECT_TRUE(store.Write(1, 0, Pattern(4 * kStoreBlockSize), true).ok());
  const Status w = store.Write(2, 0, Pattern(kStoreBlockSize), true);
  EXPECT_FALSE(w.ok());
  EXPECT_EQ(w.code(), StatusCode::kResourceExhausted);
}

// Regression: a COMMIT that ran out of space used to drop the blocks it
// could not place and raise the size anyway, so they read back as zeros.
// They now stay dirty and readable, Commit reports the failure, and a retry
// once space is freed places them.
TEST(ObjectStoreTest, OutOfSpaceCommitKeepsUnplacedBlocksDirty) {
  ObjectStore store(4 * kStoreBlockSize);
  ASSERT_TRUE(store.Write(1, 0, Pattern(3 * kStoreBlockSize), /*stable=*/true).ok());
  const Bytes unstable(2 * kStoreBlockSize, 0xcc);
  ASSERT_TRUE(store.Write(2, 0, unstable, /*stable=*/false).ok());

  std::vector<PhysBlock> written;
  const Status committed = store.Commit(2, &written);
  EXPECT_EQ(committed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(written.size(), 1u);
  EXPECT_EQ(store.dirty_blocks(), 1u);
  EXPECT_EQ(store.used_blocks(), 4u);
  EXPECT_EQ(store.SizeOrZero(2), 2 * kStoreBlockSize);
  EXPECT_EQ(store.Read(2, 0, 2 * kStoreBlockSize).data, unstable);

  ASSERT_TRUE(store.Remove(1).ok());
  written.clear();
  ASSERT_TRUE(store.Commit(2, &written).ok());
  EXPECT_EQ(written.size(), 1u);
  EXPECT_EQ(store.dirty_blocks(), 0u);
  store.CrashDiscardDirty();
  EXPECT_EQ(store.Read(2, 0, 2 * kStoreBlockSize).data, unstable);
}

TEST(ObjectStoreTest, ManyObjectsIndependent) {
  ObjectStore store(64 << 20);
  for (uint64_t id = 1; id <= 100; ++id) {
    ASSERT_TRUE(store.Write(id, 0, Pattern(100, static_cast<uint8_t>(id)), true).ok());
  }
  EXPECT_EQ(store.object_count(), 100u);
  for (uint64_t id = 1; id <= 100; ++id) {
    EXPECT_EQ(store.Read(id, 0, 100).data, Pattern(100, static_cast<uint8_t>(id)));
  }
}

// --- pinned pages: every mutation path leaves a pinned view intact ---
//
// A pin is what the duplicate-request cache holds on a READ's pages
// (PageSlab::Ref). Each test pins a read, runs one mutation, and checks
// PinsHold: the pinned bytes did not change, the store reads the mutated
// bytes, no later allocation hands a pinned page out while it is pinned, and
// unpinning frees exactly the pages the store no longer names.

// A ReadGather result with its pages pinned, and a copy of its bytes.
struct PinnedRead {
  std::vector<ByteSpan> segments;
  std::vector<PageId> pages;
  Bytes snapshot;
};

Bytes Join(const std::vector<ByteSpan>& segments) {
  Bytes out;
  for (ByteSpan segment : segments) {
    out.insert(out.end(), segment.begin(), segment.end());
  }
  return out;
}

PinnedRead PinRead(ObjectStore& store, ObjectId id, uint64_t offset, uint32_t count) {
  PinnedRead read;
  std::vector<PhysBlock> blocks;
  store.ReadGather(id, offset, count, &read.segments, &read.pages, &blocks);
  for (PageId page : read.pages) {
    if (page != kNoPage) {
      store.pages().Ref(page);
    }
  }
  read.snapshot = Join(read.segments);
  return read;
}

void Unpin(ObjectStore& store, const PinnedRead& read) {
  for (PageId page : read.pages) {
    if (page != kNoPage) {
      store.pages().Unref(page);
    }
  }
}

// The pages a read of object `id` gathers now.
std::vector<PageId> PagesOf(const ObjectStore& store, ObjectId id, uint32_t count) {
  std::vector<ByteSpan> segments;
  std::vector<PageId> pages;
  std::vector<PhysBlock> blocks;
  store.ReadGather(id, 0, count, &segments, &pages, &blocks);
  return pages;
}

// The store's own references: one per stable and per dirty block.
uint64_t OwnedPages(const ObjectStore& store) {
  return store.used_blocks() + store.dirty_blocks();
}

constexpr ObjectId kPinned = 1;
constexpr ObjectId kFiller = 2;
constexpr ObjectId kReuser = 3;

// Checks a pinned read after a mutation that made the store drop (free or
// copy away) its reference to every page the read pinned.
void PinsHold(ObjectStore& store, const PinnedRead& read) {
  EXPECT_EQ(Join(read.segments), read.snapshot);
  const size_t pinned = read.pages.size();
  EXPECT_EQ(store.pages().live_pages(), OwnedPages(store) + pinned);
  // New data elsewhere gets fresh pages, never a pinned one.
  ASSERT_TRUE(store.Write(kFiller, 0, Pattern(8 * kStoreBlockSize, 9), true).ok());
  for (PageId page : PagesOf(store, kFiller, 8 * kStoreBlockSize)) {
    EXPECT_EQ(std::count(read.pages.begin(), read.pages.end(), page), 0) << "page " << page;
  }
  EXPECT_EQ(Join(read.segments), read.snapshot);
  // Unpinned, the pages are free: nothing leaked, nothing freed twice, and
  // the next allocation takes the most recently unpinned page.
  Unpin(store, read);
  EXPECT_EQ(store.pages().live_pages(), OwnedPages(store));
  EXPECT_EQ(store.pages().references(), OwnedPages(store));
  ASSERT_TRUE(store.Write(kReuser, 0, Pattern(100), true).ok());
  EXPECT_EQ(PagesOf(store, kReuser, 100), std::vector<PageId>{read.pages.back()});
}

TEST(ObjectStorePinTest, StableWriteCopiesAPinnedPage) {
  ObjectStore store(1 << 20);
  ASSERT_TRUE(store.Write(kPinned, 0, Pattern(kStoreBlockSize, 1), true).ok());
  const PinnedRead read = PinRead(store, kPinned, 0, kStoreBlockSize);
  ASSERT_TRUE(store.Write(kPinned, 100, Bytes(50, 0xee), true).ok());
  EXPECT_EQ(store.cow_copies(), 1u);
  Bytes expect = Pattern(kStoreBlockSize, 1);
  std::fill_n(expect.begin() + 100, 50, 0xee);
  EXPECT_EQ(store.Read(kPinned, 0, kStoreBlockSize).data, expect);
  PinsHold(store, read);
}

TEST(ObjectStorePinTest, UnstableWriteCopiesAPinnedOverlayPage) {
  ObjectStore store(1 << 20);
  ASSERT_TRUE(store.Write(kPinned, 0, Pattern(kStoreBlockSize, 1), false).ok());
  const PinnedRead read = PinRead(store, kPinned, 0, kStoreBlockSize);
  ASSERT_TRUE(store.Write(kPinned, 100, Bytes(50, 0xee), false).ok());
  EXPECT_EQ(store.cow_copies(), 1u);
  EXPECT_EQ(store.dirty_blocks(), 1u);
  Bytes expect = Pattern(kStoreBlockSize, 1);
  std::fill_n(expect.begin() + 100, 50, 0xee);
  EXPECT_EQ(store.Read(kPinned, 0, kStoreBlockSize).data, expect);
  PinsHold(store, read);
}

TEST(ObjectStorePinTest, StableWriteFoldCopiesAPinnedOverlayPage) {
  ObjectStore store(1 << 20);
  ASSERT_TRUE(store.Write(kPinned, 0, Pattern(kStoreBlockSize, 1), true).ok());
  ASSERT_TRUE(store.Write(kPinned, 0, Pattern(kStoreBlockSize, 2), false).ok());
  // Reads prefer the overlay, so the pin is on the overlay page.
  const PinnedRead read = PinRead(store, kPinned, 0, kStoreBlockSize);
  ASSERT_EQ(read.snapshot, Pattern(kStoreBlockSize, 2));
  ASSERT_TRUE(store.Write(kPinned, 100, Bytes(50, 0xee), true).ok());
  EXPECT_EQ(store.cow_copies(), 1u) << "only the pinned overlay page is copied";
  Bytes expect = Pattern(kStoreBlockSize, 2);
  std::fill_n(expect.begin() + 100, 50, 0xee);
  EXPECT_EQ(store.Read(kPinned, 0, kStoreBlockSize).data, expect);
  PinsHold(store, read);
}

TEST(ObjectStorePinTest, CommitOverAPinnedStablePageFreesItOnUnpin) {
  ObjectStore store(1 << 20);
  ASSERT_TRUE(store.Write(kPinned, 0, Pattern(kStoreBlockSize, 1), true).ok());
  const PinnedRead read = PinRead(store, kPinned, 0, kStoreBlockSize);
  ASSERT_TRUE(store.Write(kPinned, 0, Pattern(kStoreBlockSize, 2), false).ok());
  ASSERT_TRUE(store.Commit(kPinned).ok());
  EXPECT_EQ(store.cow_copies(), 0u);
  EXPECT_EQ(store.Read(kPinned, 0, kStoreBlockSize).data, Pattern(kStoreBlockSize, 2));
  PinsHold(store, read);
}

TEST(ObjectStorePinTest, TruncateCopiesAPinnedTailPageAndKeepsCutPages) {
  ObjectStore store(1 << 20);
  ASSERT_TRUE(store.Write(kPinned, 0, Pattern(2 * kStoreBlockSize, 1), true).ok());
  const PinnedRead read = PinRead(store, kPinned, 0, 2 * kStoreBlockSize);
  ASSERT_EQ(read.pages.size(), 2u);
  // Block 1 is cut away; block 0's tail past byte 100 is zeroed.
  ASSERT_TRUE(store.Truncate(kPinned, 100).ok());
  EXPECT_EQ(store.cow_copies(), 1u);
  ASSERT_TRUE(store.Truncate(kPinned, kStoreBlockSize).ok());
  Bytes expect = Pattern(kStoreBlockSize, 1);
  std::fill(expect.begin() + 100, expect.end(), 0);
  EXPECT_EQ(store.Read(kPinned, 0, kStoreBlockSize).data, expect);
  PinsHold(store, read);
}

TEST(ObjectStorePinTest, RemoveKeepsPinnedPages) {
  ObjectStore store(1 << 20);
  ASSERT_TRUE(store.Write(kPinned, 0, Pattern(2 * kStoreBlockSize, 1), true).ok());
  ASSERT_TRUE(store.Write(kPinned, 2 * kStoreBlockSize, Pattern(100, 2), false).ok());
  const PinnedRead read = PinRead(store, kPinned, 0, 2 * kStoreBlockSize + 100);
  ASSERT_EQ(read.pages.size(), 3u);
  ASSERT_TRUE(store.Remove(kPinned).ok());
  EXPECT_EQ(store.used_blocks(), 0u);
  PinsHold(store, read);
}

TEST(ObjectStorePinTest, CrashDiscardKeepsPinnedOverlayPages) {
  ObjectStore store(1 << 20);
  ASSERT_TRUE(store.Write(kPinned, 0, Pattern(kStoreBlockSize, 1), true).ok());
  ASSERT_TRUE(store.Write(kPinned, 0, Pattern(kStoreBlockSize, 2), false).ok());
  const PinnedRead read = PinRead(store, kPinned, 0, kStoreBlockSize);
  store.CrashDiscardDirty();
  EXPECT_EQ(store.dirty_blocks(), 0u);
  EXPECT_EQ(store.Read(kPinned, 0, kStoreBlockSize).data, Pattern(kStoreBlockSize, 1));
  PinsHold(store, read);
}

TEST(ObjectStorePinTest, UnpinnedPagesAreWrittenInPlace) {
  ObjectStore store(1 << 20);
  ASSERT_TRUE(store.Write(kPinned, 0, Pattern(kStoreBlockSize, 1), false).ok());
  ASSERT_TRUE(store.Write(kPinned, 100, Bytes(50, 0xee), false).ok());
  ASSERT_TRUE(store.Write(kPinned, 100, Bytes(50, 0xdd), true).ok());
  ASSERT_TRUE(store.Truncate(kPinned, 100).ok());
  EXPECT_EQ(store.cow_copies(), 0u);
  EXPECT_EQ(store.pages().live_pages(), OwnedPages(store));
}

TEST(BlockCacheTest, HitAfterInsert) {
  BlockCache cache(10 * kStoreBlockSize);
  EXPECT_FALSE(cache.Access(1));  // miss inserts
  EXPECT_TRUE(cache.Access(1));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(BlockCacheTest, EvictsLru) {
  BlockCache cache(3 * kStoreBlockSize);
  cache.Insert(1);
  cache.Insert(2);
  cache.Insert(3);
  EXPECT_TRUE(cache.Access(1));  // 1 now MRU
  cache.Insert(4);               // evicts 2
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(4));
}

TEST(BlockCacheTest, SubBlockCapacityRoundsUpToOneBlock) {
  // Regression: a capacity below one block used to truncate to zero blocks,
  // so every insert immediately evicted itself — a permanent 100% miss rate
  // that silently defeated the cache. Sub-block capacities now hold a block.
  BlockCache cache(kStoreBlockSize / 2);
  EXPECT_EQ(cache.capacity_blocks(), 1u);
  EXPECT_FALSE(cache.Access(1));
  EXPECT_TRUE(cache.Access(1)) << "sole block must survive its own insert";

  // Unaligned capacities round up, not down.
  BlockCache unaligned(3 * kStoreBlockSize + 1);
  EXPECT_EQ(unaligned.capacity_blocks(), 4u);

  // An eviction storm through the minimal cache still behaves: exactly one
  // resident block, every new block displacing the previous one.
  int evictions = 0;
  cache.SetEvictionHook([&](PhysBlock) { ++evictions; });
  for (PhysBlock b = 10; b < 40; ++b) {
    cache.Insert(b);
    EXPECT_EQ(cache.size_blocks(), 1u);
  }
  EXPECT_EQ(evictions, 30);
  EXPECT_TRUE(cache.Contains(39));
}

TEST(BlockCacheTest, EraseAndClear) {
  BlockCache cache(10 * kStoreBlockSize);
  cache.Insert(5);
  cache.Erase(5);
  EXPECT_FALSE(cache.Contains(5));
  cache.Insert(6);
  cache.Clear();
  EXPECT_EQ(cache.size_blocks(), 0u);
}

// Reference LRU: a plain MRU-front vector. O(n) per op, but obviously
// correct — the differential below checks the index-threaded intrusive
// list against it under a random storm of touches, re-inserts, erases and
// clears, where the old iterator-stored variant's splice bugs would bite.
class ModelLru {
 public:
  explicit ModelLru(size_t capacity) : capacity_(capacity) {}

  // Mirrors BlockCache::Access: returns hit, touches or inserts.
  bool Access(PhysBlock block) {
    const bool hit = Touch(block);
    if (!hit && order_.size() > capacity_) {
      evicted_.push_back(order_.back());
      order_.pop_back();
    }
    return hit;
  }

  void Insert(PhysBlock block) { Access(block); }

  void Erase(PhysBlock block) {
    auto it = std::find(order_.begin(), order_.end(), block);
    if (it != order_.end()) {
      order_.erase(it);
    }
  }

  void Clear() { order_.clear(); }

  bool Contains(PhysBlock block) const {
    return std::find(order_.begin(), order_.end(), block) != order_.end();
  }

  size_t size() const { return order_.size(); }
  const std::vector<PhysBlock>& evicted() const { return evicted_; }

 private:
  bool Touch(PhysBlock block) {
    auto it = std::find(order_.begin(), order_.end(), block);
    const bool hit = it != order_.end();
    if (hit) {
      order_.erase(it);
    }
    order_.insert(order_.begin(), block);
    return hit;
  }

  size_t capacity_;
  std::vector<PhysBlock> order_;  // front = MRU
  std::vector<PhysBlock> evicted_;
};

TEST(BlockCacheTest, RandomizedModelDifferential) {
  constexpr size_t kCapacity = 8;
  constexpr PhysBlock kKeySpace = 24;  // 3x capacity: constant pressure
  BlockCache cache(kCapacity * kStoreBlockSize);
  ModelLru model(kCapacity);
  std::vector<PhysBlock> evicted;
  cache.SetEvictionHook([&](PhysBlock block) { evicted.push_back(block); });

  Rng rng(0xb10cca11u);
  for (int step = 0; step < 20000; ++step) {
    const PhysBlock block = rng.NextBelow(kKeySpace);
    switch (rng.NextBelow(10)) {
      case 0:
      case 1:
        cache.Insert(block);
        model.Insert(block);
        break;
      case 2:
        cache.Erase(block);
        model.Erase(block);
        break;
      case 3:
        if (rng.NextBelow(200) == 0) {  // rare full flush
          cache.Clear();
          model.Clear();
          break;
        }
        [[fallthrough]];
      default: {
        const bool hit = cache.Access(block);
        ASSERT_EQ(hit, model.Access(block)) << "step " << step << " block " << block;
        break;
      }
    }
    ASSERT_EQ(cache.size_blocks(), model.size()) << "step " << step;
    ASSERT_EQ(cache.Contains(block), model.Contains(block)) << "step " << step;
    // Eviction order is the strongest check: it exposes any divergence in
    // recency order, not just membership.
    ASSERT_EQ(evicted, model.evicted()) << "step " << step;
  }
  EXPECT_FALSE(evicted.empty());
  // Final membership must agree exactly.
  for (PhysBlock block = 0; block < kKeySpace; ++block) {
    EXPECT_EQ(cache.Contains(block), model.Contains(block)) << "block " << block;
  }
}

// --- storage node wire tests ---

class StorageNodeTest : public ::testing::Test {
 protected:
  StorageNodeTest()
      : net_(queue_, NetworkParams{}),
        node_(net_, queue_, 0x0a000010, MakeParams()),
        client_host_(net_, 0x0a000001),
        client_(client_host_, queue_, Endpoint{0x0a000010, kNfsPort}) {}

  static StorageNodeParams MakeParams() {
    StorageNodeParams params;
    params.volume_secret = kSecret;
    params.capacity_bytes = 1 << 26;
    return params;
  }

  FileHandle Fh(uint64_t fileid = 1) const {
    return FileHandle::Make(1, fileid, 1, FileType3::kReg, 1, kSecret);
  }

  EventQueue queue_;
  Network net_;
  StorageNode node_;
  Host client_host_;
  SyncNfsClient client_;
};

TEST_F(StorageNodeTest, WriteThenRead) {
  const Bytes data = Pattern(32768);
  WriteRes w = client_.Write(Fh(), 0, data, StableHow::kFileSync).value();
  ASSERT_EQ(w.status, Nfsstat3::kOk);
  EXPECT_EQ(w.count, 32768u);
  EXPECT_EQ(w.committed, StableHow::kFileSync);

  ReadRes r = client_.Read(Fh(), 0, 32768).value();
  ASSERT_EQ(r.status, Nfsstat3::kOk);
  EXPECT_EQ(r.data, data);
  EXPECT_TRUE(r.eof);
  ASSERT_TRUE(r.file_attributes.has_value());
  EXPECT_EQ(r.file_attributes->size, 32768u);
}

// A READ asking for more than kNfsMaxData, the bound of the client's ReadRes
// decode, gets a short read of the first kNfsMaxData bytes.
TEST_F(StorageNodeTest, ReadPastMaxDataIsShort) {
  const Bytes data = Pattern(2 * kNfsMaxData);
  for (size_t offset = 0; offset < data.size(); offset += kNfsMaxData) {
    const ByteSpan piece = ByteSpan(data).subspan(offset, kNfsMaxData);
    ASSERT_EQ(client_.Write(Fh(), offset, piece, StableHow::kFileSync).value().status,
              Nfsstat3::kOk);
  }
  const Result<ReadRes> r = client_.Read(Fh(), 0, 2 * kNfsMaxData);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().status, Nfsstat3::kOk);
  EXPECT_EQ(r.value().count, kNfsMaxData);
  EXPECT_FALSE(r.value().eof);
  EXPECT_TRUE(r.value().data == Bytes(data.begin(), data.begin() + kNfsMaxData));
}

TEST_F(StorageNodeTest, BadCapabilityRejected) {
  FileHandle forged = FileHandle::Make(1, 1, 1, FileType3::kReg, 1, kSecret + 1);
  WriteRes w = client_.Write(forged, 0, Pattern(100), StableHow::kFileSync).value();
  EXPECT_EQ(w.status, Nfsstat3::kErrBadhandle);
  ReadRes r = client_.Read(forged, 0, 100).value();
  EXPECT_EQ(r.status, Nfsstat3::kErrBadhandle);
}

TEST_F(StorageNodeTest, UnstableWriteThenCommitDurable) {
  const Bytes data = Pattern(8192);
  WriteRes w = client_.Write(Fh(), 0, data, StableHow::kUnstable).value();
  ASSERT_EQ(w.status, Nfsstat3::kOk);
  EXPECT_EQ(w.committed, StableHow::kUnstable);
  const uint64_t verf = w.verf;

  CommitRes c = client_.Commit(Fh()).value();
  ASSERT_EQ(c.status, Nfsstat3::kOk);
  EXPECT_EQ(c.verf, verf);

  // Crash + restart: committed data survives, verifier changes.
  node_.Fail();
  node_.Restart();
  ReadRes r = client_.Read(Fh(), 0, 8192).value();
  EXPECT_EQ(r.data, data);
  WriteRes w2 = client_.Write(Fh(), 8192, data, StableHow::kUnstable).value();
  EXPECT_NE(w2.verf, verf);
}

TEST_F(StorageNodeTest, CrashLosesUncommittedWrites) {
  const Bytes data = Pattern(8192);
  ASSERT_EQ(client_.Write(Fh(), 0, data, StableHow::kUnstable).value().status, Nfsstat3::kOk);
  node_.Fail();
  node_.Restart();
  ReadRes r = client_.Read(Fh(), 0, 8192).value();
  EXPECT_TRUE(r.data.empty());
}

TEST_F(StorageNodeTest, TruncateViaSetattr) {
  ASSERT_EQ(client_.Write(Fh(), 0, Pattern(4 * kStoreBlockSize), StableHow::kFileSync)
                .value()
                .status,
            Nfsstat3::kOk);
  SetattrArgs args;
  args.object = Fh();
  args.new_attributes.size = 100;
  SetattrRes res = client_.Setattr(args).value();
  EXPECT_EQ(res.status, Nfsstat3::kOk);
  EXPECT_EQ(client_.Getattr(Fh()).value().size, 100u);
}

TEST_F(StorageNodeTest, RemoveObject) {
  ASSERT_EQ(client_.Write(Fh(), 0, Pattern(100), StableHow::kFileSync).value().status,
            Nfsstat3::kOk);
  RemoveRes res = client_.Remove(Fh(), "").value();
  EXPECT_EQ(res.status, Nfsstat3::kOk);
  EXPECT_EQ(node_.store().object_count(), 0u);
}

TEST_F(StorageNodeTest, CachedReadIsFasterThanCold) {
  const Bytes data = Pattern(65536);
  ASSERT_EQ(client_.Write(Fh(), 0, data, StableHow::kFileSync).value().status, Nfsstat3::kOk);
  // Writes populate the cache; force eviction by restarting (clears cache).
  node_.Fail();
  node_.Restart();

  const SimTime t0 = queue_.now();
  ASSERT_EQ(client_.Read(Fh(), 0, 65536).value().status, Nfsstat3::kOk);
  const SimTime cold = queue_.now() - t0;

  const SimTime t1 = queue_.now();
  ASSERT_EQ(client_.Read(Fh(), 0, 65536).value().status, Nfsstat3::kOk);
  const SimTime warm = queue_.now() - t1;
  EXPECT_LT(warm * 2, cold);  // warm read skips all disk time
}

TEST_F(StorageNodeTest, SequentialReadTriggersPrefetch) {
  const Bytes data = Pattern(64 * kStoreBlockSize);
  ASSERT_EQ(client_.Write(Fh(), 0, data, StableHow::kFileSync).value().status, Nfsstat3::kOk);
  node_.Fail();
  node_.Restart();
  ASSERT_EQ(client_.Read(Fh(), 0, 32768).value().status, Nfsstat3::kOk);
  EXPECT_GT(node_.prefetches_issued(), 0u);
  // The prefetched blocks are cache-resident: the next sequential read sees
  // only hits.
  const uint64_t misses_before = node_.cache().misses();
  ASSERT_EQ(client_.Read(Fh(), 32768, 32768).value().status, Nfsstat3::kOk);
  EXPECT_EQ(node_.cache().misses(), misses_before);
}

// Regression: an out-of-space COMMIT used to reply NFS3_OK while the store
// dropped the blocks it could not place. The node now replies NFS3ERR_NOSPC
// and the unplaced data stays readable.
TEST(StorageNodeNospcTest, OutOfSpaceCommitRepliesNospc) {
  EventQueue queue;
  Network net(queue, NetworkParams{});
  StorageNodeParams params;
  params.volume_secret = kSecret;
  params.capacity_bytes = 4 * kStoreBlockSize;
  StorageNode node(net, queue, 0x0a000010, params);
  Host client_host(net, 0x0a000001);
  SyncNfsClient client(client_host, queue, Endpoint{0x0a000010, kNfsPort});
  const FileHandle full = FileHandle::Make(1, 1, 1, FileType3::kReg, 1, kSecret);
  const FileHandle pending = FileHandle::Make(1, 2, 1, FileType3::kReg, 1, kSecret);

  ASSERT_EQ(client.Write(full, 0, Pattern(3 * kStoreBlockSize), StableHow::kFileSync)
                .value()
                .status,
            Nfsstat3::kOk);
  const Bytes unstable(2 * kStoreBlockSize, 0xcc);
  ASSERT_EQ(client.Write(pending, 0, unstable, StableHow::kUnstable).value().status,
            Nfsstat3::kOk);

  EXPECT_EQ(client.Commit(pending).value().status, Nfsstat3::kErrNospc);
  EXPECT_EQ(node.store().dirty_blocks(), 1u);
  ReadRes read = client.Read(pending, 0, 2 * kStoreBlockSize).value();
  ASSERT_EQ(read.status, Nfsstat3::kOk);
  EXPECT_EQ(read.data, unstable);
}

TEST_F(StorageNodeTest, GetattrReportsSize) {
  ASSERT_EQ(client_.Write(Fh(7), 0, Pattern(12345), StableHow::kFileSync).value().status,
            Nfsstat3::kOk);
  Fattr3 attr = client_.Getattr(Fh(7)).value();
  EXPECT_EQ(attr.size, 12345u);
  EXPECT_EQ(attr.fileid, 7u);
}

TEST_F(StorageNodeTest, FsstatReportsCapacity) {
  FsstatRes res = client_.Fsstat(Fh()).value();
  ASSERT_EQ(res.status, Nfsstat3::kOk);
  EXPECT_EQ(res.tbytes, 1u << 26);
}

TEST_F(StorageNodeTest, UnsupportedProcRejected) {
  Result<LookupRes> res = client_.Lookup(Fh(), "x");
  EXPECT_FALSE(res.ok());  // PROC_UNAVAIL surfaces as an RPC-level error
}

}  // namespace
}  // namespace slice
