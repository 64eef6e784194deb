// Property-based tests (parameterized gtest): randomized sweeps checking
// invariants that must hold for every seed, size, policy, and topology —
// including a model-based end-to-end test that replays random file-system
// operation sequences against both the Slice ensemble and an in-memory
// reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/sfs/fragment_alloc.h"
#include "src/slice/ensemble.h"
#include "src/storage/object_store.h"

namespace slice {
namespace {

// --- ObjectStore vs flat-buffer reference model ---

// Physical placement sets disk timing. Every physical-block list the store
// returns over a seed's run, and its final block map, fold into one hash
// pinned per seed, so a change to where blocks land fails here by name
// rather than only as drift in the simulation digests. Recompute by running
// this test after an intentional placement change; each failure message
// prints the new value.
struct PlacementPin {
  uint64_t seed;
  uint64_t hash;
};
constexpr PlacementPin kPinnedPlacement[] = {
    {1, 0xb09b0b5f97fbc0f7ull},  {2, 0x436623fcd7aae89bull},  {3, 0xeb0694f9d16888f6ull},
    {5, 0x76c999bc088c03ffull},  {8, 0x4b1b29788765bf15ull},  {13, 0xad59735a28572726ull},
    {21, 0x707d3273eb17158bull}, {34, 0xe67e0845290b1d7eull},
};

// Folds a list of physical blocks, led by its length so list boundaries
// count, into `hash`.
uint64_t FoldBlocks(uint64_t hash, const std::vector<PhysBlock>& blocks) {
  uint8_t word[8];
  PutU64(word, blocks.size());
  hash = Fnv1a64(ByteSpan(word, sizeof(word)), hash);
  for (PhysBlock block : blocks) {
    PutU64(word, block);
    hash = Fnv1a64(ByteSpan(word, sizeof(word)), hash);
  }
  return hash;
}

Bytes Join(const std::vector<ByteSpan>& segments) {
  Bytes out;
  for (ByteSpan segment : segments) {
    out.insert(out.end(), segment.begin(), segment.end());
  }
  return out;
}

class ObjectStoreModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ObjectStoreModelTest, RandomOpsMatchReferenceModel) {
  Rng rng(GetParam());
  ObjectStore store(16 << 20);
  // Reference: per object, a simple byte vector (stable) + overlay vector,
  // and the logical blocks each image holds.
  struct Ref {
    Bytes stable;
    Bytes view;  // stable with uncommitted overlay applied
    std::set<BlockIndex> stable_blocks;
    std::set<BlockIndex> dirty_blocks;
  };
  std::map<ObjectId, Ref> model;
  uint64_t placement = kFnvOffsetBasis;
  std::vector<PhysBlock> blocks;
  // Random reads stay pinned for a while, as the duplicate-request cache
  // pins a READ reply's pages; whatever the store does meanwhile, a pinned
  // read keeps its bytes. A second generator picks the pinned reads and
  // when they are unpinned, so the op sequence, and with it the placement
  // hash, is the one without pins.
  struct PinnedRead {
    std::vector<ByteSpan> segments;
    std::vector<PageId> pages;
    Bytes snapshot;
  };
  std::vector<PinnedRead> pins;
  Rng pin_rng(GetParam() ^ 0x5eed);
  auto unpin = [&](const PinnedRead& read) {
    for (PageId page : read.pages) {
      if (page != kNoPage) {
        store.pages().Unref(page);
      }
    }
  };

  for (int step = 0; step < 400; ++step) {
    const ObjectId id = 1 + rng.NextBelow(4);
    Ref& ref = model[id];
    blocks.clear();
    switch (rng.NextBelow(7)) {
      case 0:
      case 1: {  // write (stable or unstable)
        const bool stable = rng.NextBool(0.5);
        const uint64_t offset = rng.NextBelow(64 << 10);
        Bytes data(1 + rng.NextBelow(10000));
        for (auto& b : data) {
          b = static_cast<uint8_t>(rng.NextU64());
        }
        ASSERT_TRUE(store.Write(id, offset, data, stable, &blocks).ok());
        if (ref.view.size() < offset + data.size()) {
          ref.view.resize(offset + data.size(), 0);
        }
        std::copy(data.begin(), data.end(), ref.view.begin() + static_cast<ptrdiff_t>(offset));
        if (stable) {
          if (ref.stable.size() < offset + data.size()) {
            ref.stable.resize(offset + data.size(), 0);
          }
          std::copy(data.begin(), data.end(),
                    ref.stable.begin() + static_cast<ptrdiff_t>(offset));
        }
        std::set<BlockIndex>& image = stable ? ref.stable_blocks : ref.dirty_blocks;
        for (BlockIndex b = offset / kStoreBlockSize;
             b <= (offset + data.size() - 1) / kStoreBlockSize; ++b) {
          image.insert(b);
        }
        break;
      }
      case 2: {  // commit
        ASSERT_TRUE(store.Commit(id, &blocks).ok());
        ref.stable = ref.view;
        ref.stable_blocks.insert(ref.dirty_blocks.begin(), ref.dirty_blocks.end());
        ref.dirty_blocks.clear();
        break;
      }
      case 3: {  // crash: uncommitted data lost
        store.CrashDiscardDirty();
        for (auto& [oid, r] : model) {
          (void)oid;
          r.view = r.stable;
          r.dirty_blocks.clear();
        }
        break;
      }
      case 4: {  // truncate
        const uint64_t new_size = rng.NextBelow(48 << 10);
        ASSERT_TRUE(store.Truncate(id, new_size).ok());
        // Truncate makes the SIZE durable (both images take it, zero-filled
        // on extension) but does not commit overlay data within the kept
        // range — that still dies in a crash.
        ref.view.resize(new_size, 0);
        ref.stable.resize(new_size, 0);
        const BlockIndex keep = (new_size + kStoreBlockSize - 1) / kStoreBlockSize;
        ref.stable_blocks.erase(ref.stable_blocks.lower_bound(keep), ref.stable_blocks.end());
        ref.dirty_blocks.erase(ref.dirty_blocks.lower_bound(keep), ref.dirty_blocks.end());
        break;
      }
      case 5: {  // remove: every block freed, the object gone
        const bool existed = store.Exists(id);
        EXPECT_EQ(store.Remove(id).ok(), existed);
        EXPECT_FALSE(store.Exists(id));
        model.erase(id);
        break;
      }
      default: {  // read and compare
        const uint64_t offset = rng.NextBelow(72 << 10);
        const uint32_t count = static_cast<uint32_t>(1 + rng.NextBelow(12000));
        StoreReadResult got = store.Read(id, offset, count);
        Bytes expect;
        if (offset < ref.view.size()) {
          const size_t n = std::min<size_t>(count, ref.view.size() - offset);
          expect.assign(ref.view.begin() + static_cast<ptrdiff_t>(offset),
                        ref.view.begin() + static_cast<ptrdiff_t>(offset + n));
        }
        ASSERT_EQ(got.data, expect) << "step " << step << " id " << id << " off " << offset;
        blocks = got.blocks_read;
        break;
      }
    }
    placement = FoldBlocks(placement, blocks);

    // Sizes and block accounting agree with the model.
    uint64_t used = 0;
    uint64_t dirty = 0;
    for (const auto& [oid, r] : model) {
      if (store.Exists(oid)) {
        ASSERT_EQ(store.Size(oid).value(), r.view.size()) << "step " << step << " id " << oid;
      } else {
        ASSERT_TRUE(r.view.empty()) << "step " << step << " id " << oid;
      }
      ASSERT_EQ(store.AllocatedBytes(oid), r.stable_blocks.size() * kStoreBlockSize)
          << "step " << step << " id " << oid;
      used += r.stable_blocks.size();
      dirty += r.dirty_blocks.size();
    }
    ASSERT_EQ(store.used_blocks(), used) << "step " << step;
    ASSERT_EQ(store.dirty_blocks(), dirty) << "step " << step;

    for (const PinnedRead& read : pins) {
      ASSERT_EQ(Join(read.segments), read.snapshot) << "step " << step;
    }
    if (pin_rng.NextBool(0.5)) {
      const ObjectId pin_id = 1 + pin_rng.NextBelow(4);
      const uint64_t offset = pin_rng.NextBelow(64 << 10);
      PinnedRead read;
      std::vector<PhysBlock> pin_blocks;
      store.ReadGather(pin_id, offset, static_cast<uint32_t>(1 + pin_rng.NextBelow(16 << 10)),
                       &read.segments, &read.pages, &pin_blocks);
      for (PageId page : read.pages) {
        if (page != kNoPage) {
          store.pages().Ref(page);
        }
      }
      read.snapshot = Join(read.segments);
      pins.push_back(std::move(read));
    }
    while (!pins.empty() && pin_rng.NextBool(0.2)) {
      const size_t victim = pin_rng.NextBelow(pins.size());
      unpin(pins[victim]);
      pins.erase(pins.begin() + static_cast<ptrdiff_t>(victim));
    }
  }

  // With every pin dropped, the slab holds exactly the store's pages, one
  // reference each: no page leaked, none freed twice.
  for (const PinnedRead& read : pins) {
    unpin(read);
  }
  EXPECT_EQ(store.pages().live_pages(), store.used_blocks() + store.dirty_blocks());
  EXPECT_EQ(store.pages().references(), store.used_blocks() + store.dirty_blocks());
  EXPECT_GT(store.cow_copies(), 0u) << "no write found a pinned page";

  // The final block map over a window covering every offset the run wrote.
  for (ObjectId id = 1; id <= 4; ++id) {
    for (BlockIndex block = 0; block < 12; ++block) {
      blocks.clear();
      if (const std::optional<PhysBlock> phys = store.PhysicalFor(id, block)) {
        blocks.push_back(*phys);
      }
      placement = FoldBlocks(placement, blocks);
    }
  }
  const uint64_t seed = GetParam();
  const auto pin = std::find_if(std::begin(kPinnedPlacement), std::end(kPinnedPlacement),
                                [seed](const PlacementPin& p) { return p.seed == seed; });
  ASSERT_NE(pin, std::end(kPinnedPlacement)) << "no pinned placement for seed " << seed;
  EXPECT_EQ(placement, pin->hash) << "seed " << seed << " placement hash is now 0x" << std::hex
                                  << placement;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObjectStoreModelTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- FragmentAllocator invariants ---

class FragmentAllocatorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FragmentAllocatorPropertyTest, FragmentsNeverOverlapAndStayAligned) {
  Rng rng(GetParam());
  FragmentAllocator alloc;
  std::map<uint64_t, uint32_t> live;  // offset -> alloc size

  for (int step = 0; step < 600; ++step) {
    if (live.empty() || rng.NextBool(0.6)) {
      const uint32_t need = static_cast<uint32_t>(1 + rng.NextBelow(kMaxFragment));
      Fragment fragment = alloc.Allocate(need);
      ASSERT_GE(fragment.alloc_size, need);
      ASSERT_EQ(fragment.offset % fragment.alloc_size, 0u) << "natural alignment";
      // No overlap with any live fragment.
      auto next = live.lower_bound(fragment.offset);
      if (next != live.end()) {
        ASSERT_LE(fragment.offset + fragment.alloc_size, next->first);
      }
      if (next != live.begin()) {
        auto prev = std::prev(next);
        ASSERT_LE(prev->first + prev->second, fragment.offset);
      }
      live[fragment.offset] = fragment.alloc_size;
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<ptrdiff_t>(rng.NextBelow(live.size())));
      alloc.Free(Fragment{it->first, it->second});
      live.erase(it);
    }
  }
  // Accounting adds up.
  uint64_t live_bytes = 0;
  for (const auto& [offset, size] : live) {
    (void)offset;
    live_bytes += size;
  }
  EXPECT_EQ(alloc.allocated_bytes(), live_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FragmentAllocatorPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// --- striping invariants across topologies ---

struct StripeCase {
  size_t nodes;
  uint8_t replication;
};

class StripePropertyTest : public ::testing::TestWithParam<StripeCase> {};

TEST_P(StripePropertyTest, ReplicasDistinctDeterministicInRange) {
  const StripeCase param = GetParam();
  EventQueue queue;
  EnsembleConfig config;
  config.num_storage_nodes = param.nodes;
  config.num_small_file_servers = 0;
  config.default_replication = param.replication;
  Ensemble ensemble(queue, config);
  Uproxy& proxy = ensemble.uproxy(0);

  Rng rng(0xcafe);
  for (int trial = 0; trial < 200; ++trial) {
    const FileHandle fh = FileHandle::Make(1, MakeFileid(0, 2 + rng.NextBelow(1000)), 1,
                                           FileType3::kReg, param.replication,
                                           config.volume_secret);
    const uint64_t offset = rng.NextBelow(1ull << 30);
    std::set<uint32_t> replicas;
    for (uint32_t r = 0; r < param.replication; ++r) {
      const uint32_t site = proxy.StripeSite(fh, offset, r);
      EXPECT_LT(site, param.nodes);
      EXPECT_EQ(site, proxy.StripeSite(fh, offset, r)) << "deterministic";
      replicas.insert(site);
    }
    if (param.replication <= param.nodes) {
      EXPECT_EQ(replicas.size(), param.replication) << "replicas on distinct nodes";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, StripePropertyTest,
                         ::testing::Values(StripeCase{2, 1}, StripeCase{2, 2},
                                           StripeCase{4, 2}, StripeCase{8, 2},
                                           StripeCase{8, 3}, StripeCase{3, 2}),
                         [](const ::testing::TestParamInfo<StripeCase>& param_info) {
                           return "n" + std::to_string(param_info.param.nodes) + "r" +
                                  std::to_string(param_info.param.replication);
                         });

// --- model-based end-to-end: random namespace + data ops through the
// ensemble must match an in-memory reference file system ---

struct EndToEndCase {
  uint64_t seed;
  NamePolicy policy;
  size_t dir_servers;
  uint8_t replication;
};

class EnsembleModelTest : public ::testing::TestWithParam<EndToEndCase> {};

TEST_P(EnsembleModelTest, RandomOpsMatchReferenceFs) {
  const EndToEndCase param = GetParam();
  EventQueue queue;
  EnsembleConfig config;
  config.num_dir_servers = param.dir_servers;
  config.num_storage_nodes = 3;
  config.name_policy = param.policy;
  config.default_replication = param.replication;
  Ensemble ensemble(queue, config);
  auto client = ensemble.MakeSyncClient(0);
  const FileHandle root = ensemble.root();

  Rng rng(param.seed);
  // Reference model: name -> file contents (single flat directory plus one
  // subdirectory to exercise cross-directory renames).
  CreateRes sub = client->Mkdir(root, "sub").value();
  ASSERT_EQ(sub.status, Nfsstat3::kOk);
  struct Entry {
    FileHandle fh;
    Bytes data;
  };
  std::map<std::string, Entry> in_root;
  std::map<std::string, Entry> in_sub;
  int serial = 0;

  auto dir_of = [&](bool sub_dir) -> FileHandle { return sub_dir ? *sub.object : root; };
  auto map_of = [&](bool sub_dir) -> std::map<std::string, Entry>& {
    return sub_dir ? in_sub : in_root;
  };

  for (int step = 0; step < 120; ++step) {
    const bool sub_dir = rng.NextBool(0.3);
    auto& entries = map_of(sub_dir);
    switch (rng.NextBelow(5)) {
      case 0: {  // create + write
        const std::string name = "f" + std::to_string(serial++);
        CreateRes created = client->Create(dir_of(sub_dir), name).value();
        ASSERT_EQ(created.status, Nfsstat3::kOk);
        Bytes data(1 + rng.NextBelow(100000));  // spans both I/O classes
        for (auto& b : data) {
          b = static_cast<uint8_t>(rng.NextU64());
        }
        for (size_t off = 0; off < data.size(); off += 32768) {
          const size_t n = std::min<size_t>(32768, data.size() - off);
          ASSERT_EQ(client
                        ->Write(*created.object, off, ByteSpan(data.data() + off, n),
                                StableHow::kUnstable)
                        .value()
                        .status,
                    Nfsstat3::kOk);
        }
        ASSERT_EQ(client->Commit(*created.object).value().status, Nfsstat3::kOk);
        entries[name] = Entry{*created.object, std::move(data)};
        break;
      }
      case 1: {  // remove
        if (entries.empty()) {
          break;
        }
        auto it = entries.begin();
        std::advance(it, static_cast<ptrdiff_t>(rng.NextBelow(entries.size())));
        ASSERT_EQ(client->Remove(dir_of(sub_dir), it->first).value().status, Nfsstat3::kOk);
        entries.erase(it);
        break;
      }
      case 2: {  // rename (possibly across directories)
        if (entries.empty()) {
          break;
        }
        auto it = entries.begin();
        std::advance(it, static_cast<ptrdiff_t>(rng.NextBelow(entries.size())));
        const bool to_sub = rng.NextBool(0.5);
        const std::string new_name = "r" + std::to_string(serial++);
        RenameRes renamed =
            client->Rename(dir_of(sub_dir), it->first, dir_of(to_sub), new_name).value();
        ASSERT_EQ(renamed.status, Nfsstat3::kOk);
        map_of(to_sub)[new_name] = std::move(it->second);
        entries.erase(it);
        break;
      }
      case 3: {  // read back a random file, compare contents
        if (entries.empty()) {
          break;
        }
        auto it = entries.begin();
        std::advance(it, static_cast<ptrdiff_t>(rng.NextBelow(entries.size())));
        Bytes got;
        for (size_t off = 0; off < it->second.data.size(); off += 32768) {
          ReadRes res = client->Read(it->second.fh, off, 32768).value();
          ASSERT_EQ(res.status, Nfsstat3::kOk);
          got.insert(got.end(), res.data.begin(), res.data.end());
        }
        ASSERT_EQ(got, it->second.data) << "file " << it->first << " step " << step;
        break;
      }
      default: {  // listing matches the model
        std::vector<DirEntry> listed = client->ReadWholeDir(dir_of(sub_dir)).value();
        std::set<std::string> names;
        for (const DirEntry& entry : listed) {
          names.insert(entry.name);
        }
        for (const auto& [name, entry] : entries) {
          (void)entry;
          ASSERT_TRUE(names.contains(name)) << "missing " << name;
        }
        // The listing may also contain "sub" at root; sizes must match.
        ASSERT_EQ(names.size(), entries.size() + (sub_dir ? 0 : 1));
        break;
      }
    }
  }

  // Final sweep: every surviving file readable with exact contents and a
  // fresh, correct size attribute.
  for (const auto* entries : {&in_root, &in_sub}) {
    for (const auto& [name, entry] : *entries) {
      (void)name;
      Fattr3 attr = client->Getattr(entry.fh).value();
      EXPECT_EQ(attr.size, entry.data.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, EnsembleModelTest,
    ::testing::Values(EndToEndCase{101, NamePolicy::kMkdirSwitching, 1, 1},
                      EndToEndCase{102, NamePolicy::kMkdirSwitching, 3, 1},
                      EndToEndCase{103, NamePolicy::kNameHashing, 3, 1},
                      EndToEndCase{104, NamePolicy::kMkdirSwitching, 2, 2},
                      EndToEndCase{105, NamePolicy::kNameHashing, 2, 2}),
    [](const ::testing::TestParamInfo<EndToEndCase>& param_info) {
      return "seed" + std::to_string(param_info.param.seed) +
             (param_info.param.policy == NamePolicy::kNameHashing ? "_hash" : "_switch") +
             "_d" + std::to_string(param_info.param.dir_servers) + "_r" +
             std::to_string(param_info.param.replication);
    });

// --- incremental checksum maintenance under µproxy rewrites ---
//
// Promoted from bench/micro_checksum.cc: the invariant the bench exercises
// for speed must hold for correctness on every packet shape. After any
// sequence of the µproxy's rewrite operations — source/destination NAT and
// in-payload attribute patches, with or without a trace trailer attached —
// the incrementally maintained RFC 1624 checksums must equal a from-scratch
// recomputation, and the packet must verify.

class ChecksumPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChecksumPropertyTest, IncrementalRewritesMatchFullRecompute) {
  Rng rng(GetParam());

  auto expect_checksums_fresh = [](const Packet& pkt, const char* what) {
    ASSERT_TRUE(pkt.IsValidUdp()) << what;
    EXPECT_TRUE(pkt.VerifyChecksums()) << what;
    // The ground truth: a copy recomputed from scratch stores the same sums.
    Packet scratch(pkt.bytes());
    scratch.RecomputeChecksums();
    EXPECT_EQ(pkt.ip_checksum(), scratch.ip_checksum()) << what;
    EXPECT_EQ(pkt.udp_checksum(), scratch.udp_checksum()) << what;
  };

  for (int trial = 0; trial < 200; ++trial) {
    // Randomized packet: size, contents, addressing.
    Bytes payload(rng.NextBelow(1200));
    for (auto& b : payload) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    const Endpoint src{static_cast<NetAddr>(rng.NextU64()),
                       static_cast<NetPort>(rng.NextU64())};
    const Endpoint dst{static_cast<NetAddr>(rng.NextU64()),
                       static_cast<NetPort>(rng.NextU64())};
    Packet pkt = Packet::MakeUdp(src, dst, payload);
    // Half the packets carry a trace trailer, which must be checksum-inert.
    const bool traced = rng.NextBool(0.5);
    if (traced) {
      pkt.AttachTrace(rng.NextU64(), rng.NextU64());
    }
    expect_checksums_fresh(pkt, "freshly built");

    // A random sequence of the µproxy's rewrite paths.
    for (int op = 0; op < 6; ++op) {
      switch (rng.NextBelow(3)) {
        case 0:
          pkt.RewriteSrc(Endpoint{static_cast<NetAddr>(rng.NextU64()),
                                  static_cast<NetPort>(rng.NextU64())});
          break;
        case 1:
          pkt.RewriteDst(Endpoint{static_cast<NetAddr>(rng.NextU64()),
                                  static_cast<NetPort>(rng.NextU64())});
          break;
        default: {
          // In-place payload patch (16-bit aligned, as the attribute
          // rewriter guarantees), like fileid/fsid fixups in replies.
          if (payload.size() < 2) {
            continue;
          }
          const size_t max_len = std::min<size_t>(payload.size(), 64) & ~size_t{1};
          const size_t len = 2 + (rng.NextBelow(max_len) & ~size_t{1});
          if (len > payload.size()) {
            continue;
          }
          const size_t offset =
              kPacketHeaderSize + (rng.NextBelow(payload.size() - len + 1) & ~size_t{1});
          Bytes patch(len);
          for (auto& b : patch) {
            b = static_cast<uint8_t>(rng.NextU64());
          }
          pkt.RewriteBytes(offset, patch);
          break;
        }
      }
      expect_checksums_fresh(pkt, "after incremental rewrite");
      if (traced) {
        EXPECT_TRUE(pkt.HasTrace()) << "rewrites must not eat the trailer";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChecksumPropertyTest,
                         ::testing::Values(0xc0, 0xc1, 0xc2, 0xc3));

// RFC 768 boundary: a UDP checksum that *computes* to zero is transmitted as
// 0xFFFF, because a *stored* zero means "sender supplied no checksum". Sweep
// one payload word through all 2^16 values so the computed sum crosses the
// 0/0xFFFF collapse, and check the incremental path agrees with a recompute
// on every step — the old code let an incremental update land on zero, which
// silently converted a checksummed packet into an unchecksummed one.
TEST(ChecksumRfc768Test, ComputedZeroTransmitsAsAllOnesAcrossFullSweep) {
  Bytes payload(8, 0);
  Packet pkt = Packet::MakeUdp(Endpoint{0x0a000001, 1000}, Endpoint{0x0a000002, 2049},
                               payload);
  int all_ones_seen = 0;
  for (uint32_t w = 0; w <= 0xffff; ++w) {
    uint8_t patch[2];
    PutU16(patch, static_cast<uint16_t>(w));
    pkt.RewriteBytes(kPacketHeaderSize + 4, ByteSpan(patch, 2));
    const uint16_t stored = pkt.udp_checksum();
    ASSERT_NE(stored, 0u) << "incremental update produced the no-checksum form, w=" << w;
    ASSERT_TRUE(pkt.VerifyChecksums()) << "w=" << w;
    Packet scratch(pkt.bytes());
    scratch.RecomputeChecksums();
    ASSERT_EQ(stored, scratch.udp_checksum()) << "w=" << w;
    if (stored == 0xffff) {
      ++all_ones_seen;
    }
  }
  // The sweep must actually cross the boundary for the test to mean anything.
  EXPECT_GT(all_ones_seen, 0);
}

TEST(ChecksumRfc768Test, StoredZeroMeansNoChecksumAndStaysZeroThroughRewrites) {
  Bytes payload(16, 0xab);
  Packet pkt = Packet::MakeUdp(Endpoint{0x0a000001, 1000}, Endpoint{0x0a000002, 2049},
                               payload);
  // A sender that opted out of UDP checksumming stores zero. That must
  // verify (there is nothing to check) and rewrites must not "maintain" the
  // absent checksum into a bogus nonzero value.
  PutU16(pkt.mutable_bytes().data() + kIpHeaderSize + 6, 0);
  ASSERT_TRUE(pkt.VerifyChecksums());

  pkt.RewriteDst(Endpoint{0x0a0000ff, 7777});
  pkt.RewriteSrc(Endpoint{0x0a0000fe, 8888});
  uint8_t patch[4] = {1, 2, 3, 4};
  pkt.RewriteBytes(kPacketHeaderSize + 8, ByteSpan(patch, 4));

  EXPECT_EQ(pkt.udp_checksum(), 0u) << "rewrites resurrected an absent checksum";
  EXPECT_TRUE(pkt.VerifyChecksums());
  // The IP header checksum is always present and must still track rewrites.
  Packet scratch(pkt.bytes());
  scratch.RecomputeChecksums();
  EXPECT_EQ(pkt.ip_checksum(), scratch.ip_checksum());
}

}  // namespace
}  // namespace slice
