// In-proxy metadata cache tests (src/core/attr_cache.h LookupCache + the
// µproxy serve/fill/invalidate paths):
//
//  * the bounded LRU is checked differentially against a brain-dead model
//    cache over a randomized trace (hits, evictions, erases all match);
//  * epoch invalidation is *exact*: an epoch bump that rebinds slots flushes
//    precisely the entries resolved through those slots and nothing else;
//  * the cache-served hit path is zero-allocation at steady state, pinned
//    with the process-wide operator-new counter (tests/alloc_counter.h)
//    that also pins the forwarding fast path.
#include <gtest/gtest.h>

#include <list>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/attr_cache.h"
#include "src/core/request_decode.h"
#include "src/core/uproxy.h"
#include "src/dir/dir_server.h"
#include "src/dir/dir_store.h"
#include "src/net/packet_pool.h"
#include "src/nfs/nfs_xdr.h"
#include "src/rpc/rpc_message.h"
#include "tests/alloc_counter.h"

namespace slice {
namespace {

Fattr3 TestAttr(uint64_t fileid) {
  Fattr3 attr;
  attr.fileid = fileid;
  attr.size = 4096 + fileid;
  return attr;
}

FileHandle ChildHandle(uint64_t fileid) {
  return FileHandle::Make(1, fileid, 1, FileType3::kReg, 1, 0);
}

// ---- LookupCache unit properties -----------------------------------------

TEST(ProxyCacheTest, LruMatchesModelCacheOverRandomTrace) {
  constexpr size_t kCapacity = 32;
  LookupCache cache(kCapacity);

  // Reference model: an explicit most-recent-first list of (dir, fp) keys.
  struct Model {
    size_t cap = kCapacity;
    uint64_t evictions = 0;
    std::list<std::pair<uint64_t, uint64_t>> order;  // front = most recent

    bool Find(uint64_t d, uint64_t f) {
      for (auto it = order.begin(); it != order.end(); ++it) {
        if (it->first == d && it->second == f) {
          order.splice(order.begin(), order, it);
          return true;
        }
      }
      return false;
    }
    void Insert(uint64_t d, uint64_t f) {
      if (Find(d, f)) {
        return;  // overwrite + touch
      }
      if (order.size() == cap) {
        order.pop_back();
        ++evictions;
      }
      order.emplace_front(d, f);
    }
    void Erase(uint64_t d, uint64_t f) {
      order.remove(std::pair<uint64_t, uint64_t>{d, f});
    }
  } model;

  Rng rng(0xcac4e);
  for (int op = 0; op < 4000; ++op) {
    const uint64_t dir = 1 + rng.NextBelow(4);
    const uint64_t fp = 0x1000 + rng.NextBelow(64);
    switch (rng.NextBelow(10)) {
      case 0:  // erase
        cache.Erase(dir, fp);
        model.Erase(dir, fp);
        break;
      case 1:
      case 2:
      case 3:  // insert
        cache.Insert(dir, fp, ChildHandle(fp), TestAttr(fp),
                     static_cast<uint32_t>(fp % 64), /*now_ns=*/op);
        model.Insert(dir, fp);
        break;
      default: {  // find
        const LookupCache::Entry* e = cache.Find(dir, fp, /*now_ns=*/op, /*ttl_ns=*/0);
        ASSERT_EQ(e != nullptr, model.Find(dir, fp)) << "op " << op;
        if (e != nullptr) {
          ASSERT_EQ(e->dir_id, dir);
          ASSERT_EQ(e->name_fp, fp);
          ASSERT_EQ(e->fh.fileid(), fp);
        }
        break;
      }
    }
    ASSERT_EQ(cache.size(), model.order.size()) << "op " << op;
    ASSERT_EQ(cache.evictions(), model.evictions) << "op " << op;
  }
  EXPECT_GT(cache.evictions(), 0u);  // the trace actually exercised capacity
}

TEST(ProxyCacheTest, TtlExpiresEntriesOnProbe) {
  LookupCache cache(8);
  cache.Insert(1, 100, ChildHandle(7), TestAttr(7), 0, /*now_ns=*/1000);
  EXPECT_NE(cache.Find(1, 100, /*now_ns=*/1500, /*ttl_ns=*/600), nullptr);
  // Past the TTL the probe drops the entry and misses.
  EXPECT_EQ(cache.Find(1, 100, /*now_ns=*/1601, /*ttl_ns=*/600), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  // ttl 0 = no expiry.
  cache.Insert(1, 100, ChildHandle(7), TestAttr(7), 0, /*now_ns=*/1000);
  EXPECT_NE(cache.Find(1, 100, /*now_ns=*/1u << 30, /*ttl_ns=*/0), nullptr);
}

TEST(ProxyCacheTest, InvalidateSlotsFlushesExactlyMarkedSlots) {
  LookupCache cache(64);
  for (uint64_t i = 0; i < 24; ++i) {
    cache.Insert(1, i, ChildHandle(i), TestAttr(i),
                 /*slot=*/static_cast<uint32_t>(i % 8), /*now_ns=*/0);
  }
  std::vector<uint8_t> changed(8, 0);
  changed[2] = 1;
  changed[5] = 1;
  // 24 entries over 8 slots = 3 per slot; two slots rebound = 6 flushed.
  EXPECT_EQ(cache.InvalidateSlots(changed), 6u);
  EXPECT_EQ(cache.size(), 18u);
  for (uint64_t i = 0; i < 24; ++i) {
    const bool hit = cache.Find(1, i, 0, 0) != nullptr;
    EXPECT_EQ(hit, i % 8 != 2 && i % 8 != 5) << "fp " << i;
  }
}

TEST(ProxyCacheTest, AttrFlushWherePreservesDirtyEntries) {
  AttrCache cache(64);
  cache.MergeFromReply(10, TestAttr(10));  // clean + complete
  cache.MergeFromReply(11, TestAttr(11));  // clean, then dirtied by a write
  cache.NoteWrite(11, 9000, NfsTime{});
  cache.NoteWrite(12, 100, NfsTime{});     // dirty, partial
  ASSERT_EQ(cache.size(), 3u);
  // Flush everything flushable: only the clean entry goes.
  EXPECT_EQ(cache.FlushWhere([](uint64_t) { return true; }), 1u);
  EXPECT_EQ(cache.Find(10), nullptr);
  ASSERT_NE(cache.Find(11), nullptr);
  EXPECT_TRUE(cache.Find(11)->dirty);
  ASSERT_NE(cache.Find(12), nullptr);
  EXPECT_FALSE(cache.Find(12)->complete);
}

// ---- µproxy integration: fill, serve, epoch invalidation -----------------

constexpr NetAddr kClientAddr = 0x0a000001;
constexpr NetAddr kDirAddr0 = 0x0a000010;
constexpr NetAddr kDirAddr1 = 0x0a000011;
constexpr NetPort kNfsPort = 2049;
constexpr NetPort kClientPort = 5001;

UproxyConfig CacheConfig() {
  UproxyConfig config;
  config.virtual_server = Endpoint{0x0a0000fe, kNfsPort};
  config.dir_servers = {Endpoint{kDirAddr0, kNfsPort}, Endpoint{kDirAddr1, kNfsPort}};
  config.storage_nodes = {Endpoint{0x0a000020, kNfsPort}};
  config.proxy_cache = true;
  return config;
}

Bytes LookupCallWire(uint32_t xid, const FileHandle& dir, const std::string& name) {
  RpcCall call;
  call.xid = xid;
  call.prog = kNfsProgram;
  call.vers = kNfsVersion;
  call.proc = static_cast<uint32_t>(NfsProc::kLookup);
  XdrEncoder args;
  DirOpArgs da;
  da.dir = dir;
  da.name = name;
  da.Encode(args);
  call.args = args.Take();
  return call.Encode();
}

Bytes LookupReplyWire(uint32_t xid, const FileHandle& child) {
  RpcReply reply;
  reply.xid = xid;
  XdrEncoder result;
  LookupRes res;
  res.status = Nfsstat3::kOk;
  res.object = child;
  res.obj_attributes = TestAttr(child.fileid());
  res.Encode(result);
  reply.result = result.Take();
  return reply.Encode();
}

Bytes GetattrCallWire(uint32_t xid, const FileHandle& fh) {
  RpcCall call;
  call.xid = xid;
  call.prog = kNfsProgram;
  call.vers = kNfsVersion;
  call.proc = static_cast<uint32_t>(NfsProc::kGetattr);
  XdrEncoder args;
  GetattrArgs ga;
  ga.object = fh;
  ga.Encode(args);
  call.args = args.Take();
  return call.Encode();
}

struct ProxyRig {
  EventQueue queue;
  Network net{queue, NetworkParams{}};
  Host client_host{net, kClientAddr};
  Uproxy uproxy;
  std::vector<Bytes> replies;

  ProxyRig() : uproxy(net, queue, client_host, CacheConfig()) {
    client_host.Bind(kClientPort, [this](Packet&& pkt) {
      replies.emplace_back(pkt.payload().begin(), pkt.payload().end());
    });
  }

  // Primes one (dir, name) entry with a full wire round trip through the
  // forward + reply-fill path.
  void Fill(uint32_t xid, const FileHandle& dir, const std::string& name,
            const FileHandle& child) {
    uproxy.HandleOutbound(Packet::MakeUdp(Endpoint{kClientAddr, kClientPort},
                                          CacheConfig().virtual_server,
                                          LookupCallWire(xid, dir, name)));
    uproxy.HandleInbound(Packet::MakeUdp(Endpoint{kDirAddr0, kNfsPort},
                                         Endpoint{kClientAddr, kClientPort},
                                         LookupReplyWire(xid, child)));
    queue.RunUntilIdle();
  }

  // Issues a LOOKUP; returns true when it was answered locally (no new
  // pending forward).
  bool Probe(uint32_t xid, const FileHandle& dir, const std::string& name) {
    const size_t pending_before = uproxy.pending_count();
    const size_t replies_before = replies.size();
    uproxy.HandleOutbound(Packet::MakeUdp(Endpoint{kClientAddr, kClientPort},
                                          CacheConfig().virtual_server,
                                          LookupCallWire(xid, dir, name)));
    queue.RunUntilIdle();
    const bool served = replies.size() == replies_before + 1;
    if (served) {
      EXPECT_EQ(uproxy.pending_count(), pending_before);
    }
    return served;
  }
};

TEST(ProxyCacheTest, ServesRepeatLookupLocallyWithWireCorrectReply) {
  ProxyRig rig;
  const FileHandle dir = FileHandle::Make(1, MakeFileid(0, 2), 1, FileType3::kDir, 1, 0);
  const FileHandle child = ChildHandle(MakeFileid(0, 77));
  rig.Fill(1, dir, "alpha", child);
  ASSERT_EQ(rig.replies.size(), 1u);  // the forwarded reply reached the client

  ASSERT_TRUE(rig.Probe(2, dir, "alpha"));
  EXPECT_EQ(rig.uproxy.counters().Get("cache_lookup_hits"), 1u);
  // The cache-served reply is wire-compatible: our own reply-view decoder
  // accepts it and returns the filled handle + attributes.
  LookupReplyView view;
  ASSERT_TRUE(DecodeLookupReplyView(ByteSpan(rig.replies.back()), &view).ok());
  EXPECT_EQ(view.xid, 2u);
  EXPECT_EQ(view.nfs_status, 0u);
  EXPECT_EQ(view.fh.fileid(), child.fileid());
  ASSERT_TRUE(view.has_attr);
  EXPECT_EQ(view.attr.fileid, child.fileid());

  // Unknown names still miss and forward.
  EXPECT_FALSE(rig.Probe(3, dir, "beta"));
  EXPECT_EQ(rig.uproxy.counters().Get("cache_lookup_misses"), 2u);  // fill + beta
}

TEST(ProxyCacheTest, GetattrServedFromCompleteAttrEntryOnly) {
  ProxyRig rig;
  const FileHandle dir = FileHandle::Make(1, MakeFileid(0, 2), 1, FileType3::kDir, 1, 0);
  const FileHandle child = ChildHandle(MakeFileid(0, 9));
  rig.Fill(1, dir, "alpha", child);

  // The lookup reply's post-op attrs made the entry complete: local serve.
  const size_t replies_before = rig.replies.size();
  rig.uproxy.HandleOutbound(Packet::MakeUdp(Endpoint{kClientAddr, kClientPort},
                                            CacheConfig().virtual_server,
                                            GetattrCallWire(5, child)));
  rig.queue.RunUntilIdle();
  ASSERT_EQ(rig.replies.size(), replies_before + 1);
  EXPECT_EQ(rig.uproxy.counters().Get("cache_getattr_hits"), 1u);
  GetattrReplyView view;
  ASSERT_TRUE(DecodeGetattrReplyView(ByteSpan(rig.replies.back()), &view).ok());
  EXPECT_EQ(view.xid, 5u);
  EXPECT_EQ(view.attr.fileid, child.fileid());

  // A file the proxy has never seen attributes for goes to the server.
  const size_t pending_before = rig.uproxy.pending_count();
  rig.uproxy.HandleOutbound(Packet::MakeUdp(Endpoint{kClientAddr, kClientPort},
                                            CacheConfig().virtual_server,
                                            GetattrCallWire(6, ChildHandle(MakeFileid(0, 999)))));
  rig.queue.RunUntilIdle();
  EXPECT_EQ(rig.uproxy.pending_count(), pending_before + 1);
}

TEST(ProxyCacheTest, RemoveInvalidatesCachedNameAtRequestTime) {
  ProxyRig rig;
  const FileHandle dir = FileHandle::Make(1, MakeFileid(0, 2), 1, FileType3::kDir, 1, 0);
  const FileHandle child = ChildHandle(MakeFileid(0, 33));
  rig.Fill(1, dir, "victim", child);
  ASSERT_TRUE(rig.Probe(2, dir, "victim"));

  // The remove is forwarded (it may yet fail), but the cached name must die
  // now: a racing lookup may not be answered from the proxy.
  RpcCall call;
  call.xid = 3;
  call.prog = kNfsProgram;
  call.vers = kNfsVersion;
  call.proc = static_cast<uint32_t>(NfsProc::kRemove);
  XdrEncoder args;
  DirOpArgs da;
  da.dir = dir;
  da.name = "victim";
  da.Encode(args);
  call.args = args.Take();
  rig.uproxy.HandleOutbound(Packet::MakeUdp(Endpoint{kClientAddr, kClientPort},
                                            CacheConfig().virtual_server, call.Encode()));
  rig.queue.RunUntilIdle();

  EXPECT_FALSE(rig.Probe(4, dir, "victim"));
  // The victim's attributes died with its name: getattr forwards too.
  const size_t pending_before = rig.uproxy.pending_count();
  rig.uproxy.HandleOutbound(Packet::MakeUdp(Endpoint{kClientAddr, kClientPort},
                                            CacheConfig().virtual_server,
                                            GetattrCallWire(7, child)));
  rig.queue.RunUntilIdle();
  EXPECT_EQ(rig.uproxy.pending_count(), pending_before + 1);
}

TEST(ProxyCacheTest, EpochBumpFlushesExactlyReboundSlots) {
  ProxyRig rig;
  const FileHandle dir = FileHandle::Make(1, MakeFileid(0, 2), 1, FileType3::kDir, 1, 0);

  // Fill entries until two distinct logical slots hold at least one entry
  // each, tracking which name landed in which slot.
  std::vector<std::pair<std::string, uint32_t>> filled;  // (name, slot)
  uint32_t xid = 1;
  for (int i = 0; filled.size() < 6 && i < 64; ++i) {
    const std::string name = "entry_" + std::to_string(i);
    const uint64_t fp = NameFingerprint(dir, name);
    rig.Fill(xid++, dir, name, ChildHandle(MakeFileid(0, 100 + i)));
    filled.emplace_back(name, static_cast<uint32_t>(fp % kDefaultLogicalSlots));
  }

  // Rebind exactly the slot the FIRST filled name resolved through; keep
  // every other slot on its round-robin owner.
  const uint32_t rebound = filled[0].second;
  MgmtTableSet tables;
  tables.epoch = 1;
  tables.dir_servers = CacheConfig().dir_servers;
  tables.dir_alive = {1, 1};
  tables.dir_slots.resize(kDefaultLogicalSlots);
  for (uint32_t s = 0; s < kDefaultLogicalSlots; ++s) {
    tables.dir_slots[s] = s % 2;
  }
  tables.dir_slots[rebound] ^= 1;
  ASSERT_TRUE(rig.uproxy.InstallTables(tables));

  size_t expected_flushed = 0;
  for (const auto& [name, slot] : filled) {
    const bool affected = slot == rebound;
    expected_flushed += affected ? 1 : 0;
    // Affected entries miss (forward); unaffected ones still serve locally.
    EXPECT_EQ(rig.Probe(xid++, dir, name), !affected) << name;
  }
  ASSERT_GT(expected_flushed, 0u);
  EXPECT_EQ(rig.uproxy.counters().Get("cache_flushes"), 1u);
  // The attr entries of affected children flush too (they were filled via
  // site-0 fileids, so only slot-binding flushes count here): the counter
  // totals lookup entries + attr entries dropped by this bump.
  EXPECT_GE(rig.uproxy.counters().Get("cache_flushed_entries"), expected_flushed);

  // Same-epoch re-push is a no-op: no second flush event.
  EXPECT_FALSE(rig.uproxy.InstallTables(tables));
  EXPECT_EQ(rig.uproxy.counters().Get("cache_flushes"), 1u);
}

TEST(ProxyCacheTest, SteadyStateLookupHitDoesNotAllocate) {
  ASSERT_TRUE(PacketPool::Enabled());
  // Standalone rig: the reply sink only counts, so the measurement window
  // sees the proxy's allocations and nothing of the harness.
  EventQueue queue;
  Network net(queue, NetworkParams{});
  Host client_host(net, kClientAddr);
  Uproxy uproxy(net, queue, client_host, CacheConfig());
  uint64_t served = 0;
  client_host.Bind(kClientPort, [&served](Packet&&) { ++served; });

  const FileHandle dir = FileHandle::Make(1, MakeFileid(0, 2), 1, FileType3::kDir, 1, 0);
  const FileHandle child = ChildHandle(MakeFileid(0, 42));
  const Endpoint client_ep{kClientAddr, kClientPort};
  const Endpoint vserver = CacheConfig().virtual_server;
  uproxy.HandleOutbound(Packet::MakeUdp(client_ep, vserver, LookupCallWire(1, dir, "hot")));
  uproxy.HandleInbound(Packet::MakeUdp(Endpoint{kDirAddr0, kNfsPort}, client_ep,
                                       LookupReplyWire(1, child)));
  queue.RunUntilIdle();
  ASSERT_EQ(served, 1u);

  const Bytes probe_wire = LookupCallWire(77, dir, "hot");
  auto hit = [&]() {
    uproxy.HandleOutbound(Packet::MakeUdp(client_ep, vserver, probe_wire));
    queue.RunUntilIdle();
  };

  // Warm-up: op-counter map nodes, the reused reply encoder, the event heap
  // and the pool freelist all reach steady-state capacity.
  for (int i = 0; i < 64; ++i) {
    hit();
  }
  ASSERT_EQ(uproxy.counters().Get("cache_lookup_hits"), 64u);

  const uint64_t news_before = AllocCount();
  for (int i = 0; i < 256; ++i) {
    hit();
  }
  const uint64_t news_after = AllocCount();
  EXPECT_EQ(news_after - news_before, 0u)
      << "cache-served lookup allocated " << (news_after - news_before)
      << " times over 256 hits";
  EXPECT_EQ(uproxy.counters().Get("cache_lookup_hits"), 64u + 256u);
  EXPECT_EQ(served, 1u + 64u + 256u);
  EXPECT_EQ(uproxy.pending_count(), 0u);
}

}  // namespace
}  // namespace slice
