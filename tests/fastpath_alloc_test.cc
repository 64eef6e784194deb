// Steady-state allocation test for the µproxy forwarding fast path.
//
// The zero-allocation claim (DESIGN.md §7) is structural: pooled packet
// buffers, the flat pending table, the cached decode view and slot-table
// flights mean that once every freelist and hash table has warmed up, a
// forwarded request and its reply touch the heap zero times. This test pins
// that down with a process-wide operator-new counter: warm up, then assert
// the delta over a measurement window is exactly zero.
#include <gtest/gtest.h>

#include "src/core/uproxy.h"
#include "src/net/packet_pool.h"
#include "src/nfs/nfs_xdr.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/rpc/rpc_message.h"
#include "src/storage/storage_node.h"
#include "tests/alloc_counter.h"

namespace slice {
namespace {

constexpr NetAddr kClientAddr = 0x0a000001;
constexpr NetAddr kDirAddr = 0x0a000010;
constexpr NetAddr kStorageAddr = 0x0a000020;
constexpr NetPort kNfsPort = 2049;
constexpr NetPort kClientPort = 5001;

TEST(FastPathAllocTest, SteadyStateForwardAndReplyDoNotAllocate) {
  ASSERT_TRUE(PacketPool::Enabled());

  EventQueue queue;
  Network net(queue, NetworkParams{});
  Host client_host(net, kClientAddr);

  UproxyConfig config;
  config.virtual_server = Endpoint{0x0a0000fe, kNfsPort};
  config.dir_servers = {Endpoint{kDirAddr, kNfsPort}};
  config.storage_nodes = {Endpoint{kStorageAddr, kNfsPort}};

  // Tenant plane ON: the zero-allocation claim must hold with per-tenant
  // accounting live (preallocated hub instruments + the cached LUT, no map
  // lookups). The request below carries tenant 1 in its AUTH_SYS uid.
  obs::Metrics metrics;
  metrics.ConfigureTenants(2, FromMillis(50));
  Uproxy uproxy(net, queue, client_host, config, obs::Sinks{.metrics = &metrics});

  uint64_t replies = 0;
  client_host.Bind(kClientPort, [&replies](Packet&&) { ++replies; });

  // Preconstructed wire images: a bulk READ call and its minimal reply
  // (post-op attributes absent, so the attribute patcher exits early).
  RpcCall call;
  call.xid = 99;
  call.cred.uid = 1;  // tenant tag
  call.prog = kNfsProgram;
  call.vers = kNfsVersion;
  call.proc = static_cast<uint32_t>(NfsProc::kRead);
  {
    XdrEncoder args;
    ReadArgs rargs;
    rargs.file = FileHandle::Make(1, MakeFileid(0, 42), 1, FileType3::kReg, 1, 0);
    rargs.offset = 1 << 20;  // above the small-file threshold: bulk route
    rargs.count = 4096;
    rargs.Encode(args);
    call.args = args.Take();
  }
  const Bytes req_wire = call.Encode();

  RpcReply reply;
  reply.xid = 99;
  {
    XdrEncoder result;
    ReadRes res;
    res.status = Nfsstat3::kOk;
    res.count = 4096;
    res.eof = false;
    res.Encode(result);
    reply.result = result.Take();
  }
  const Bytes rep_wire = reply.Encode();

  const Endpoint client_ep{kClientAddr, kClientPort};
  const Endpoint storage_ep{kStorageAddr, kNfsPort};

  auto round_trip = [&]() {
    // Outbound: intercept, decode (view cached on the packet), route,
    // rewrite, inject. The forwarded packet dies at the (absent) storage
    // host — its buffer returns to the pool.
    uproxy.HandleOutbound(Packet::MakeUdp(client_ep, config.virtual_server, req_wire));
    // Inbound: match the pending record, rewrite the source back to the
    // virtual server, deliver to the client socket.
    uproxy.HandleInbound(Packet::MakeUdp(storage_ep, client_ep, rep_wire));
    queue.RunUntilIdle();
  };

  // Warm-up: grows the event heap, the flight queue, the pending table, the
  // op-counter map and the packet pool freelist to steady-state capacity.
  for (int i = 0; i < 64; ++i) {
    round_trip();
  }
  ASSERT_EQ(replies, 64u);

  const uint64_t pool_hits_before = PacketPool::Default().recycle_hits();
  const uint64_t news_before = AllocCount();
  for (int i = 0; i < 256; ++i) {
    round_trip();
  }
  const uint64_t news_after = AllocCount();
  const uint64_t pool_hits_after = PacketPool::Default().recycle_hits();

  EXPECT_EQ(news_after - news_before, 0u)
      << "steady-state forwarding allocated " << (news_after - news_before)
      << " times over 256 round trips";
  EXPECT_EQ(replies, 64u + 256u);
  // Sanity: the measurement window really ran on recycled pool buffers.
  EXPECT_GE(pool_hits_after - pool_hits_before, 2u * 256u);
  EXPECT_EQ(uproxy.pending_count(), 0u);
  // And the tenant plane really was live: every round trip was attributed.
  const obs::TenantInstruments* t1 = metrics.Tenant(1);
  ASSERT_NE(t1, nullptr);
  EXPECT_EQ(t1->ops[static_cast<size_t>(obs::TenantOpClass::kRead)].Value(), 64u + 256u);
}

// The same steady-state window with the profiler ON: every per-stage scope
// (outbound/decode/route/soft-state/rewrite/metrics/inbound/attr-patch) and
// every ledger charge runs on the fast path, and none of it may touch the
// heap — the scope engine is a fixed node pool + fixed stack, and the ledger
// pointer is cached at construction.
TEST(FastPathAllocTest, SteadyStateWithProfilerEnabledDoesNotAllocate) {
  ASSERT_TRUE(PacketPool::Enabled());

  // Profiler live: ledger pointers cached at construction, scope tree grown
  // during warm-up (FindOrAddChild only ever indexes into the fixed pool).
  obs::Profiler profiler(obs::ProfilerParams{.enabled = true});
  const obs::Sinks sinks{.profiler = &profiler};

  EventQueue queue;
  Network net(queue, NetworkParams{}, sinks);
  Host client_host(net, kClientAddr);

  UproxyConfig config;
  config.virtual_server = Endpoint{0x0a0000fe, kNfsPort};
  config.dir_servers = {Endpoint{kDirAddr, kNfsPort}};
  config.storage_nodes = {Endpoint{kStorageAddr, kNfsPort}};
  Uproxy uproxy(net, queue, client_host, config, sinks);

  uint64_t replies = 0;
  client_host.Bind(kClientPort, [&replies](Packet&&) { ++replies; });

  RpcCall call;
  call.xid = 99;
  call.prog = kNfsProgram;
  call.vers = kNfsVersion;
  call.proc = static_cast<uint32_t>(NfsProc::kRead);
  {
    XdrEncoder args;
    ReadArgs rargs;
    rargs.file = FileHandle::Make(1, MakeFileid(0, 42), 1, FileType3::kReg, 1, 0);
    rargs.offset = 1 << 20;
    rargs.count = 4096;
    rargs.Encode(args);
    call.args = args.Take();
  }
  const Bytes req_wire = call.Encode();

  RpcReply reply;
  reply.xid = 99;
  {
    XdrEncoder result;
    ReadRes res;
    res.status = Nfsstat3::kOk;
    res.count = 4096;
    res.eof = false;
    res.Encode(result);
    reply.result = result.Take();
  }
  const Bytes rep_wire = reply.Encode();

  const Endpoint client_ep{kClientAddr, kClientPort};
  const Endpoint storage_ep{kStorageAddr, kNfsPort};
  auto round_trip = [&]() {
    uproxy.HandleOutbound(Packet::MakeUdp(client_ep, config.virtual_server, req_wire));
    uproxy.HandleInbound(Packet::MakeUdp(storage_ep, client_ep, rep_wire));
    queue.RunUntilIdle();
  };

  for (int i = 0; i < 64; ++i) {
    round_trip();
  }
  ASSERT_EQ(replies, 64u);

  const uint64_t news_before = AllocCount();
  for (int i = 0; i < 256; ++i) {
    round_trip();
  }
  const uint64_t news_after = AllocCount();

  EXPECT_EQ(news_after - news_before, 0u)
      << "profiled steady-state forwarding allocated " << (news_after - news_before)
      << " times over 256 round trips";
  EXPECT_EQ(replies, 64u + 256u);
  EXPECT_EQ(profiler.dropped_scopes(), 0u);
  // The profiler really was live on every packet in the window.
  EXPECT_GE(profiler.ScopeCount(obs::ProfScope::kUproxyOutbound), 64u + 256u);
  EXPECT_GE(profiler.ScopeCount(obs::ProfScope::kUproxyInbound), 64u + 256u);
  // And the client host's ledger accumulated proxy CPU attribution.
  const uint64_t* ledger = profiler.LedgerFor(kClientAddr);
  EXPECT_GT(ledger[static_cast<size_t>(obs::LedgerCat::kCpu)], 0u);
}

// The full request path against a REAL storage node: µproxy outbound decode/
// route/rewrite → network delivery → RpcServerNode view decode + DRC →
// StorageNode cache-hit READ into reusable scratch → span-spliced reply
// encode → DRC reply ring → deferred send flight → µproxy inbound pairing +
// attribute patch → client socket. Once the DRC ring, flat tables, caches,
// scratch encoders and pool freelists have warmed, a served request must
// touch the heap zero times end to end.
TEST(FastPathAllocTest, FullPathThroughStorageNodeDoesNotAllocate) {
  ASSERT_TRUE(PacketPool::Enabled());

  EventQueue queue;
  Network net(queue, NetworkParams{});
  Host client_host(net, kClientAddr);

  UproxyConfig config;
  config.virtual_server = Endpoint{0x0a0000fe, kNfsPort};
  config.dir_servers = {Endpoint{kDirAddr, kNfsPort}};
  config.storage_nodes = {Endpoint{kStorageAddr, kNfsPort}};
  Uproxy uproxy(net, queue, client_host, config);

  StorageNode storage(net, queue, kStorageAddr, StorageNodeParams{});

  // Back the READ with real object bytes (stable image, physical blocks).
  const FileHandle fh = FileHandle::Make(1, MakeFileid(0, 42), 1, FileType3::kReg, 1, 0);
  const ObjectId object = MixU64(fh.fileid() ^ (static_cast<uint64_t>(fh.volume()) << 48));
  constexpr uint64_t kOffset = 1 << 20;  // above the small-file bulk threshold
  constexpr uint32_t kCount = 4096;
  {
    Bytes payload(64 << 10, 0x5a);
    ASSERT_TRUE(storage.mutable_store().Write(object, kOffset, ByteSpan(payload), true).ok());
  }

  uint64_t replies = 0;
  client_host.Bind(kClientPort, [&replies](Packet&&) { ++replies; });

  RpcCall call;
  call.xid = 0;  // patched per request: a fixed xid would hit the DRC
  call.prog = kNfsProgram;
  call.vers = kNfsVersion;
  call.proc = static_cast<uint32_t>(NfsProc::kRead);
  {
    XdrEncoder args;
    ReadArgs rargs;
    rargs.file = fh;
    rargs.offset = kOffset;
    rargs.count = kCount;
    rargs.Encode(args);
    call.args = args.Take();
  }
  Bytes req_wire = call.Encode();

  const Endpoint client_ep{kClientAddr, kClientPort};
  uint32_t xid = 0;
  auto round_trip = [&]() {
    ++xid;
    req_wire[0] = static_cast<uint8_t>(xid >> 24);
    req_wire[1] = static_cast<uint8_t>(xid >> 16);
    req_wire[2] = static_cast<uint8_t>(xid >> 8);
    req_wire[3] = static_cast<uint8_t>(xid);
    uproxy.HandleOutbound(Packet::MakeUdp(client_ep, config.virtual_server, req_wire));
    queue.RunUntilIdle();
  };

  // Warm-up must run the DRC's reply ring (4096 entries) all the way to its
  // FIFO steady state so the flat index stops growing and every ring slot's
  // wire buffer has its capacity; it also fills the block cache (the first
  // trip's misses go to the simulated disks) and the pool freelists.
  constexpr int kWarmup = 4096 + 128;
  for (int i = 0; i < kWarmup; ++i) {
    round_trip();
  }
  ASSERT_EQ(replies, static_cast<uint64_t>(kWarmup));

  const uint64_t pool_hits_before = PacketPool::Default().recycle_hits();
  const uint64_t news_before = AllocCount();
  for (int i = 0; i < 256; ++i) {
    round_trip();
  }
  const uint64_t news_after = AllocCount();

  EXPECT_EQ(news_after - news_before, 0u)
      << "steady-state full path (uproxy -> rpc dispatch -> storage cache hit -> "
         "reply encode -> uproxy inbound) allocated "
      << (news_after - news_before) << " times over 256 served requests";
  EXPECT_EQ(replies, static_cast<uint64_t>(kWarmup) + 256u);
  EXPECT_EQ(storage.requests_served(), static_cast<uint64_t>(kWarmup) + 256u);
  // Each trip recycles at least the request and reply packet buffers.
  EXPECT_GE(PacketPool::Default().recycle_hits() - pool_hits_before, 2u * 256u);
  EXPECT_EQ(uproxy.pending_count(), 0u);
}

// With pooling disabled (the determinism A/B hook) the same traffic must
// still be correct — it just pays the allocations the pool elides.
TEST(FastPathAllocTest, DisabledPoolStillForwardsCorrectly) {
  PacketPool::SetEnabled(false);
  EventQueue queue;
  Network net(queue, NetworkParams{});
  Host client_host(net, kClientAddr);

  UproxyConfig config;
  config.virtual_server = Endpoint{0x0a0000fe, kNfsPort};
  config.dir_servers = {Endpoint{kDirAddr, kNfsPort}};
  config.storage_nodes = {Endpoint{kStorageAddr, kNfsPort}};
  Uproxy uproxy(net, queue, client_host, config);

  uint64_t replies = 0;
  client_host.Bind(kClientPort, [&replies](Packet&&) { ++replies; });

  RpcCall call;
  call.xid = 7;
  call.prog = kNfsProgram;
  call.vers = kNfsVersion;
  call.proc = static_cast<uint32_t>(NfsProc::kRead);
  XdrEncoder args;
  ReadArgs rargs;
  rargs.file = FileHandle::Make(1, MakeFileid(0, 7), 1, FileType3::kReg, 1, 0);
  rargs.offset = 1 << 20;
  rargs.count = 512;
  rargs.Encode(args);
  call.args = args.Take();

  RpcReply reply;
  reply.xid = 7;
  XdrEncoder result;
  ReadRes res;
  res.status = Nfsstat3::kOk;
  res.Encode(result);
  reply.result = result.Take();

  uproxy.HandleOutbound(
      Packet::MakeUdp(Endpoint{kClientAddr, kClientPort}, config.virtual_server, call.Encode()));
  uproxy.HandleInbound(
      Packet::MakeUdp(Endpoint{kStorageAddr, kNfsPort}, Endpoint{kClientAddr, kClientPort},
                      reply.Encode()));
  queue.RunUntilIdle();
  EXPECT_EQ(replies, 1u);
  EXPECT_EQ(uproxy.pending_count(), 0u);
  PacketPool::SetEnabled(true);
}

}  // namespace
}  // namespace slice
