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
#include "src/dir/dir_server.h"
#include "src/net/packet_pool.h"
#include "src/nfs/nfs_client.h"
#include "src/nfs/nfs_xdr.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/rpc/rpc_client.h"
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

// The WRITE path against a REAL storage node: unstable WRITEs over blocks
// already on disk, each followed by a COMMIT, sent straight from a client
// host. The WRITE decodes its data as a view of the request packet and
// copies it once into a page off the store's free list; the COMMIT moves
// that page into the stable image and frees the page it replaces. Once the
// DRC ring, the object's block tables, the page free list and the pool
// freelists have warmed, a WRITE + COMMIT round trip touches the heap zero
// times.
TEST(FastPathAllocTest, SteadyStateWriteAndCommitThroughStorageNodeDoNotAllocate) {
  EventQueue queue;
  Network net(queue, NetworkParams{});
  Host client_host(net, kClientAddr);
  StorageNode storage(net, queue, kStorageAddr, StorageNodeParams{});

  const FileHandle fh = FileHandle::Make(1, MakeFileid(0, 42), 1, FileType3::kReg, 1, 0);
  const ObjectId object = MixU64(fh.fileid() ^ (static_cast<uint64_t>(fh.volume()) << 48));
  constexpr uint64_t kOffset = 1 << 20;
  constexpr uint32_t kCount = 32768;  // four whole 8 KB blocks
  ASSERT_TRUE(
      storage.mutable_store().Write(object, kOffset, ByteSpan(Bytes(kCount, 0x5a)), true).ok());
  const uint64_t used_blocks = storage.store().used_blocks();

  uint64_t replies = 0;
  client_host.Bind(kClientPort, [&replies](Packet&&) { ++replies; });

  auto make_call = [](NfsProc proc, const XdrEncoder& args) {
    RpcCall call;
    call.xid = 0;  // patched per request: a fixed xid would hit the DRC
    call.prog = kNfsProgram;
    call.vers = kNfsVersion;
    call.proc = static_cast<uint32_t>(proc);
    call.args = args.bytes();
    return call.Encode();
  };
  Bytes write_wire;
  {
    XdrEncoder args;
    WriteArgs wargs;
    wargs.file = fh;
    wargs.offset = kOffset;
    wargs.count = kCount;
    wargs.stable = StableHow::kUnstable;
    wargs.data.assign(kCount, 0xc3);
    wargs.Encode(args);
    write_wire = make_call(NfsProc::kWrite, args);
  }
  Bytes commit_wire;
  {
    XdrEncoder args;
    CommitArgs cargs;
    cargs.file = fh;
    cargs.Encode(args);
    commit_wire = make_call(NfsProc::kCommit, args);
  }

  const Endpoint client_ep{kClientAddr, kClientPort};
  const Endpoint storage_ep{kStorageAddr, kNfsPort};
  uint32_t xid = 0;
  auto send = [&](Bytes& wire) {
    ++xid;
    wire[0] = static_cast<uint8_t>(xid >> 24);
    wire[1] = static_cast<uint8_t>(xid >> 16);
    wire[2] = static_cast<uint8_t>(xid >> 8);
    wire[3] = static_cast<uint8_t>(xid);
    client_host.Send(Packet::MakeUdp(client_ep, storage_ep, wire));
    queue.RunUntilIdle();
  };
  auto round_trip = [&]() {
    send(write_wire);
    send(commit_wire);
  };

  // Warm-up runs the DRC's reply ring (4096 entries, two per round trip) to
  // its FIFO steady state and grows the dirty table and the page free list
  // to their working size.
  constexpr int kWarmup = 4096 / 2 + 128;
  for (int i = 0; i < kWarmup; ++i) {
    round_trip();
  }
  ASSERT_EQ(replies, 2u * kWarmup);

  const uint64_t news_before = AllocCount();
  for (int i = 0; i < 256; ++i) {
    round_trip();
  }
  const uint64_t news_after = AllocCount();

  EXPECT_EQ(news_after - news_before, 0u)
      << "steady-state unstable WRITE + COMMIT through the storage node allocated "
      << (news_after - news_before) << " times over 256 round trips";
  EXPECT_EQ(replies, 2u * (kWarmup + 256u));
  EXPECT_EQ(storage.requests_served(), 2u * (kWarmup + 256u));
  // Every COMMIT landed over the same blocks: nothing dirty, nothing new
  // allocated, and the stable image holds the written bytes.
  EXPECT_EQ(storage.store().dirty_blocks(), 0u);
  EXPECT_EQ(storage.store().used_blocks(), used_blocks);
  EXPECT_EQ(storage.store().Read(object, kOffset, kCount).data, Bytes(kCount, 0xc3));
}

// A warmed NfsClient issuing 32 KB READs and WRITEs through the µproxy to a
// real storage node. Every call is encoded once, straight into a pooled
// frame (the WRITE's payload from the caller's span); the server encodes its
// reply into a pooled frame and fills the envelope in place; the READ
// callback gets a view of the reply packet. The client keeps each pending
// call in a reused slot with its handler inline, and retains a message of
// at most 512 bytes in the slot's own buffer: a READ allocates nothing. A
// WRITE's 32 KB message is retained as an exact-size copy, its one
// allocation. The server and the µproxy allocate nothing.
TEST(FastPathAllocTest, SteadyStateNfsClientBulkRoundTripsAllocateOnlyPerCallState) {
  EventQueue queue;
  Network net(queue, NetworkParams{});
  Host client_host(net, kClientAddr);

  UproxyConfig config;
  config.virtual_server = Endpoint{0x0a0000fe, kNfsPort};
  config.dir_servers = {Endpoint{kDirAddr, kNfsPort}};
  config.storage_nodes = {Endpoint{kStorageAddr, kNfsPort}};
  // The first WRITE arms the attribute writeback timer; keep its flush (a
  // SETATTR to the directory server) out of the measured window.
  config.attr_writeback_interval = FromSeconds(1e6);
  Uproxy uproxy(net, queue, client_host, config);
  StorageNode storage(net, queue, kStorageAddr, StorageNodeParams{});

  const FileHandle fh = FileHandle::Make(1, MakeFileid(0, 42), 1, FileType3::kReg, 1, 0);
  const ObjectId object = MixU64(fh.fileid() ^ (static_cast<uint64_t>(fh.volume()) << 48));
  constexpr uint64_t kOffset = 1 << 20;  // above the small-file bulk threshold
  static constexpr uint32_t kCount = 32768;
  ASSERT_TRUE(
      storage.mutable_store().Write(object, kOffset, ByteSpan(Bytes(kCount, 0x5a)), true).ok());

  NfsClient client(client_host, queue, config.virtual_server);
  const Bytes payload(kCount, 0xc3);
  uint64_t reads_ok = 0;
  uint64_t writes_ok = 0;
  // Runs one call to completion, then lets its retransmit timer expire so
  // the event queue does not accumulate dead timers across round trips.
  auto finish = [&queue](const uint64_t& counter, uint64_t want) {
    while (counter < want && queue.RunOne()) {
    }
    queue.RunUntil(queue.now() + FromMillis(500));
  };
  auto read_trip = [&]() {
    const uint64_t want = reads_ok + 1;
    client.Read(fh, kOffset, kCount, [&reads_ok](Status st, const ReadResView& res) {
      if (st.ok() && res.status == Nfsstat3::kOk && res.data.size() == kCount &&
          res.data[0] == 0xc3) {
        ++reads_ok;
      }
    });
    finish(reads_ok, want);
  };
  auto write_trip = [&]() {
    const uint64_t want = writes_ok + 1;
    client.Write(fh, kOffset, payload, StableHow::kUnstable,
                 [&writes_ok](Status st, const WriteRes& res) {
                   if (st.ok() && res.status == Nfsstat3::kOk && res.count == kCount) {
                     ++writes_ok;
                   }
                 });
    finish(writes_ok, want);
  };

  // Warm-up: the first WRITE lands before the first READ, so every READ sees
  // the written bytes. It runs the DRC's reply ring (4096 entries, two per
  // iteration) to its FIFO steady state and settles the pool's buffers.
  constexpr int kWarmup = 4096 / 2 + 128;
  for (int i = 0; i < kWarmup; ++i) {
    write_trip();
    read_trip();
  }
  ASSERT_EQ(writes_ok, static_cast<uint64_t>(kWarmup));
  ASSERT_EQ(reads_ok, static_cast<uint64_t>(kWarmup));

  constexpr int kTrips = 256;
  uint64_t write_allocs = 0;
  uint64_t read_allocs = 0;
  for (int i = 0; i < kTrips; ++i) {
    uint64_t before = AllocCount();
    write_trip();
    write_allocs += AllocCount() - before;
    before = AllocCount();
    read_trip();
    read_allocs += AllocCount() - before;
  }

  EXPECT_EQ(write_allocs, 1u * kTrips)
      << "a 32 KB NfsClient WRITE round trip allocated "
      << static_cast<double>(write_allocs) / kTrips << " times on average";
  EXPECT_EQ(read_allocs, 0u)
      << "a 32 KB NfsClient READ round trip allocated "
      << static_cast<double>(read_allocs) / kTrips << " times on average";
  EXPECT_EQ(writes_ok, static_cast<uint64_t>(kWarmup + kTrips));
  EXPECT_EQ(reads_ok, static_cast<uint64_t>(kWarmup + kTrips));
  EXPECT_EQ(uproxy.pending_count(), 0u);
  EXPECT_EQ(client.rpc().retransmissions(), 0u);
}

// A warmed NfsClient's name and attribute calls through the µproxy to a
// real directory server: the calls are small, so their retained messages
// sit in the slots' own buffers, and LOOKUP and GETATTR round trips
// allocate nothing anywhere.
TEST(FastPathAllocTest, SteadyStateNfsClientGetattrAndLookupRoundTripsDoNotAllocate) {
  EventQueue queue;
  Network net(queue, NetworkParams{});
  Host client_host(net, kClientAddr);

  UproxyConfig config;
  config.virtual_server = Endpoint{0x0a0000fe, kNfsPort};
  config.dir_servers = {Endpoint{kDirAddr, kNfsPort}};
  config.storage_nodes = {Endpoint{kStorageAddr, kNfsPort}};
  Uproxy uproxy(net, queue, client_host, config);
  DirServer dir(net, queue, kDirAddr, DirServerParams{});

  SyncNfsClient setup(client_host, queue, config.virtual_server);
  const FileHandle root = dir.RootHandle();
  Result<CreateRes> created = setup.Create(root, "file");
  ASSERT_TRUE(created.ok() && created->status == Nfsstat3::kOk && created->object.has_value());
  const FileHandle file = *created->object;

  NfsClient client(client_host, queue, config.virtual_server);
  uint64_t getattrs_ok = 0;
  uint64_t lookups_ok = 0;
  auto finish = [&queue](const uint64_t& counter, uint64_t want) {
    while (counter < want && queue.RunOne()) {
    }
    queue.RunUntil(queue.now() + FromMillis(500));
  };
  auto getattr_trip = [&]() {
    const uint64_t want = getattrs_ok + 1;
    client.Getattr(file, [&getattrs_ok, &file](Status st, const GetattrRes& res) {
      if (st.ok() && res.status == Nfsstat3::kOk && res.attributes.fileid == file.fileid()) {
        ++getattrs_ok;
      }
    });
    finish(getattrs_ok, want);
  };
  auto lookup_trip = [&]() {
    const uint64_t want = lookups_ok + 1;
    client.Lookup(root, "file", [&lookups_ok, &file](Status st, const LookupRes& res) {
      if (st.ok() && res.status == Nfsstat3::kOk && res.object == file) {
        ++lookups_ok;
      }
    });
    finish(lookups_ok, want);
  };

  // Warm-up: runs the directory server's DRC ring to its steady state.
  constexpr int kWarmup = 4096 / 2 + 128;
  for (int i = 0; i < kWarmup; ++i) {
    getattr_trip();
    lookup_trip();
  }
  ASSERT_EQ(getattrs_ok, static_cast<uint64_t>(kWarmup));
  ASSERT_EQ(lookups_ok, static_cast<uint64_t>(kWarmup));

  constexpr int kTrips = 256;
  uint64_t getattr_allocs = 0;
  uint64_t lookup_allocs = 0;
  for (int i = 0; i < kTrips; ++i) {
    uint64_t before = AllocCount();
    getattr_trip();
    getattr_allocs += AllocCount() - before;
    before = AllocCount();
    lookup_trip();
    lookup_allocs += AllocCount() - before;
  }

  EXPECT_EQ(getattr_allocs, 0u) << "an NfsClient GETATTR round trip allocated "
                                << static_cast<double>(getattr_allocs) / kTrips
                                << " times on average";
  EXPECT_EQ(lookup_allocs, 0u) << "an NfsClient LOOKUP round trip allocated "
                               << static_cast<double>(lookup_allocs) / kTrips
                               << " times on average";
  EXPECT_EQ(getattrs_ok, static_cast<uint64_t>(kWarmup + kTrips));
  EXPECT_EQ(lookups_ok, static_cast<uint64_t>(kWarmup + kTrips));
  EXPECT_EQ(uproxy.pending_count(), 0u);
  EXPECT_EQ(client.rpc().retransmissions(), 0u);
}

// Each RpcClient transmission arms a retransmit timer. Its closure is
// {this, generation:xid}, 16 trivially-copyable bytes that fit
// std::function's inline buffer, so a call retransmitting into the void
// allocates nothing once the packet pool and flight table are warm.
TEST(FastPathAllocTest, SteadyStateRetransmissionsDoNotAllocate) {
  EventQueue queue;
  Network net(queue, NetworkParams{});
  Host client_host(net, kClientAddr);
  RpcClientParams params;
  params.retransmit_timeout = FromMillis(100);
  params.backoff_factor = 1.0;
  params.max_transmissions = 1000;
  RpcClient client(client_host, queue, params);

  int completions = 0;
  // Nothing is attached at kDirAddr: every transmission is dropped.
  client.Call(Endpoint{kDirAddr, kNfsPort}, kNfsProgram, kNfsVersion,
              static_cast<uint32_t>(NfsProc::kGetattr), Bytes(64, 0),
              [&completions](Status, const RpcMessageView&) { ++completions; });
  queue.RunUntil(FromMillis(1050));  // warm-up: 11 transmissions

  const uint64_t sent_before = client.calls_sent();
  const uint64_t before = AllocCount();
  queue.RunUntil(FromMillis(10050));
  const uint64_t allocs = AllocCount() - before;
  const uint64_t retransmissions = client.calls_sent() - sent_before;

  EXPECT_EQ(retransmissions, 90u);
  EXPECT_EQ(allocs, 0u) << allocs << " allocations over " << retransmissions
                        << " retransmissions";
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(client.pending(), 1u);
}

}  // namespace
}  // namespace slice
