// Table 3 reproduction: µproxy CPU cost per packet, by stage.
//
//   paper (500 MHz Alpha, 6250 packets/s): interception 0.7%, packet decode
//   4.1%, redirection/rewriting 0.5%, soft-state logic 0.8% — 6.1% total,
//   with decode dominating because of the variable-length ONC RPC header.
//
// We measure the same stages of *this* µproxy implementation with
// google-benchmark on real packets from the untar op mix, and report each
// stage's ns/packet plus its share of total µproxy CPU and the equivalent
// %CPU at the paper's 6250 packets/s operating point.
// With --trace, a fifth stage is measured: span-context handling (minting
// ids, attaching/peeking the packet trailer, recording a span into the
// bounded ring) — the incremental µproxy cost of end-to-end tracing — plus
// the disabled-tracer fast path, which should be free.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include "src/core/pending_map.h"
#include "src/core/request_decode.h"
#include "src/core/routing_table.h"
#include "src/dir/dir_server.h"
#include "src/net/packet.h"
#include "src/net/packet_pool.h"
#include "src/nfs/nfs_xdr.h"
#include "src/obs/json.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/rpc/rpc_message.h"
#include "src/rpc/rpc_server.h"
#include "src/sim/stats.h"
#include "src/storage/block_cache.h"
#include "src/storage/object_store.h"
#include "tests/alloc_counter.h"

namespace slice {
namespace {

constexpr uint64_t kSecret = 0x51ce;

// Builds the seven-packet untar request mix: lookup, access, create,
// getattr, lookup, setattr, setattr (paper §5).
std::vector<Packet> UntarPacketMix() {
  const FileHandle dir = FileHandle::Make(1, MakeFileid(0, 5), 1, FileType3::kDir, 1, kSecret);
  const FileHandle file = FileHandle::Make(1, MakeFileid(0, 6), 1, FileType3::kReg, 1, kSecret);
  const Endpoint client{0x0a000901, 800};
  const Endpoint server{0x0a000064, 2049};

  auto make = [&](NfsProc proc, const std::function<void(XdrEncoder&)>& encode_args) {
    RpcCall call;
    call.xid = 1000 + static_cast<uint32_t>(proc);
    call.prog = kNfsProgram;
    call.vers = kNfsVersion;
    call.proc = static_cast<uint32_t>(proc);
    call.cred.machine_name = "bench-client-host";  // realistic variable length
    call.cred.gids = {0, 5, 20};
    XdrEncoder enc;
    encode_args(enc);
    call.args = enc.Take();
    return Packet::MakeUdp(client, server, call.Encode());
  };

  std::vector<Packet> mix;
  mix.push_back(make(NfsProc::kLookup,
                     [&](XdrEncoder& e) { DirOpArgs{dir, "newfile.c"}.Encode(e); }));
  mix.push_back(make(NfsProc::kAccess, [&](XdrEncoder& e) { AccessArgs{dir, 0x3f}.Encode(e); }));
  mix.push_back(make(NfsProc::kCreate, [&](XdrEncoder& e) {
    CreateArgs args;
    args.dir = dir;
    args.name = "newfile.c";
    args.Encode(e);
  }));
  mix.push_back(make(NfsProc::kGetattr, [&](XdrEncoder& e) { GetattrArgs{file}.Encode(e); }));
  mix.push_back(make(NfsProc::kLookup,
                     [&](XdrEncoder& e) { DirOpArgs{dir, "newfile.c"}.Encode(e); }));
  mix.push_back(make(NfsProc::kSetattr, [&](XdrEncoder& e) {
    SetattrArgs args;
    args.object = file;
    args.new_attributes.mode = 0644;
    args.Encode(e);
  }));
  mix.push_back(make(NfsProc::kSetattr, [&](XdrEncoder& e) {
    SetattrArgs args;
    args.object = file;
    args.new_attributes.mtime = NfsTime{1, 0};
    args.Encode(e);
  }));
  return mix;
}

// Stage 1: packet interception — recognizing an intercepted UDP packet and
// locating the RPC payload (header sanity checks, address match).
void BM_Stage1_Interception(benchmark::State& state) {
  const std::vector<Packet> mix = UntarPacketMix();
  size_t i = 0;
  for (auto _ : state) {
    const Packet& pkt = mix[i++ % mix.size()];
    bool ours = pkt.IsValidUdp() && pkt.dst_port() == 2049 && pkt.dst_addr() == 0x0a000064;
    benchmark::DoNotOptimize(ours);
    ByteSpan payload = pkt.payload();
    benchmark::DoNotOptimize(payload.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Stage1_Interception);

// Stage 2: packet decode — the ONC RPC header walk (variable-length
// credential) plus extraction of the routed NFS fields, through the
// single-pass DecodedView: no name materialization, no handle copies into
// owned storage. This is what the µproxy runs (and caches on the packet so
// later stages never re-parse).
void BM_Stage2_DecodeView(benchmark::State& state) {
  const std::vector<Packet> mix = UntarPacketMix();
  size_t i = 0;
  for (auto _ : state) {
    const Packet& pkt = mix[i++ % mix.size()];
    DecodedView req;
    Status st = DecodeNfsRequestView(pkt.payload(), &req);
    benchmark::DoNotOptimize(st);
    benchmark::DoNotOptimize(req.fh);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Stage2_DecodeView);

// Stage 3: redirection/rewriting — route selection + destination rewrite
// with incremental checksum adjustment.
void BM_Stage3_RedirectRewrite(benchmark::State& state) {
  std::vector<Packet> mix = UntarPacketMix();
  std::vector<DecodedView> reqs(mix.size());
  for (size_t i = 0; i < mix.size(); ++i) {
    SLICE_CHECK(DecodeNfsRequestView(mix[i].payload(), &reqs[i]).ok());
  }
  RoutingTable table(64, {{0x0a000100, 2049}, {0x0a000101, 2049}, {0x0a000102, 2049}});
  size_t i = 0;
  for (auto _ : state) {
    const size_t idx = i++ % mix.size();
    const Endpoint target = table.ByPhysical(SiteOfFileid(reqs[idx].fh.fileid()));
    mix[idx].RewriteDst(target);
    benchmark::DoNotOptimize(mix[idx].ip_checksum());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Stage3_RedirectRewrite);

// Stage 4: soft-state logic — pending-record insert/erase and response
// pairing bookkeeping, on the flat open-addressing pending table the µproxy
// uses (no per-node allocation).
void BM_Stage4_SoftStateFlat(benchmark::State& state) {
  const std::vector<Packet> mix = UntarPacketMix();
  std::vector<DecodedView> reqs(mix.size());
  for (size_t i = 0; i < mix.size(); ++i) {
    SLICE_CHECK(DecodeNfsRequestView(mix[i].payload(), &reqs[i]).ok());
  }
  struct Pending {
    NfsProc proc;
    FileHandle fh;
    uint64_t offset;
    uint32_t count;
  };
  FlatU64Map<Pending> pending;
  size_t i = 0;
  uint32_t xid = 0;
  for (auto _ : state) {
    const DecodedView& req = reqs[i++ % mix.size()];
    const uint64_t key = (static_cast<uint64_t>(800) << 32) | xid++;
    Pending* p = pending.Insert(key).first;
    p->proc = req.proc;
    p->fh = req.fh;
    p->offset = req.offset;
    p->count = req.count;
    const Pending* found = pending.Find(key);  // response pairing
    benchmark::DoNotOptimize(found->proc);
    pending.Erase(key);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Stage4_SoftStateFlat);

// Stage 5 (--trace only): span-context handling — mint trace/span ids,
// attach the 20-byte trailer, peek it back (what every downstream hop
// does), and record the route-decision span into the bounded ring.
void BM_Stage5_TraceContext(benchmark::State& state) {
  std::vector<Packet> mix = UntarPacketMix();
  obs::Tracer tracer(obs::TracerParams{.enabled = true});
  size_t i = 0;
  for (auto _ : state) {
    Packet& pkt = mix[i++ % mix.size()];
    const obs::TraceContext ctx{tracer.NewTraceId(), tracer.NewSpanId()};
    pkt.AttachTrace(ctx.trace_id, ctx.span_id);
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    const bool present = pkt.PeekTrace(&trace_id, &span_id);
    benchmark::DoNotOptimize(present);
    tracer.RecordSpan(0x0a000064, ctx, obs::SpanCat::kCpu, "uproxy_route", SimTime{0},
                      SimTime{0}, /*root=*/true);
    pkt.DetachTrace();
  }
  state.SetItemsProcessed(state.iterations());
}

// Stage 5 control (--trace only): the same calls against a disabled tracer.
// This is the cost every deployment pays when tracing is off — it should be
// indistinguishable from zero next to the other stages.
void BM_Stage5_TraceDisabled(benchmark::State& state) {
  std::vector<Packet> mix = UntarPacketMix();
  obs::Tracer tracer(obs::TracerParams{.enabled = false});
  size_t i = 0;
  for (auto _ : state) {
    Packet& pkt = mix[i++ % mix.size()];
    const obs::TraceContext ctx{tracer.NewTraceId(), tracer.NewSpanId()};
    benchmark::DoNotOptimize(ctx);
    if (ctx.valid()) {  // never taken: ids are 0 when disabled
      pkt.AttachTrace(ctx.trace_id, ctx.span_id);
    }
    tracer.RecordSpan(0x0a000064, ctx, obs::SpanCat::kCpu, "uproxy_route", SimTime{0},
                      SimTime{0}, /*root=*/true);
  }
  state.SetItemsProcessed(state.iterations());
}

void RegisterTraceStage() {
  benchmark::RegisterBenchmark("BM_Stage5_TraceContext", BM_Stage5_TraceContext);
  benchmark::RegisterBenchmark("BM_Stage5_TraceDisabled", BM_Stage5_TraceDisabled);
}

// The whole µproxy request path over the untar mix, fast-path form: single-
// pass view decode, route, incremental-checksum rewrite and a flat pending
// table — the shape of Uproxy::HandleOutbound after the zero-allocation
// rework. Every account of the request path (google-benchmark, the per-packet
// samples, the chunked and the profiled runs) forwards through ForwardOne.
struct RequestPath {
  std::vector<Packet> mix = UntarPacketMix();
  RoutingTable table{64, {{0x0a000100, 2049}, {0x0a000101, 2049}, {0x0a000102, 2049}}};
  FlatU64Map<NfsProc> pending;
  uint32_t forwarded = 0;

  // With a profiler, each stage runs under the scope the live µproxy uses;
  // without one, every scope is a single untaken branch, as in the µproxy.
  void ForwardOne(obs::Profiler* profiler = nullptr) {
    const uint32_t n = forwarded++;
    Packet& pkt = mix[n % mix.size()];
    obs::Profiler::Scope outbound(profiler, obs::ProfScope::kUproxyOutbound);
    bool ours = pkt.IsValidUdp() && pkt.dst_port() == 2049;
    benchmark::DoNotOptimize(ours);
    DecodedView req;
    Status st;
    {
      obs::Profiler::Scope s(profiler, obs::ProfScope::kUproxyDecode);
      st = DecodeNfsRequestView(pkt.payload(), &req);
    }
    if (!st.ok()) {
      return;
    }
    Endpoint target;
    {
      obs::Profiler::Scope s(profiler, obs::ProfScope::kUproxyRoute);
      target = table.ByPhysical(SiteOfFileid(req.fh.fileid()));
    }
    {
      obs::Profiler::Scope s(profiler, obs::ProfScope::kUproxyRewrite);
      pkt.RewriteDst(target);
    }
    {
      obs::Profiler::Scope s(profiler, obs::ProfScope::kUproxySoftState);
      const uint64_t key = (static_cast<uint64_t>(800) << 32) | n;
      *pending.Insert(key).first = req.proc;
      pending.Erase(key);
    }
  }
};

void BM_Total_RequestPath(benchmark::State& state) {
  RequestPath path;
  for (auto _ : state) {
    path.ForwardOne();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Total_RequestPath);

// Server-side dispatch fixture: a warm object store + block cache + DRC plus
// four preconstructed small READ calls at distinct offsets. The Serve() body
// replicates the shape of RpcServerNode::OnPacket + StorageNode::HandleRead
// after the zero-allocation rework: view decode of the RPC envelope and args,
// flat-index duplicate-request cache, cache-hit read gathered as views of the
// store's pages, ReadRes encoded from those views straight into a pooled
// reply frame, the envelope filled in place (SealReplyFrame), and the DRC
// reply ring recording the sealed message with its data's pages pinned
// rather than copied. The frame then goes back to the
// pool, where the live server's packet would return it after delivery. In
// steady state none of it touches the heap — the same claim the full-path
// alloc test pins against the real nodes; here we put a ns/pkt number on it.
struct ServerPathFixture {
  static constexpr ObjectId kObject = 42;
  static constexpr uint32_t kReadBytes = 512;

  ObjectStore store{64ull << 20};
  BlockCache cache{16ull << 20};
  DuplicateRequestCache drc{4096};
  std::vector<Bytes> wires;
  Fattr3 attr;
  // Per-request scratch, mirroring the node members it models.
  std::vector<ByteSpan> read_segments;
  std::vector<PageId> read_pages;
  std::vector<PhysBlock> read_blocks;
  StoreReadExtent read_extent;
  Bytes reply_frame;  // the last reply, sealed
  ByteSpan reply_msg;  // its RPC message (what the DRC records)
  ReplyPages reply_pages;  // its READ data's pages (what the DRC pins)
  Bytes replay;  // a DRC hit's frame (the served keys are all new: never filled)
  uint32_t next_xid = 1;
  size_t next_wire = 0;

  ServerPathFixture() {
    Bytes payload(1 << 16);
    for (size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<uint8_t>(i * 131);
    }
    SLICE_CHECK(store.Write(kObject, 0, ByteSpan(payload), /*stable=*/true).ok());
    attr.type = FileType3::kReg;
    attr.size = payload.size();
    for (uint64_t off : {0ull, 8192ull, 16384ull, 24576ull}) {
      RpcCall call;
      call.xid = 0;  // patched per request
      call.prog = kNfsProgram;
      call.vers = kNfsVersion;
      call.proc = static_cast<uint32_t>(NfsProc::kRead);
      call.cred.machine_name = "bench-client-host";
      call.cred.gids = {0, 5, 20};
      XdrEncoder args;
      ReadArgs rargs;
      rargs.file = FileHandle::Make(1, MakeFileid(0, 42), 1, FileType3::kReg, 1, kSecret);
      rargs.offset = off;
      rargs.count = kReadBytes;
      rargs.Encode(args);
      call.args = args.Take();
      wires.push_back(call.Encode());
    }
    Serve();  // populate scratch buffers so stage bodies can run standalone
  }

  static void PatchXid(Bytes& wire, uint32_t xid) {
    wire[0] = static_cast<uint8_t>(xid >> 24);
    wire[1] = static_cast<uint8_t>(xid >> 16);
    wire[2] = static_cast<uint8_t>(xid >> 8);
    wire[3] = static_cast<uint8_t>(xid);
  }

  // Stage bodies (each standalone so the per-stage loops time exactly one).
  void DecodeStage(const Bytes& wire, RpcMessageView* msg, ReadArgs* args) {
    Result<RpcMessageView> m = DecodeRpcMessage(ByteSpan(wire));
    SLICE_CHECK(m.ok());
    XdrDecoder dec(m->body);
    Result<ReadArgs> a = ReadArgs::Decode(dec);
    SLICE_CHECK(a.ok());
    *msg = *m;
    *args = *a;
  }

  void DrcStage(const DrcKey& key) {
    benchmark::DoNotOptimize(drc.Replay(key, &replay));
    benchmark::DoNotOptimize(drc.InProgress(key));
    drc.BeginCall(key);
    drc.CompleteCall(key, reply_msg, reply_pages);
  }

  void ReadStage(const ReadArgs& args) {
    read_segments.clear();
    read_pages.clear();
    read_blocks.clear();
    read_extent = store.ReadGather(kObject, args.offset, args.count, &read_segments, &read_pages,
                                   &read_blocks);
    for (PhysBlock b : read_blocks) {
      cache.Access(b);  // warm: every block is a hit
    }
  }

  void EncodeStage(uint32_t xid) {
    PacketPool::Default().Release(std::move(reply_frame));
    XdrEncoder reply = NewReplyEncoder();
    ReadResPieces res;
    res.status = Nfsstat3::kOk;
    res.file_attributes = attr;
    res.count = read_extent.length;
    res.eof = false;
    res.data = read_segments;
    res.Encode(reply);
    reply_frame = reply.Take();
    reply_msg = SealReplyFrame(reply_frame, xid, RpcAcceptStat::kSuccess);
    reply_pages = ReplyPages{&store.pages(), read_segments, read_pages};
  }

  // The whole dispatch: what one served READ costs the server in CPU.
  void Serve() {
    Bytes& wire = wires[next_wire++ % wires.size()];
    const uint32_t xid = next_xid++;
    PatchXid(wire, xid);
    RpcMessageView msg;
    ReadArgs args;
    DecodeStage(wire, &msg, &args);
    const DrcKey key{(static_cast<uint64_t>(0x0a000901) << 16) | 800, msg.xid, msg.prog,
                     msg.vers, msg.proc};
    benchmark::DoNotOptimize(drc.Replay(key, &replay));
    benchmark::DoNotOptimize(drc.InProgress(key));
    drc.BeginCall(key);
    ReadStage(args);
    EncodeStage(xid);
    drc.CompleteCall(key, reply_msg, reply_pages);
  }
};

// Whole server dispatch path (view decode → DRC → cache-hit read → reply
// encode → reply ring), google-benchmark account.
void BM_Total_ServerPath(benchmark::State& state) {
  ServerPathFixture server;
  for (int i = 0; i < 8192; ++i) {
    server.Serve();  // fill the DRC index + cache before measuring
  }
  for (auto _ : state) {
    server.Serve();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Total_ServerPath);

// Machine-readable baseline: wall-clock-times the whole request path per
// packet (outside google-benchmark so we can keep per-packet samples) and
// writes BENCH_table3_uproxy_cpu.json, with the allocs/pkt invariant recorded
// per run. Absolute ns are host-dependent; the golden pins only the
// structural fields (bench name, packet count, allocs_per_pkt == 0, stage
// names and counts). Returns false when the file could not be written.
bool WriteTable3Bench() {
  RequestPath path;
  constexpr int kWarmup = 20000;
  constexpr int kMeasured = 200000;

  // Per-packet samples. Steady-state allocation count across the measured
  // window must be exactly zero.
  LatencyStats per_packet;  // values are wall-clock ns, not sim time
  uint64_t allocs_measured = 0;
  for (int iter = 0; iter < kWarmup + kMeasured; ++iter) {
    if (iter == kWarmup) {
      allocs_measured = AllocCount();
    }
    const auto t0 = std::chrono::steady_clock::now();
    path.ForwardOne();
    const auto t1 = std::chrono::steady_clock::now();
    if (iter >= kWarmup) {
      per_packet.Record(static_cast<SimTime>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
    }
  }
  allocs_measured = AllocCount() - allocs_measured;

  // Two interleaved accounts of the same ForwardOne body:
  //
  //   bulk — no profiler, one tick pair per chunk: the unprofiled ground
  //          truth and the headline ns/pkt.
  //   fine — the five per-stage scopes the live µproxy uses. Its cycle-
  //          counter reads cost ~18ns each against a ~130ns body, so the raw
  //          stage sum carries the scopes' own overhead; the reported
  //          per-stage ns/pkt are the fine run's attribution *shares* applied
  //          to the bulk median (the raw sum and the normalization factor are
  //          both exported, so the overhead stays visible).
  //
  // The two alternate in small chunks and share one clock, so frequency drift
  // hits both equally; the bulk account is a per-chunk *median*, so a
  // scheduler preemption landing inside one chunk (a ~1ms steal against a
  // ~260us chunk) is discarded as an outlier.
  obs::Profiler profiler(obs::ProfilerParams{.enabled = true});
  std::vector<uint64_t> bulk_chunk_ns;
  constexpr int kChunk = 2000;
  auto chunk = [&](obs::Profiler* p) {
    for (int i = 0; i < kChunk; ++i) {
      path.ForwardOne(p);
    }
  };
  for (int i = 0; i < kWarmup / kChunk; ++i) {  // warm both accounts
    chunk(nullptr);
    chunk(&profiler);
  }
  profiler.ResetWall();  // warm scope paths measured, then discarded
  bulk_chunk_ns.reserve(static_cast<size_t>(kMeasured / kChunk));
  for (int done = 0; done < kMeasured; done += kChunk) {
    const uint64_t t0 = obs::Profiler::Ticks();
    chunk(nullptr);
    bulk_chunk_ns.push_back(profiler.ns_from_ticks(obs::Profiler::Ticks() - t0));
    chunk(&profiler);
  }

  const double total_ns = static_cast<double>(per_packet.sum());
  const double sampled_mean_ns = total_ns / kMeasured;
  const double allocs_per_pkt = static_cast<double>(allocs_measured) / kMeasured;

  // Reporting. B = bulk (unprofiled) median ns/pkt, V = raw fine stage sum;
  // each stage reports v_i * B / V. ns values are host-dependent — the golden
  // pins structure, not numbers (out_of_hash).
  struct StageRow {
    const char* name;
    uint64_t count;
    double raw_ns;  // fine-account ns/pkt before normalization
    double ns_per_pkt;
  };
  std::vector<StageRow> stages;
  for (obs::ProfScope s : {obs::ProfScope::kUproxyDecode, obs::ProfScope::kUproxyRoute,
                           obs::ProfScope::kUproxyRewrite, obs::ProfScope::kUproxySoftState}) {
    stages.push_back(StageRow{obs::ProfScopeName(s), profiler.ScopeCount(s),
                              static_cast<double>(profiler.ScopeInclusiveNs(s)) / kMeasured, 0});
  }
  stages.push_back(
      StageRow{"uproxy.outbound", profiler.ScopeCount(obs::ProfScope::kUproxyOutbound),
               static_cast<double>(profiler.ScopeExclusiveNs(obs::ProfScope::kUproxyOutbound)) /
                   kMeasured,
               0});
  double fine_sum = 0;
  for (const StageRow& row : stages) {
    fine_sum += row.raw_ns;
  }
  auto chunk_median = [](std::vector<uint64_t>& v) -> double {
    if (v.empty()) {
      return 0;
    }
    std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(v.size() / 2), v.end());
    return static_cast<double>(v[v.size() / 2]);
  };
  const double bulk_mean_ns = chunk_median(bulk_chunk_ns) / kChunk;
  const double norm = fine_sum > 0 ? bulk_mean_ns / fine_sum : 0;
  double stage_sum = 0;
  for (StageRow& row : stages) {
    row.ns_per_pkt = row.raw_ns * norm;
    stage_sum += row.ns_per_pkt;
  }

  // Headline per-packet cost: the chunk-timed bulk account. The sampled mean
  // above brackets every packet with two clock reads, which on a ~120ns body
  // adds ~30-50ns of measurement overhead to the number itself; the chunked
  // account amortizes one tick pair over 2000 packets, so it reports the path
  // and not the clock. The sampled account stays exported for its p50/p99.
  const double mean_ns = bulk_mean_ns;
  const double pkts_per_sec = mean_ns > 0 ? 1e9 / mean_ns : 0;
  // The paper's operating point: %CPU this implementation would spend at
  // 6250 packets/s (paper total: 6.1% on a 500 MHz Alpha).
  const double cpu_pct_at_6250 = mean_ns * 6250.0 / 1e9 * 100.0;

  // Server-side dispatch: the same chunked methodology over the zero-alloc
  // server path (RPC view decode → DRC → cache-hit read → reply encode →
  // reply ring). end_to_end = µproxy forwarding + server dispatch, the full
  // CPU cost of one interposed, served request.
  ServerPathFixture server;
  auto chunked_ns = [&](auto&& body) -> double {
    std::vector<uint64_t> samples;
    samples.reserve(static_cast<size_t>(kMeasured / kChunk));
    for (int i = 0; i < kWarmup; ++i) {
      body();
    }
    for (int done = 0; done < kMeasured; done += kChunk) {
      const uint64_t t0 = obs::Profiler::Ticks();
      for (int i = 0; i < kChunk; ++i) {
        body();
      }
      samples.push_back(profiler.ns_from_ticks(obs::Profiler::Ticks() - t0));
    }
    return chunk_median(samples) / kChunk;
  };
  const double server_mean_ns = chunked_ns([&] { server.Serve(); });
  uint64_t server_allocs = AllocCount();
  for (int i = 0; i < kMeasured; ++i) {
    server.Serve();
  }
  server_allocs = AllocCount() - server_allocs;
  const double server_allocs_per_pkt = static_cast<double>(server_allocs) / kMeasured;
  // Per-stage server accounts (each stage timed standalone; raw medians, so
  // the rows need not sum exactly to the whole-body mean — cross-stage
  // locality the split loops don't share shows up as the difference).
  RpcMessageView stage_msg;
  ReadArgs stage_args;
  server.DecodeStage(server.wires[0], &stage_msg, &stage_args);
  const DrcKey stage_key{(static_cast<uint64_t>(0x0a000901) << 16) | 800, stage_msg.xid,
                         stage_msg.prog, stage_msg.vers, stage_msg.proc};
  size_t rot = 0;
  const double srv_decode_ns = chunked_ns([&] {
    server.DecodeStage(server.wires[rot++ % server.wires.size()], &stage_msg, &stage_args);
  });
  uint32_t drc_xid = 1u << 30;
  const double srv_drc_ns = chunked_ns([&] {
    DrcKey k = stage_key;
    k.xid = drc_xid++;
    server.DrcStage(k);
  });
  const double srv_read_ns = chunked_ns([&] { server.ReadStage(stage_args); });
  const double srv_encode_ns = chunked_ns([&] { server.EncodeStage(drc_xid); });
  struct ServerStageRow {
    const char* name;
    double ns_per_pkt;
  };
  const ServerStageRow server_stages[] = {
      {"rpc.decode_view", srv_decode_ns},
      {"rpc.drc", srv_drc_ns},
      {"storage.cache_read", srv_read_ns},
      {"rpc.reply_encode", srv_encode_ns},
  };
  const double end_to_end_ns = mean_ns + server_mean_ns;

  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("table3_uproxy_cpu");
  w.Key("packets_measured").Int(kMeasured);
  w.Key("request_path_pkts_per_sec").Fixed(pkts_per_sec, 0);
  w.Key("mean_ns_per_pkt").Fixed(mean_ns, 1);
  w.Key("sampled_mean_ns_per_pkt").Fixed(sampled_mean_ns, 1);
  w.Key("allocs_per_pkt").Fixed(allocs_per_pkt, 6);
  w.Key("p50_ns").UInt(per_packet.Percentile(50));
  w.Key("p95_ns").UInt(per_packet.Percentile(95));
  w.Key("p99_ns").UInt(per_packet.Percentile(99));
  w.Key("cpu_pct_at_6250_pkts").Fixed(cpu_pct_at_6250, 3);
  w.Key("paper_cpu_pct_at_6250_pkts").Fixed(6.1, 1);
  w.Key("server").BeginObject();
  w.Key("mean_ns_per_pkt").Fixed(server_mean_ns, 1);
  w.Key("allocs_per_pkt").Fixed(server_allocs_per_pkt, 6);
  w.Key("stages").BeginArray();
  for (const ServerStageRow& row : server_stages) {
    w.BeginObject();
    w.Key("name").String(row.name);
    w.Key("ns_per_pkt").Fixed(row.ns_per_pkt, 2);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.Key("end_to_end_ns_per_pkt").Fixed(end_to_end_ns, 1);
  w.Key("profile").BeginObject();
  w.Key("stages").BeginArray();
  for (const StageRow& row : stages) {
    w.BeginObject();
    w.Key("name").String(row.name);
    w.Key("count").UInt(row.count);
    w.Key("ns_per_pkt").Fixed(row.ns_per_pkt, 2);
    w.EndObject();
  }
  w.EndArray();
  w.Key("stage_sum_ns_per_pkt").Fixed(stage_sum, 2);
  w.Key("unprofiled_mean_ns_per_pkt").Fixed(bulk_mean_ns, 2);
  w.Key("fine_sum_ns_per_pkt").Fixed(fine_sum, 2);
  w.Key("normalization").Fixed(norm, 4);
  w.EndObject();
  w.EndObject();
  if (!obs::WriteArtifact("BENCH_table3_uproxy_cpu.json", w.str() + "\n")) {
    return false;
  }
  std::printf("wrote BENCH_table3_uproxy_cpu.json\n");
  std::printf("request path: %.0f pkts/s, mean %.0f ns (sampled %.0f, p50 %llu, p99 %llu),\n"
              "%.6f allocs/pkt; %.3f%% CPU at the paper's 6250 pkt/s point (paper: 6.1%% on\n"
              "a 500MHz Alpha)\n",
              pkts_per_sec, mean_ns, sampled_mean_ns,
              static_cast<unsigned long long>(per_packet.Percentile(50)),
              static_cast<unsigned long long>(per_packet.Percentile(99)), allocs_per_pkt,
              cpu_pct_at_6250);
  std::printf("\nprofiled stage attribution (ns/pkt):\n");
  for (const StageRow& row : stages) {
    std::printf("  %-20s %8.1f\n", row.name, row.ns_per_pkt);
  }
  std::printf("  %-20s %8.1f  (unprofiled mean %.1f)\n", "stage sum", stage_sum, bulk_mean_ns);
  std::printf("  shares from the fine account (raw sum %.1f ns incl. per-stage scope\n"
              "  overhead, normalized x%.3f to the unprofiled mean)\n",
              fine_sum, norm);
  std::printf("\nserver dispatch (ns/pkt, %.6f allocs/pkt):\n", server_allocs_per_pkt);
  for (const ServerStageRow& row : server_stages) {
    std::printf("  %-20s %8.1f\n", row.name, row.ns_per_pkt);
  }
  std::printf("  %-20s %8.1f\n", "whole dispatch", server_mean_ns);
  std::printf("\nend-to-end (uproxy forward + server dispatch): %.1f ns/pkt\n", end_to_end_ns);
  return true;
}

}  // namespace
}  // namespace slice

int main(int argc, char** argv) {
  // Strip --trace before benchmark::Initialize, which rejects unknown flags.
  bool trace = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (trace) {
    slice::RegisterTraceStage();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (!slice::WriteTable3Bench()) {
    return 1;
  }
  std::printf(
      "\nTable 3 comparison (paper, 500MHz CPU @ 6250 pkt/s): interception 0.7%%,\n"
      "decode 4.1%%, redirect/rewrite 0.5%%, soft state 0.8%%. To compare shape,\n"
      "multiply each stage's ns/packet by 6250/s: %%CPU = ns * 6250 / 1e9 * 100.\n"
      "The decode stage should dominate, as the paper found.\n");
  if (trace) {
    std::printf(
        "\n--trace: Stage5_TraceContext is the added per-packet cost with tracing\n"
        "on (id mint + 20-byte trailer attach/peek + ring write); Stage5_TraceDisabled\n"
        "is the cost when tracing is compiled in but off, and should be ~0 ns.\n");
  }
  return 0;
}
