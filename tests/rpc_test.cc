// Unit tests for ONC RPC: message codecs, the header walk's AUTH_SYS checks,
// client retransmission, server dispatch, duplicate request cache, cost
// charging.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/rpc/rpc_client.h"
#include "src/rpc/rpc_message.h"
#include "src/rpc/rpc_server.h"

namespace slice {
namespace {

constexpr uint32_t kTestProg = 100003;
constexpr uint32_t kTestVers = 3;
constexpr NetAddr kClientAddr = 0x0a000001;
constexpr NetAddr kServerAddr = 0x0a000010;
constexpr NetPort kServerPort = 2049;

TEST(RpcMessageTest, CallRoundTrip) {
  RpcCall call;
  call.xid = 77;
  call.prog = kTestProg;
  call.vers = kTestVers;
  call.proc = 6;
  call.cred.machine_name = "testhost";
  call.cred.uid = 100;
  call.cred.gids = {1, 2, 3};
  XdrEncoder args;
  args.PutUint64(0xfeedface);
  call.args = args.bytes();

  const Bytes wire = call.Encode();
  Result<RpcMessageView> view = DecodeRpcMessage(wire);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->type, RpcMsgType::kCall);
  EXPECT_EQ(view->xid, 77u);
  EXPECT_EQ(view->prog, kTestProg);
  EXPECT_EQ(view->proc, 6u);
  EXPECT_EQ(view->uid, 100u);

  XdrDecoder body(view->body);
  uint64_t arg = 0;
  XdrField(body, arg);
  EXPECT_TRUE(body.ok());
  EXPECT_EQ(arg, 0xfeedfaceull);
  EXPECT_EQ(view->body.data(), wire.data() + view->body_offset);
}

TEST(RpcMessageTest, ReplyRoundTrip) {
  RpcReply reply;
  reply.xid = 88;
  XdrEncoder result;
  result.PutUint32(123);
  reply.result = result.bytes();

  const Bytes wire = reply.Encode();
  Result<RpcMessageView> view = DecodeRpcMessage(wire);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->type, RpcMsgType::kReply);
  EXPECT_EQ(view->xid, 88u);
  EXPECT_EQ(view->accept_stat, RpcAcceptStat::kSuccess);
  XdrDecoder body(view->body);
  uint32_t result_word = 0;
  XdrField(body, result_word);
  EXPECT_TRUE(body.ok());
  EXPECT_EQ(result_word, 123u);
}

TEST(RpcMessageTest, ErrorReplyHasNoBody) {
  RpcReply reply;
  reply.xid = 9;
  reply.stat = RpcAcceptStat::kProcUnavail;
  const Bytes wire = reply.Encode();
  Result<RpcMessageView> view = DecodeRpcMessage(wire);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->accept_stat, RpcAcceptStat::kProcUnavail);
  EXPECT_TRUE(view->body.empty());
}

TEST(RpcMessageTest, VariableCredLengthsShiftBodyOffset) {
  RpcCall a;
  a.cred.machine_name = "x";
  RpcCall b = a;
  b.cred.machine_name = "a-much-longer-machine-name-here";
  const Bytes wire_a = a.Encode();
  const Bytes wire_b = b.Encode();
  EXPECT_GT(DecodeRpcMessage(wire_b)->body_offset, DecodeRpcMessage(wire_a)->body_offset);
}

// A call whose credential is AUTH_SYS around `body`, a hand-built opaque.
Bytes CallWithAuthSysBody(const Bytes& body) {
  XdrEncoder cred;
  cred.PutUint32(static_cast<uint32_t>(RpcAuthFlavor::kSys));
  cred.PutOpaqueVar(body);
  XdrEncoder enc;
  EncodeCallHeader(enc, 5, kTestProg, kTestVers, 1, cred.bytes());
  enc.PutUint32(0xabcd);  // args
  return enc.Take();
}

// An AUTH_SYS body: stamp, machine name, uid 42, gid 7 and `gids` gids.
Bytes AuthSysBody(const std::string& name, uint32_t gids) {
  XdrEncoder body;
  body.PutUint32(1);
  body.PutString(name);
  body.PutUint32(42);
  body.PutUint32(7);
  body.PutUint32(gids);
  for (uint32_t g = 0; g < gids; ++g) {
    body.PutUint32(g);
  }
  return body.Take();
}

TEST(RpcMessageTest, AuthSysBoundsAreInclusiveAndTheUidIsKept) {
  for (const Bytes& body : {AuthSysBody("host", 0), AuthSysBody("host", 16),
                            AuthSysBody(std::string(255, 'm'), 3)}) {
    const Bytes wire = CallWithAuthSysBody(body);
    Result<RpcMessageView> view = DecodeRpcMessage(wire);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(view->uid, 42u);
    EXPECT_EQ(GetU32(view->body.data()), 0xabcdu);
  }
}

TEST(RpcMessageTest, MalformedAuthSysBodiesAreCorrupt) {
  Bytes past_end = AuthSysBody("host", 2);
  past_end.resize(past_end.size() - 4);  // the second gid lies past the body
  Bytes no_uid = AuthSysBody("host", 0);
  no_uid.resize(12);  // stamp and name only
  for (const Bytes& body : {AuthSysBody("host", 17), AuthSysBody(std::string(256, 'm'), 0),
                            past_end, no_uid}) {
    const Bytes wire = CallWithAuthSysBody(body);
    Result<RpcMessageView> view = DecodeRpcMessage(wire);
    ASSERT_FALSE(view.ok());
    EXPECT_EQ(view.status().code(), StatusCode::kCorrupt);
  }
}

TEST(RpcMessageTest, TruncatedMessageIsCorrupt) {
  RpcCall call;
  Bytes wire = call.Encode();
  for (size_t keep = 0; keep < wire.size(); keep += 7) {
    Result<RpcMessageView> view =
        DecodeRpcMessage(ByteSpan(wire.data(), keep));
    EXPECT_FALSE(view.ok()) << "keep=" << keep;
  }
}

TEST(RpcMessageTest, BadVersionRejected) {
  RpcCall call;
  Bytes wire = call.Encode();
  PutU32(wire.data() + 8, 3);  // rpcvers = 3
  EXPECT_FALSE(DecodeRpcMessage(wire).ok());
}

// Echo server: returns its args, charging 10us CPU.
class EchoServer : public RpcServerNode {
 public:
  using RpcServerNode::RpcServerNode;

  int calls = 0;

 protected:
  RpcAcceptStat HandleCall(const RpcMessageView& call, XdrEncoder& reply,
                           ServiceCost& cost) override {
    ++calls;
    if (call.proc == 999) {
      return RpcAcceptStat::kProcUnavail;
    }
    reply.PutOpaqueFixed(call.body);
    cost.AddCpu(FromMicros(10));
    return RpcAcceptStat::kSuccess;
  }
};

class RpcEndToEndTest : public ::testing::Test {
 protected:
  RpcEndToEndTest()
      : net_(queue_, NetworkParams{}),
        server_(net_, queue_, kServerAddr, kServerPort, kTestProg, kTestVers),
        client_host_(net_, kClientAddr),
        client_(client_host_, queue_) {}

  EventQueue queue_;
  Network net_;
  EchoServer server_;
  Host client_host_;
  RpcClient client_;
};

TEST_F(RpcEndToEndTest, CallAndReply) {
  XdrEncoder args;
  args.PutUint32(55);
  Status got_status(StatusCode::kInternal);
  uint32_t got_value = 0;
  client_.Call(server_.endpoint(), kTestProg, kTestVers, 1, args.Take(),
               [&](Status st, const RpcMessageView& reply) {
                 got_status = st;
                 if (st.ok()) {
                   XdrDecoder dec(reply.body);
                   XdrField(dec, got_value);
                   EXPECT_TRUE(dec.ok());
                 }
               });
  queue_.RunUntilIdle();
  EXPECT_TRUE(got_status.ok()) << got_status.ToString();
  EXPECT_EQ(got_value, 55u);
  EXPECT_EQ(server_.calls, 1);
  EXPECT_EQ(client_.pending(), 0u);
}

TEST_F(RpcEndToEndTest, ServiceTimeIsCharged) {
  XdrEncoder args;
  args.PutUint32(1);
  SimTime reply_at = 0;
  client_.Call(server_.endpoint(), kTestProg, kTestVers, 1, args.Take(),
               [&](Status, const RpcMessageView&) { reply_at = queue_.now(); });
  queue_.RunUntilIdle();
  // Two wire crossings (~30us switch each) plus 10us service.
  EXPECT_GT(reply_at, FromMicros(70));
  EXPECT_LT(reply_at, FromMillis(2));
}

TEST_F(RpcEndToEndTest, ProcUnavailSurfacesAsError) {
  Status got_status;
  client_.Call(server_.endpoint(), kTestProg, kTestVers, 999, Bytes{},
               [&](Status st, const RpcMessageView&) { got_status = st; });
  queue_.RunUntilIdle();
  EXPECT_EQ(got_status.code(), StatusCode::kInternal);
}

TEST_F(RpcEndToEndTest, RetransmitsThroughLoss) {
  net_.set_loss_rate(0.25);  // deterministic seed; 5 transmissions suffice
  int ok_count = 0;
  constexpr int kCalls = 50;
  for (int i = 0; i < kCalls; ++i) {
    XdrEncoder args;
    args.PutUint32(static_cast<uint32_t>(i));
    client_.Call(server_.endpoint(), kTestProg, kTestVers, 1, args.Take(),
                 [&](Status st, const RpcMessageView&) { ok_count += st.ok() ? 1 : 0; });
  }
  queue_.RunUntilIdle();
  EXPECT_EQ(ok_count, kCalls);  // 5 transmissions beat 40% loss w.h.p.
  EXPECT_GT(client_.retransmissions(), 0u);
}

TEST_F(RpcEndToEndTest, DuplicateCacheAnswersRetransmits) {
  // Drop nothing, but force a retransmission by making the timeout shorter
  // than the service time.
  RpcClientParams fast;
  fast.retransmit_timeout = FromMicros(50);
  RpcClient impatient(client_host_, queue_, fast);
  int replies = 0;
  XdrEncoder args;
  args.PutUint32(7);
  impatient.Call(server_.endpoint(), kTestProg, kTestVers, 1, args.Take(),
                 [&](Status st, const RpcMessageView&) { replies += st.ok() ? 1 : 0; });
  queue_.RunUntilIdle();
  EXPECT_EQ(replies, 1);
  // The server must not have executed the call twice.
  EXPECT_EQ(server_.calls, 1);
  EXPECT_GT(server_.duplicates_answered() + impatient.retransmissions(), 0u);
}

TEST_F(RpcEndToEndTest, TimeoutWhenServerDown) {
  server_.Fail();
  Status got_status;
  client_.Call(server_.endpoint(), kTestProg, kTestVers, 1, Bytes{},
               [&](Status st, const RpcMessageView&) { got_status = st; });
  queue_.RunUntilIdle();
  EXPECT_EQ(got_status.code(), StatusCode::kTimedOut);
}

TEST_F(RpcEndToEndTest, DestroyedClientNeverRunsItsHandlerAndItsTimerIsACountedNoOp) {
  auto doomed = std::make_unique<RpcClient>(client_host_, queue_);
  bool handler_ran = false;
  doomed->Call(server_.endpoint(), kTestProg, kTestVers, 1, Bytes{},
               [&](Status, const RpcMessageView&) { handler_ran = true; });
  doomed.reset();  // the request is still on the wire
  // The server answers; the reply finds the client's port unbound.
  queue_.RunUntil(FromMillis(1));
  EXPECT_EQ(server_.calls, 1);
  EXPECT_EQ(client_host_.undeliverable(), 1u);
  ASSERT_EQ(queue_.pending(), 1u);  // the dead client's retransmit timer
  const uint64_t before = queue_.executed();
  queue_.RunUntilIdle();
  EXPECT_FALSE(handler_ran);
  EXPECT_EQ(queue_.executed() - before, 1u);
  EXPECT_EQ(queue_.now(), RpcClientParams{}.retransmit_timeout);
  EXPECT_EQ(server_.calls, 1);  // and it retransmitted nothing
}

// An answered call frees its slot, and the next call takes it while the
// answered call's retransmit timer is still queued. That timer must find
// its own call gone: it neither retransmits the call now in the slot nor
// answers it.
TEST_F(RpcEndToEndTest, AnsweredCallsTimerLeavesTheCallReusingItsSlotAlone) {
  int first_replies = 0;
  client_.Call(server_.endpoint(), kTestProg, kTestVers, 1, Bytes(4, 1),
               [&](Status st, const RpcMessageView&) { first_replies += st.ok() ? 1 : 0; });
  queue_.RunUntil(FromMillis(1));
  ASSERT_EQ(first_replies, 1);
  ASSERT_EQ(client_.pending(), 0u);

  // The server drops the second call's first transmission, so only a
  // retransmission can get it answered: its own at 401 ms, or, wrongly, one
  // by the first call's timer at 400 ms.
  server_.Fail();
  int second_replies = 0;
  client_.Call(server_.endpoint(), kTestProg, kTestVers, 1, Bytes(4, 2),
               [&](Status st, const RpcMessageView&) { second_replies += st.ok() ? 1 : 0; });
  queue_.RunUntil(FromMillis(400.5));
  EXPECT_EQ(client_.calls_sent(), 2u);
  EXPECT_EQ(client_.retransmissions(), 0u);
  EXPECT_EQ(second_replies, 0);
  EXPECT_EQ(client_.pending(), 1u);

  server_.Restart();
  queue_.RunUntilIdle();
  EXPECT_EQ(second_replies, 1);
  EXPECT_EQ(first_replies, 1);
  EXPECT_EQ(client_.retransmissions(), 1u);
  EXPECT_EQ(client_.pending(), 0u);
  EXPECT_EQ(server_.calls, 2);
}

TEST_F(RpcEndToEndTest, TotalLossGivesUpInBoundedTime) {
  // Regression: the exponential backoff used to scale without bound, so a
  // generous retry budget against a black-holed server pushed the next
  // timeout out by pow(backoff, tries) — the call effectively never gave up.
  // With the per-try ceiling the worst case is max_transmissions * ceiling.
  net_.set_loss_rate(1.0);
  RpcClientParams params;
  params.retransmit_timeout = FromMillis(100);
  params.backoff_factor = 4.0;
  params.max_transmissions = 20;
  params.max_retransmit_timeout = FromSeconds(1);
  RpcClient stubborn(client_host_, queue_, params);
  Status got_status;
  stubborn.Call(server_.endpoint(), kTestProg, kTestVers, 1, Bytes{},
                [&](Status st, const RpcMessageView&) { got_status = st; });
  queue_.RunUntilIdle();
  EXPECT_EQ(got_status.code(), StatusCode::kTimedOut);
  EXPECT_EQ(stubborn.pending(), 0u);
  // Unclamped, transmission 20 alone would wait 100ms * 4^19 ≈ 870 years.
  EXPECT_LT(queue_.now(), FromSeconds(21));
  EXPECT_EQ(stubborn.retransmissions(), 19u);
}

TEST_F(RpcEndToEndTest, ServerRestartRecovers) {
  server_.Fail();
  server_.Restart();
  Status got_status(StatusCode::kInternal);
  XdrEncoder args;
  args.PutUint32(3);
  client_.Call(server_.endpoint(), kTestProg, kTestVers, 1, args.Take(),
               [&](Status st, const RpcMessageView&) { got_status = st; });
  queue_.RunUntilIdle();
  EXPECT_TRUE(got_status.ok());
}

TEST_F(RpcEndToEndTest, ConcurrentCallsMatchByXid) {
  std::vector<uint32_t> results(20, 0);
  for (uint32_t i = 0; i < 20; ++i) {
    XdrEncoder args;
    args.PutUint32(i * 100);
    client_.Call(server_.endpoint(), kTestProg, kTestVers, 1, args.Take(),
                 [&results, i](Status st, const RpcMessageView& reply) {
                   ASSERT_TRUE(st.ok());
                   XdrDecoder dec(reply.body);
                   XdrField(dec, results[i]);
                   EXPECT_TRUE(dec.ok());
                 });
  }
  queue_.RunUntilIdle();
  for (uint32_t i = 0; i < 20; ++i) {
    EXPECT_EQ(results[i], i * 100);
  }
}

// --- duplicate request cache capacity and eviction ---
//
// Raw-packet harness: sends RpcCall packets with hand-picked xids from a
// bound client port, so the test controls exactly which (client, xid) keys
// the DRC sees and in what order.
class DrcCapacityTest : public ::testing::Test {
 protected:
  static constexpr size_t kDrcEntries = 4;

  DrcCapacityTest()
      : net_(queue_, NetworkParams{}),
        server_(net_, queue_, kServerAddr, kServerPort, kTestProg, kTestVers,
                RpcServerParams{.duplicate_cache_entries = kDrcEntries}),
        client_host_(net_, kClientAddr) {
    src_port_ = client_host_.Bind(0, [this](Packet&& pkt) {
      Result<RpcMessageView> view = DecodeRpcMessage(pkt.payload());
      ASSERT_TRUE(view.ok());
      reply_xids_.push_back(view->xid);
      reply_stats_.push_back(view->accept_stat);
    });
  }

  // Sends proc 1 (echo) with the given xid and runs the sim to completion.
  void Call(uint32_t xid) {
    RpcCall call;
    call.xid = xid;
    call.prog = kTestProg;
    call.vers = kTestVers;
    call.proc = 1;
    XdrEncoder args;
    args.PutUint32(xid * 10);
    call.args = args.Take();
    client_host_.Send(Packet::MakeUdp(Endpoint{kClientAddr, src_port_},
                                      server_.endpoint(), call.Encode()));
    queue_.RunUntilIdle();
  }

  EventQueue queue_;
  Network net_;
  EchoServer server_;
  Host client_host_;
  NetPort src_port_ = 0;
  std::vector<uint32_t> reply_xids_;
  std::vector<RpcAcceptStat> reply_stats_;
};

TEST_F(DrcCapacityTest, FillPastCapacityEvictsOldestInOrder) {
  // Fill past capacity: 6 distinct xids through a 4-entry cache.
  for (uint32_t xid = 1; xid <= 6; ++xid) {
    Call(xid);
  }
  EXPECT_EQ(server_.calls, 6);
  EXPECT_EQ(server_.duplicates_answered(), 0u);
  ASSERT_EQ(reply_xids_.size(), 6u);

  // The newest 4 xids {3,4,5,6} are cached: retransmits replay without
  // re-execution.
  Call(5);
  Call(6);
  EXPECT_EQ(server_.calls, 6) << "cached retransmits must not re-execute";
  EXPECT_EQ(server_.duplicates_answered(), 2u);

  // The oldest 2 xids {1,2} were evicted — FIFO, insertion order. Their
  // retransmits re-execute (the procedure is idempotent) instead of
  // crashing or replaying a stale entry.
  Call(1);
  EXPECT_EQ(server_.calls, 7) << "evicted xid re-executes";
  // Re-inserting 1 evicted 3 (still FIFO); 2 was already gone.
  Call(2);
  EXPECT_EQ(server_.calls, 8);
  Call(3);
  EXPECT_EQ(server_.calls, 9) << "xid 3 was pushed out by the re-inserts";
  // Cache is now {6,1,2,3}: 6 survived all along, and the re-executed xids
  // are cached like any first execution.
  Call(6);
  Call(1);
  EXPECT_EQ(server_.calls, 9);
  EXPECT_EQ(server_.duplicates_answered(), 4u);

  // Every send — executed, replayed, or re-executed — produced a reply.
  EXPECT_EQ(reply_xids_.size(), 13u);
  EXPECT_EQ(reply_xids_.back(), 1u);
}

TEST_F(DrcCapacityTest, SameXidDifferentClientPortsAreDistinctEntries) {
  // The DRC key is (client endpoint, xid), not xid alone: the same xid from
  // another port is a fresh request, not a replay.
  Call(42);
  const NetPort other = client_host_.Bind(0, [](Packet&&) {});
  RpcCall call;
  call.xid = 42;
  call.prog = kTestProg;
  call.vers = kTestVers;
  call.proc = 1;
  XdrEncoder args;
  args.PutUint32(7);
  call.args = args.Take();
  client_host_.Send(Packet::MakeUdp(Endpoint{kClientAddr, other}, server_.endpoint(),
                                    call.Encode()));
  queue_.RunUntilIdle();
  EXPECT_EQ(server_.calls, 2);
  EXPECT_EQ(server_.duplicates_answered(), 0u);
}

TEST_F(DrcCapacityTest, SameXidDifferentProcExecutesInsteadOfReplaying) {
  // Regression: the DRC key must cover the full call identity
  // (client, xid, prog, vers, proc). A client that recycles an xid for a
  // different procedure must have that procedure executed — replaying the
  // cached reply of the other proc would hand it the wrong result bytes.
  Call(42);  // proc 1, now cached
  ASSERT_EQ(server_.calls, 1);

  auto send_variant = [&](uint32_t prog, uint32_t vers, uint32_t proc) {
    RpcCall call;
    call.xid = 42;
    call.prog = prog;
    call.vers = vers;
    call.proc = proc;
    XdrEncoder args;
    args.PutUint32(7);
    call.args = args.Take();
    client_host_.Send(Packet::MakeUdp(Endpoint{kClientAddr, src_port_},
                                      server_.endpoint(), call.Encode()));
    queue_.RunUntilIdle();
  };

  // Same client endpoint + same xid, but a different proc: fresh execution.
  send_variant(kTestProg, kTestVers, 2);
  EXPECT_EQ(server_.calls, 2) << "different proc must not replay";
  EXPECT_EQ(server_.duplicates_answered(), 0u);

  // Different version, same everything else: also a distinct entry, not a
  // replay of the cached proc-1 result. The node serves one version, so the
  // fresh answer is PROG_UNAVAIL and the handler does not run.
  send_variant(kTestProg, kTestVers + 1, 1);
  EXPECT_EQ(server_.calls, 2);
  EXPECT_EQ(reply_stats_.back(), RpcAcceptStat::kProgUnavail);
  EXPECT_EQ(server_.duplicates_answered(), 0u);

  // Exact retransmits of the first two calls replay their own entries.
  Call(42);
  send_variant(kTestProg, kTestVers, 2);
  EXPECT_EQ(server_.calls, 2) << "true retransmits must not re-execute";
  EXPECT_EQ(server_.duplicates_answered(), 2u);
  // Every send got a reply (executed, rejected, or replayed).
  EXPECT_EQ(reply_xids_.size(), 5u);
}

TEST_F(DrcCapacityTest, SustainedTrafficStaysBounded) {
  // 100 distinct xids through the 4-entry cache: no blowup, no crash, every
  // call executed exactly once and replied to.
  for (uint32_t xid = 100; xid < 200; ++xid) {
    Call(xid);
  }
  EXPECT_EQ(server_.calls, 100);
  EXPECT_EQ(server_.duplicates_answered(), 0u);
  EXPECT_EQ(reply_xids_.size(), 100u);
  // Only the last kDrcEntries are replayable.
  for (uint32_t xid = 196; xid < 200; ++xid) {
    Call(xid);
  }
  EXPECT_EQ(server_.calls, 100);
  EXPECT_EQ(server_.duplicates_answered(), 4u);
  Call(150);  // long evicted -> re-executed
  EXPECT_EQ(server_.calls, 101);
}

TEST_F(RpcEndToEndTest, CpuQueueingSerializesRequests) {
  // 100 requests, 10us CPU each: last reply no earlier than 1ms of service.
  int done = 0;
  for (int i = 0; i < 100; ++i) {
    XdrEncoder args;
    args.PutUint32(1);
    client_.Call(server_.endpoint(), kTestProg, kTestVers, 1, args.Take(),
                 [&](Status, const RpcMessageView&) { ++done; });
  }
  queue_.RunUntilIdle();
  EXPECT_EQ(done, 100);
  EXPECT_GT(queue_.now(), FromMicros(1000));
}


// --- wire identity of the framed encoders ---
//
// RpcClient and RpcServerNode encode straight into packet frames; the bytes
// they put on the wire must be exactly what the whole-message encoders
// (RpcCall::Encode, RpcReply::Encode) produce for the same message.

// Args with an Encode member, like every *Args struct.
struct TwoWords {
  uint32_t a = 0;
  uint32_t b = 0;
  void Encode(XdrEncoder& enc) const {
    enc.PutUint32(a);
    enc.PutUint32(b);
  }
};

class RpcWireTest : public ::testing::Test {
 protected:
  RpcWireTest()
      : net_(queue_, NetworkParams{}), sink_(net_, kServerAddr), client_host_(net_, kClientAddr) {
    sink_.Bind(kServerPort, [this](Packet&& pkt) {
      seen_.emplace_back(pkt.payload().begin(), pkt.payload().end());
    });
  }

  // The call the client should have sent: xid, its AUTH_SYS credential
  // (machine name from its address, uid = tenant, gids {0, 5}) and `args`.
  static Bytes ExpectedCall(uint32_t xid, uint32_t proc, uint32_t tenant, Bytes args) {
    RpcCall call;
    call.xid = xid;
    call.prog = kTestProg;
    call.vers = kTestVers;
    call.proc = proc;
    call.cred.machine_name = "host" + std::to_string(kClientAddr & 0xff);
    call.cred.uid = tenant;
    call.cred.gids = {0, 5};
    call.args = std::move(args);
    return call.Encode();
  }

  EventQueue queue_;
  Network net_;
  Host sink_;
  Host client_host_;
  std::vector<Bytes> seen_;
};

TEST_F(RpcWireTest, CallBytesEqualRpcCallEncodeAcrossTenants) {
  RpcClient client(client_host_, queue_);
  const Endpoint server{kServerAddr, kServerPort};
  auto ignore = [](Status, const RpcMessageView&) {};

  client.Call(server, kTestProg, kTestVers, 7, TwoWords{11, 22}, ignore);
  client.set_tenant(3);
  client.Call(server, kTestProg, kTestVers, 8, TwoWords{33, 44}, ignore);
  const Bytes raw = {1, 2, 3, 4, 5, 6};  // pre-encoded args, padded on the wire
  client.Call(server, kTestProg, kTestVers, 9, ByteSpan(raw), ignore);
  queue_.RunUntil(FromMillis(1));

  XdrEncoder first;
  TwoWords{11, 22}.Encode(first);
  XdrEncoder second;
  TwoWords{33, 44}.Encode(second);
  ASSERT_EQ(seen_.size(), 3u);
  EXPECT_EQ(seen_[0], ExpectedCall(1, 7, 0, first.Take()));
  EXPECT_EQ(seen_[1], ExpectedCall(2, 8, 3, second.Take()));
  EXPECT_EQ(seen_[2], ExpectedCall(3, 9, 3, raw));

  // A retransmission resends the retained copy, byte for byte.
  queue_.RunUntil(FromMillis(401));
  ASSERT_GE(seen_.size(), 4u);
  EXPECT_EQ(seen_[3], seen_[0]);
}

// Appends a partial result, then answers with the accept stat its procedure
// number names: the server must drop the partial body for a non-success
// stat, as RpcReply::Encode does.
class PartialResultServer : public RpcServerNode {
 public:
  using RpcServerNode::RpcServerNode;

 protected:
  RpcAcceptStat HandleCall(const RpcMessageView& call, XdrEncoder& reply,
                           ServiceCost&) override {
    reply.PutUint32(0xfeedface);
    reply.PutUint32(call.xid);
    return static_cast<RpcAcceptStat>(call.proc);
  }
};

TEST_F(RpcWireTest, ReplyBytesEqualRpcReplyEncodeIncludingTruncatedErrors) {
  constexpr NetAddr kReplierAddr = 0x0a000020;
  PartialResultServer server(net_, queue_, kReplierAddr, kServerPort, kTestProg, kTestVers);
  std::vector<Bytes> replies;
  const NetPort port = client_host_.Bind(0, [&replies](Packet&& pkt) {
    replies.emplace_back(pkt.payload().begin(), pkt.payload().end());
  });
  const RpcAcceptStat stats[] = {RpcAcceptStat::kSuccess, RpcAcceptStat::kProcUnavail,
                                 RpcAcceptStat::kGarbageArgs};
  uint32_t xid = 40;
  for (const RpcAcceptStat stat : stats) {
    RpcCall call;
    call.xid = ++xid;
    call.prog = kTestProg;
    call.vers = kTestVers;
    call.proc = static_cast<uint32_t>(stat);
    client_host_.Send(Packet::MakeUdp(Endpoint{kClientAddr, port},
                                      Endpoint{kReplierAddr, kServerPort}, call.Encode()));
    queue_.RunUntilIdle();
  }

  ASSERT_EQ(replies.size(), 3u);
  xid = 40;
  for (size_t i = 0; i < 3; ++i) {
    RpcReply want;
    want.xid = ++xid;
    want.stat = stats[i];
    XdrEncoder result;
    result.PutUint32(0xfeedface);
    result.PutUint32(xid);
    want.result = result.Take();
    EXPECT_EQ(replies[i], want.Encode()) << "stat " << static_cast<uint32_t>(stats[i]);
  }
  EXPECT_EQ(replies[1].size(), kRpcReplyEnvelopeSize);
}

}  // namespace
}  // namespace slice
