// Unit tests for ONC RPC: message codecs, peek fast path, client
// retransmission, server dispatch, duplicate request cache, cost charging.
#include <gtest/gtest.h>

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
  EXPECT_EQ(view->cred.machine_name, "testhost");
  EXPECT_EQ(view->cred.uid, 100u);
  EXPECT_EQ(view->cred.gids.size(), 3u);

  XdrDecoder body(view->body);
  EXPECT_EQ(body.GetUint64().value(), 0xfeedfaceull);
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
  EXPECT_EQ(body.GetUint32().value(), 123u);
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

TEST(RpcMessageTest, PeekMatchesFullDecode) {
  RpcCall call;
  call.xid = 1234;
  call.prog = kTestProg;
  call.vers = 3;
  call.proc = 8;
  call.cred.machine_name = "some-longer-machine-name";  // variable length
  call.cred.gids = {10, 20, 30, 40, 50};
  XdrEncoder args;
  args.PutUint32(0xabcd);
  call.args = args.bytes();
  const Bytes wire = call.Encode();

  Result<RpcPeek> peek = PeekRpcMessage(wire);
  Result<RpcMessageView> full = DecodeRpcMessage(wire);
  ASSERT_TRUE(peek.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(peek->xid, full->xid);
  EXPECT_EQ(peek->proc, full->proc);
  EXPECT_EQ(peek->body_offset, full->body_offset);
  EXPECT_EQ(GetU32(wire.data() + peek->body_offset), 0xabcdu);
}

TEST(RpcMessageTest, PeekVariableCredLengthsShiftBodyOffset) {
  RpcCall a;
  a.cred.machine_name = "x";
  RpcCall b = a;
  b.cred.machine_name = "a-much-longer-machine-name-here";
  const size_t off_a = PeekRpcMessage(a.Encode())->body_offset;
  const size_t off_b = PeekRpcMessage(b.Encode())->body_offset;
  EXPECT_GT(off_b, off_a);
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
  EXPECT_FALSE(PeekRpcMessage(wire).ok());
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
        server_(net_, queue_, kServerAddr, kServerPort),
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
                   got_value = dec.GetUint32().value();
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
                   results[i] = dec.GetUint32().value();
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
        server_(net_, queue_, kServerAddr, kServerPort,
                RpcServerParams{.duplicate_cache_entries = kDrcEntries}),
        client_host_(net_, kClientAddr) {
    src_port_ = client_host_.Bind(0, [this](Packet&& pkt) {
      Result<RpcMessageView> view = DecodeRpcMessage(pkt.payload());
      ASSERT_TRUE(view.ok());
      reply_xids_.push_back(view->xid);
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
  // replay of the cached proc-1 result.
  send_variant(kTestProg, kTestVers + 1, 1);
  EXPECT_EQ(server_.calls, 3);
  EXPECT_EQ(server_.duplicates_answered(), 0u);

  // Exact retransmits of the first two calls replay their own entries.
  Call(42);
  send_variant(kTestProg, kTestVers, 2);
  EXPECT_EQ(server_.calls, 3) << "true retransmits must not re-execute";
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

}  // namespace
}  // namespace slice
