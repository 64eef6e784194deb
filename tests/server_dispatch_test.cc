// RpcServerNode's dispatch contract, held by every server kind: a call for
// a program the node does not serve is answered PROG_UNAVAIL, and a call
// whose args do not decode is answered GARBAGE_ARGS, both with no result
// body.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/baseline/baseline_server.h"
#include "src/slice/ensemble.h"

namespace slice {
namespace {

constexpr NetAddr kProbeAddr = 0x0a000a01;
constexpr NetAddr kBaselineAddr = 0x0a000a10;
constexpr uint32_t kOtherProgram = 200001;

BaselineServerParams SmallBaseline() {
  BaselineServerParams params;
  params.memory_backed = true;
  params.capacity_bytes = 1 << 28;
  return params;
}

// One server kind's endpoint, the program it serves and a procedure of that
// program that takes args.
struct Target {
  std::string kind;
  Endpoint server;
  uint32_t prog;
  uint32_t vers;
  uint32_t proc_with_args;
};

class ServerDispatchTest : public ::testing::Test {
 protected:
  ServerDispatchTest()
      : ensemble_(queue_, EnsembleConfig{}),
        baseline_(ensemble_.network(), queue_, kBaselineAddr, SmallBaseline()),
        probe_(ensemble_.network(), kProbeAddr) {
    port_ = probe_.Bind(0, [this](Packet&& pkt) {
      replies_.emplace_back(pkt.payload().begin(), pkt.payload().end());
    });
  }

  std::vector<Target> Targets() {
    const uint32_t nfs_getattr = static_cast<uint32_t>(NfsProc::kGetattr);
    return {
        {"dir", ensemble_.dir_server(0).endpoint(), kNfsProgram, kNfsVersion, nfs_getattr},
        {"sfs", ensemble_.small_file_server(0).endpoint(), kNfsProgram, kNfsVersion,
         nfs_getattr},
        // The small-file server decodes READ, WRITE and COMMIT in its own
        // asynchronous dispatch.
        {"sfs read", ensemble_.small_file_server(0).endpoint(), kNfsProgram, kNfsVersion,
         static_cast<uint32_t>(NfsProc::kRead)},
        {"storage", ensemble_.storage_node(0).endpoint(), kNfsProgram, kNfsVersion,
         nfs_getattr},
        {"baseline", baseline_.endpoint(), kNfsProgram, kNfsVersion, nfs_getattr},
        {"coordinator", ensemble_.coordinator(0).endpoint(), kCoordProgram, kCoordVersion,
         static_cast<uint32_t>(CoordProc::kLogIntent)},
        {"manager", ensemble_.manager()->endpoint(), kMgmtProgram, kMgmtVersion,
         static_cast<uint32_t>(MgmtProc::kHeartbeat)},
    };
  }

  // Sends one call with `args` to `server` and returns the reply's message.
  Bytes Call(Endpoint server, uint32_t prog, uint32_t vers, uint32_t proc, Bytes args) {
    RpcCall call;
    call.xid = ++xid_;
    call.prog = prog;
    call.vers = vers;
    call.proc = proc;
    call.args = std::move(args);
    replies_.clear();
    probe_.Send(Packet::MakeUdp(Endpoint{kProbeAddr, port_}, server, call.Encode()));
    queue_.RunUntilIdle();
    EXPECT_EQ(replies_.size(), 1u);
    return replies_.empty() ? Bytes{} : replies_.front();
  }

  // Expects `wire` to be an accepted reply with stat `want` and no body.
  static void ExpectBodilessReply(const Bytes& wire, RpcAcceptStat want,
                                  const std::string& what) {
    Result<RpcMessageView> reply = DecodeRpcMessage(wire);
    ASSERT_TRUE(reply.ok()) << what;
    EXPECT_EQ(reply->type, RpcMsgType::kReply) << what;
    EXPECT_EQ(reply->accept_stat, want) << what;
    EXPECT_TRUE(reply->body.empty()) << what;
  }

  EventQueue queue_;
  Ensemble ensemble_;
  BaselineServer baseline_;
  Host probe_;
  NetPort port_ = 0;
  uint32_t xid_ = 0;
  std::vector<Bytes> replies_;
};

TEST_F(ServerDispatchTest, OtherProgramsGetProgUnavail) {
  for (const Target& t : Targets()) {
    const uint32_t other = t.prog == kNfsProgram ? kOtherProgram : kNfsProgram;
    ExpectBodilessReply(Call(t.server, other, t.vers, 0, {}), RpcAcceptStat::kProgUnavail,
                        t.kind + ": other program");
    ExpectBodilessReply(Call(t.server, t.prog, t.vers + 1, 0, {}), RpcAcceptStat::kProgUnavail,
                        t.kind + ": other version");
  }
}

TEST_F(ServerDispatchTest, UndecodableArgsGetGarbageArgs) {
  for (const Target& t : Targets()) {
    ExpectBodilessReply(Call(t.server, t.prog, t.vers, t.proc_with_args, {}),
                        RpcAcceptStat::kGarbageArgs, t.kind + ": empty args");
    ExpectBodilessReply(Call(t.server, t.prog, t.vers, t.proc_with_args, Bytes{0, 0, 0}),
                        RpcAcceptStat::kGarbageArgs, t.kind + ": short args");
  }
}

}  // namespace
}  // namespace slice
