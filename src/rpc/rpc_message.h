// ONC RPC v2 (RFC 1831) message framing over UDP datagrams.
//
// Calls carry AUTH_SYS credentials (RFC 1831 appendix) with a variable-length
// machine name and gid list — the variable-length header fields the paper
// identifies as the dominant µproxy decode cost (§5, Table 3).
#ifndef SLICE_RPC_RPC_MESSAGE_H_
#define SLICE_RPC_RPC_MESSAGE_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/xdr/xdr.h"

namespace slice {

constexpr uint32_t kRpcVersion = 2;

enum class RpcMsgType : uint32_t { kCall = 0, kReply = 1 };
enum class RpcReplyStat : uint32_t { kAccepted = 0, kDenied = 1 };
enum class RpcAcceptStat : uint32_t {
  kSuccess = 0,
  kProgUnavail = 1,
  kProgMismatch = 2,
  kProcUnavail = 3,
  kGarbageArgs = 4,
  kSystemErr = 5,
};

enum class RpcAuthFlavor : uint32_t { kNone = 0, kSys = 1 };

struct AuthSysCred {
  uint32_t stamp = 0;
  std::string machine_name = "client";
  uint32_t uid = 0;
  uint32_t gid = 0;
  std::vector<uint32_t> gids;
};

// Decode-side AUTH_SYS credential, parsed in place from the wire. The
// machine name is a view into the decoded buffer (valid only while that
// buffer lives) and the gid list is a bounded inline array — RFC 1831 caps
// AUTH_SYS at 16 gids, which the decoder enforces — so materializing a
// credential never touches the heap.
struct AuthSysCredView {
  static constexpr uint32_t kMaxGids = 16;

  struct GidList {
    std::array<uint32_t, kMaxGids> v{};
    uint32_t count = 0;
    size_t size() const { return count; }
    bool empty() const { return count == 0; }
    uint32_t operator[](size_t i) const { return v[i]; }
  };

  uint32_t stamp = 0;
  std::string_view machine_name;
  uint32_t uid = 0;
  uint32_t gid = 0;
  GidList gids;
};

struct RpcCall {
  uint32_t xid = 0;
  uint32_t prog = 0;
  uint32_t vers = 0;
  uint32_t proc = 0;
  AuthSysCred cred;
  Bytes args;  // procedure-specific XDR body

  Bytes Encode() const;
};

struct RpcReply {
  uint32_t xid = 0;
  RpcAcceptStat stat = RpcAcceptStat::kSuccess;
  Bytes result;  // procedure-specific XDR body (valid when stat == kSuccess)

  Bytes Encode() const;
};

// Decoded view of an incoming message. A true view: `cred.machine_name` and
// `body` alias the buffer passed to DecodeRpcMessage and are valid only
// while it lives — dispatch paths consume the view synchronously, while the
// packet is still in scope (the same packet-view lifetime rule as DESIGN.md
// §7's µproxy decode views).
struct RpcMessageView {
  RpcMsgType type = RpcMsgType::kCall;
  uint32_t xid = 0;
  // For calls:
  uint32_t prog = 0;
  uint32_t vers = 0;
  uint32_t proc = 0;
  AuthSysCredView cred;
  // For replies:
  RpcAcceptStat accept_stat = RpcAcceptStat::kSuccess;
  // Offset of the procedure body within the decoded buffer, and its bytes.
  size_t body_offset = 0;
  ByteSpan body;
};

Result<RpcMessageView> DecodeRpcMessage(ByteSpan data);
// A view of a temporary would dangle as soon as the call returns.
Result<RpcMessageView> DecodeRpcMessage(Bytes&&) = delete;

// Fast-path peek used by the µproxy: extracts (xid, msg type) and, for calls,
// (prog, vers, proc) plus the byte offset where the procedure arguments
// begin — skipping over the variable-length credential/verifier without
// materializing it. Mirrors the header walk the paper's µproxy performs.
struct RpcPeek {
  RpcMsgType type = RpcMsgType::kCall;
  uint32_t xid = 0;
  uint32_t prog = 0;
  uint32_t vers = 0;
  uint32_t proc = 0;
  RpcAcceptStat accept_stat = RpcAcceptStat::kSuccess;
  size_t body_offset = 0;  // offset of proc args (call) / results (reply)
  // Tenant tag riding in the AUTH_SYS uid (calls only; 0 = untenanted).
  // Read in place from the credential bytes during the skip walk.
  uint32_t tenant = 0;
};

Result<RpcPeek> PeekRpcMessage(ByteSpan data);

}  // namespace slice

#endif  // SLICE_RPC_RPC_MESSAGE_H_
