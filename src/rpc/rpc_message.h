// ONC RPC v2 (RFC 1831) message framing over UDP datagrams.
//
// Calls carry AUTH_SYS credentials (RFC 1831 appendix) with a variable-length
// machine name and gid list — the variable-length header fields the paper
// identifies as the dominant µproxy decode cost (§5, Table 3).
#ifndef SLICE_RPC_RPC_MESSAGE_H_
#define SLICE_RPC_RPC_MESSAGE_H_

#include <cstdint>
#include <string>
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

// Whole-message encoders for tests, fixtures and hand-built wire images.
// RpcClient and RpcServerNode encode the same bytes straight into packet
// frames through the helpers below.
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

// --- framed encoding ---
//
// A message on the wire is encoded once, into a pooled packet frame
// (Packet::AcquireFrame) that Packet::MakeUdpFramed then turns into the
// packet in place.

// The AUTH_SYS credential as it sits in a call: flavor word plus opaque
// body. RpcClient encodes its credential once and splices it into every
// call.
Bytes EncodeAuthSysCred(const AuthSysCred& cred);

// Appends a call's header: xid, CALL, RPC version, program, version,
// procedure, the pre-encoded credential `cred` and a null verifier. The
// procedure args follow.
void EncodeCallHeader(XdrEncoder& enc, uint32_t xid, uint32_t prog, uint32_t vers,
                      uint32_t proc, ByteSpan cred);

// Accepted-reply envelope: xid, REPLY, MSG_ACCEPTED, a null verifier and the
// accept stat, 24 bytes ahead of the result body.
constexpr size_t kRpcReplyEnvelopeSize = 24;

// An encoder over a fresh frame with the packet headers and the reply
// envelope reserved: a handler appends its result body after them.
XdrEncoder NewReplyEncoder();

// Fills the envelope of a reply frame (from NewReplyEncoder) in place and,
// unless `stat` is success, drops any result body a handler had already
// appended. Returns the RPC message: the frame past its packet headers.
ByteSpan SealReplyFrame(Bytes& frame, uint32_t xid, RpcAcceptStat stat);

// Decoded view of an incoming message. A true view: `body` aliases the
// buffer passed to DecodeRpcMessage and is valid only while it lives —
// dispatch paths consume the view synchronously, while the packet is still
// in scope (the same packet-view lifetime rule as DESIGN.md §7's µproxy
// decode views).
struct RpcMessageView {
  RpcMsgType type = RpcMsgType::kCall;
  uint32_t xid = 0;
  // For calls:
  uint32_t prog = 0;
  uint32_t vers = 0;
  uint32_t proc = 0;
  // The AUTH_SYS uid, which carries the tenant tag (0 = untenanted, or a
  // call without AUTH_SYS). The rest of the credential is checked but not
  // kept: nothing reads it.
  uint32_t uid = 0;
  // For replies:
  RpcAcceptStat accept_stat = RpcAcceptStat::kSuccess;
  // Offset of the procedure body within the decoded buffer, and its bytes.
  size_t body_offset = 0;
  ByteSpan body;
};

// The one walk of the RPC header, shared by servers, clients and the
// µproxy: it skips the variable-length credential and verifier without
// materializing them, checks an AUTH_SYS credential in place (RFC 1831: a
// machine name of at most 255 bytes, at most 16 gids, every field inside the
// credential body) and lifts its uid. Allocation-free unless it fails.
Result<RpcMessageView> DecodeRpcMessage(ByteSpan data);
// A view of a temporary would dangle as soon as the call returns.
Result<RpcMessageView> DecodeRpcMessage(Bytes&&) = delete;

// Decodes a message body — a call's args or a reply's result — as a T with
// T::Decode(dec). A type whose wire layout depends on the procedure (NFS
// READDIR and READDIRPLUS share ReaddirArgs and ReaddirRes) provides
// T::DecodeForProc(dec, proc) instead. RpcServerNode::Serve and CallTyped
// decode every body through here.
template <typename T>
Result<T> DecodeBody(ByteSpan body, uint32_t proc) {
  XdrDecoder dec(body);
  if constexpr (requires { T::DecodeForProc(dec, proc); }) {
    return T::DecodeForProc(dec, proc);
  } else {
    return T::Decode(dec);
  }
}

}  // namespace slice

#endif  // SLICE_RPC_RPC_MESSAGE_H_
