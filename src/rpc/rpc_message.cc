#include "src/rpc/rpc_message.h"

#include "src/net/packet.h"

namespace slice {
namespace {

// RFC 1831's AUTH_SYS bounds.
constexpr uint32_t kMaxMachineName = 255;
constexpr uint32_t kMaxGids = 16;

// Checks an AUTH_SYS credential body in place — stamp, machine name, uid,
// gid and the gid list, each inside `body` and within RFC 1831's bounds —
// and stores its uid. Raw reads behind two length checks: this runs on every
// call the µproxy and the servers see.
bool ReadAuthSysUid(ByteSpan body, uint32_t* uid) {
  const uint8_t* p = body.data();
  if (body.size() < 8) {  // stamp, name length
    return false;
  }
  const uint32_t name_len = GetU32(p + 4);
  if (name_len > kMaxMachineName) {
    return false;
  }
  const size_t at = 8 + name_len + XdrPad(name_len);  // uid, gid, gid count
  if (body.size() < at + 12) {
    return false;
  }
  const uint32_t gids = GetU32(p + at + 8);
  if (gids > kMaxGids || body.size() < at + 12 + size_t{4} * gids) {
    return false;
  }
  *uid = GetU32(p + at);
  return true;
}

void PutReplyEnvelope(uint8_t* out, uint32_t xid, RpcAcceptStat stat) {
  PutU32(out, xid);
  PutU32(out + 4, static_cast<uint32_t>(RpcMsgType::kReply));
  PutU32(out + 8, static_cast<uint32_t>(RpcReplyStat::kAccepted));
  PutU32(out + 12, static_cast<uint32_t>(RpcAuthFlavor::kNone));  // null verifier
  PutU32(out + 16, 0);                                            //   (empty body)
  PutU32(out + 20, static_cast<uint32_t>(stat));
}

}  // namespace

Bytes EncodeAuthSysCred(const AuthSysCred& cred) {
  XdrEncoder body;
  body.PutUint32(cred.stamp);
  body.PutString(cred.machine_name);
  body.PutUint32(cred.uid);
  body.PutUint32(cred.gid);
  body.PutUint32(static_cast<uint32_t>(cred.gids.size()));
  for (uint32_t g : cred.gids) {
    body.PutUint32(g);
  }
  XdrEncoder enc;
  enc.PutUint32(static_cast<uint32_t>(RpcAuthFlavor::kSys));
  enc.PutOpaqueVar(body.bytes());
  return enc.Take();
}

void EncodeCallHeader(XdrEncoder& enc, uint32_t xid, uint32_t prog, uint32_t vers,
                      uint32_t proc, ByteSpan cred) {
  enc.PutUint32(xid);
  enc.PutUint32(static_cast<uint32_t>(RpcMsgType::kCall));
  enc.PutUint32(kRpcVersion);
  enc.PutUint32(prog);
  enc.PutUint32(vers);
  enc.PutUint32(proc);
  enc.PutRawBytes(cred);
  enc.PutUint32(static_cast<uint32_t>(RpcAuthFlavor::kNone));  // null verifier
  enc.PutUint32(0);                                            //   (empty body)
}

Bytes RpcCall::Encode() const {
  XdrEncoder enc;
  EncodeCallHeader(enc, xid, prog, vers, proc, EncodeAuthSysCred(cred));
  enc.PutOpaqueFixed(args);
  return enc.Take();
}

Bytes RpcReply::Encode() const {
  Bytes out(kRpcReplyEnvelopeSize);
  PutReplyEnvelope(out.data(), xid, stat);
  if (stat != RpcAcceptStat::kSuccess) {
    return out;
  }
  XdrEncoder enc(std::move(out));
  enc.PutOpaqueFixed(result);
  return enc.Take();
}

XdrEncoder NewReplyEncoder() {
  return XdrEncoder(Packet::AcquireFrame(kRpcReplyEnvelopeSize));
}

ByteSpan SealReplyFrame(Bytes& frame, uint32_t xid, RpcAcceptStat stat) {
  constexpr size_t kBodyStart = kPacketHeaderSize + kRpcReplyEnvelopeSize;
  SLICE_CHECK(frame.size() >= kBodyStart);
  PutReplyEnvelope(frame.data() + kPacketHeaderSize, xid, stat);
  if (stat != RpcAcceptStat::kSuccess) {
    frame.resize(kBodyStart);
  }
  return ByteSpan(frame).subspan(kPacketHeaderSize);
}

Result<RpcMessageView> DecodeRpcMessage(ByteSpan data) {
  // Raw reads behind explicit length checks, like ReadAuthSysUid: a Status
  // is built only on a failure path.
  const auto corrupt = [](const char* what) { return Status(StatusCode::kCorrupt, what); };
  const uint8_t* const p = data.data();
  const size_t n = data.size();
  RpcMessageView view;
  if (n < 8) {
    return corrupt("rpc: short header");
  }
  view.xid = GetU32(p);
  const uint32_t type = GetU32(p + 4);
  if (type > 1) {
    return corrupt("rpc: bad msg type");
  }
  view.type = static_cast<RpcMsgType>(type);
  size_t pos = 8;

  if (view.type == RpcMsgType::kCall) {
    // rpcvers, prog, vers, proc, then the credential's flavor and length.
    if (n - pos < 24) {
      return corrupt("rpc: short header");
    }
    if (GetU32(p + pos) != kRpcVersion) {
      return corrupt("rpc: bad version");
    }
    view.prog = GetU32(p + pos + 4);
    view.vers = GetU32(p + pos + 8);
    view.proc = GetU32(p + pos + 12);
    const uint32_t cred_flavor = GetU32(p + pos + 16);
    const uint32_t cred_len = GetU32(p + pos + 20);
    pos += 24;
    if (cred_len > 400) {
      return corrupt("rpc: oversized auth");
    }
    if (n - pos < cred_len + XdrPad(cred_len)) {
      return corrupt("rpc: short header");
    }
    if (cred_flavor == static_cast<uint32_t>(RpcAuthFlavor::kSys) &&
        !ReadAuthSysUid(data.subspan(pos, cred_len), &view.uid)) {
      return corrupt("rpc: malformed AUTH_SYS credential");
    }
    pos += cred_len + XdrPad(cred_len);
  } else {
    if (n - pos < 4) {
      return corrupt("rpc: short header");
    }
    if (GetU32(p + pos) != static_cast<uint32_t>(RpcReplyStat::kAccepted)) {
      return corrupt("rpc: denied reply");
    }
    pos += 4;
  }

  // The verifier: flavor, length and an opaque body nothing reads.
  if (n - pos < 8) {
    return corrupt("rpc: short header");
  }
  const uint32_t verf_len = GetU32(p + pos + 4);
  pos += 8;
  if (verf_len > 400) {
    return corrupt("rpc: oversized verifier");
  }
  if (n - pos < verf_len + XdrPad(verf_len)) {
    return corrupt("rpc: short header");
  }
  pos += verf_len + XdrPad(verf_len);

  if (view.type == RpcMsgType::kReply) {
    if (n - pos < 4) {
      return corrupt("rpc: short header");
    }
    const uint32_t accept = GetU32(p + pos);
    if (accept > static_cast<uint32_t>(RpcAcceptStat::kSystemErr)) {
      return corrupt("rpc: bad accept stat");
    }
    view.accept_stat = static_cast<RpcAcceptStat>(accept);
    pos += 4;
  }

  view.body_offset = pos;
  view.body = data.subspan(pos);
  return view;
}

}  // namespace slice
