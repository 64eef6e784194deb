#include "src/rpc/rpc_message.h"

#include "src/net/packet.h"

namespace slice {
namespace {

// Parses an AUTH_SYS credential in place: the machine name stays a view into
// `body` and the gid list lands in the bounded inline array, so a credential
// decode never allocates. Callers must keep `body` alive while the view is
// consumed.
Result<AuthSysCredView> DecodeAuthBody(ByteSpan body) {
  XdrDecoder dec(body);
  AuthSysCredView cred;
  SLICE_ASSIGN_OR_RETURN(cred.stamp, dec.GetUint32());
  SLICE_ASSIGN_OR_RETURN(cred.machine_name, dec.GetStringView(255));
  SLICE_ASSIGN_OR_RETURN(cred.uid, dec.GetUint32());
  SLICE_ASSIGN_OR_RETURN(cred.gid, dec.GetUint32());
  SLICE_ASSIGN_OR_RETURN(uint32_t n, dec.GetUint32());
  if (n > AuthSysCredView::kMaxGids) {
    return Status(StatusCode::kCorrupt, "rpc: too many gids");
  }
  for (uint32_t i = 0; i < n; ++i) {
    SLICE_ASSIGN_OR_RETURN(cred.gids.v[i], dec.GetUint32());
  }
  cred.gids.count = n;
  return cred;
}

// Allocation-free uid extraction from a raw AUTH_SYS credential body: stamp,
// variable-length machine name, then uid. Any short or oversized field falls
// back to 0 (untenanted) rather than failing the whole peek — the credential
// was already bounds-checked as an opaque blob by the caller.
uint32_t PeekAuthSysUid(ByteSpan cred_body) {
  XdrDecoder dec(cred_body);
  if (!dec.GetUint32().ok()) {  // stamp
    return 0;
  }
  Result<uint32_t> name_len = dec.GetUint32();
  if (!name_len.ok() || name_len.value() > 255) {
    return 0;
  }
  if (!dec.GetRawView(name_len.value() + XdrPad(name_len.value())).ok()) {
    return 0;
  }
  Result<uint32_t> uid = dec.GetUint32();
  return uid.ok() ? uid.value() : 0;
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
  enc.PutEnum(static_cast<uint32_t>(RpcAuthFlavor::kSys));
  enc.PutOpaqueVar(body.bytes());
  return enc.Take();
}

void EncodeCallHeader(XdrEncoder& enc, uint32_t xid, uint32_t prog, uint32_t vers,
                      uint32_t proc, ByteSpan cred) {
  enc.PutUint32(xid);
  enc.PutEnum(static_cast<uint32_t>(RpcMsgType::kCall));
  enc.PutUint32(kRpcVersion);
  enc.PutUint32(prog);
  enc.PutUint32(vers);
  enc.PutUint32(proc);
  enc.PutRawBytes(cred);
  enc.PutEnum(static_cast<uint32_t>(RpcAuthFlavor::kNone));  // null verifier
  enc.PutUint32(0);                                          //   (empty body)
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
  XdrDecoder dec(data);
  RpcMessageView view;
  SLICE_ASSIGN_OR_RETURN(view.xid, dec.GetUint32());
  SLICE_ASSIGN_OR_RETURN(uint32_t type, dec.GetUint32());
  if (type > 1) {
    return Status(StatusCode::kCorrupt, "rpc: bad msg type");
  }
  view.type = static_cast<RpcMsgType>(type);

  if (view.type == RpcMsgType::kCall) {
    SLICE_ASSIGN_OR_RETURN(uint32_t rpcvers, dec.GetUint32());
    if (rpcvers != kRpcVersion) {
      return Status(StatusCode::kCorrupt, "rpc: bad version");
    }
    SLICE_ASSIGN_OR_RETURN(view.prog, dec.GetUint32());
    SLICE_ASSIGN_OR_RETURN(view.vers, dec.GetUint32());
    SLICE_ASSIGN_OR_RETURN(view.proc, dec.GetUint32());
    SLICE_ASSIGN_OR_RETURN(uint32_t cred_flavor, dec.GetUint32());
    SLICE_ASSIGN_OR_RETURN(uint32_t cred_len, dec.GetUint32());
    if (cred_len > 400) {
      return Status(StatusCode::kCorrupt, "rpc: oversized auth");
    }
    SLICE_ASSIGN_OR_RETURN(ByteSpan cred_body,
                           dec.GetRawView(cred_len + XdrPad(cred_len)));
    if (cred_flavor == static_cast<uint32_t>(RpcAuthFlavor::kSys)) {
      SLICE_ASSIGN_OR_RETURN(view.cred,
                             DecodeAuthBody(ByteSpan(cred_body.data(), cred_len)));
    }
    SLICE_ASSIGN_OR_RETURN(uint32_t verf_flavor, dec.GetUint32());
    (void)verf_flavor;
    SLICE_ASSIGN_OR_RETURN(uint32_t verf_len, dec.GetUint32());
    if (verf_len > 400) {
      return Status(StatusCode::kCorrupt, "rpc: oversized auth");
    }
    SLICE_ASSIGN_OR_RETURN(ByteSpan verf_body,
                           dec.GetRawView(verf_len + XdrPad(verf_len)));
    (void)verf_body;
  } else {
    SLICE_ASSIGN_OR_RETURN(uint32_t reply_stat, dec.GetUint32());
    if (reply_stat != static_cast<uint32_t>(RpcReplyStat::kAccepted)) {
      return Status(StatusCode::kCorrupt, "rpc: denied reply");
    }
    SLICE_ASSIGN_OR_RETURN(uint32_t verf_flavor, dec.GetUint32());
    (void)verf_flavor;
    SLICE_ASSIGN_OR_RETURN(uint32_t verf_len, dec.GetUint32());
    if (verf_len > 400) {
      return Status(StatusCode::kCorrupt, "rpc: oversized verifier");
    }
    SLICE_ASSIGN_OR_RETURN(ByteSpan verf_body,
                           dec.GetRawView(verf_len + XdrPad(verf_len)));
    (void)verf_body;
    SLICE_ASSIGN_OR_RETURN(uint32_t accept, dec.GetUint32());
    if (accept > static_cast<uint32_t>(RpcAcceptStat::kSystemErr)) {
      return Status(StatusCode::kCorrupt, "rpc: bad accept stat");
    }
    view.accept_stat = static_cast<RpcAcceptStat>(accept);
  }

  view.body_offset = dec.position();
  view.body = data.subspan(dec.position());
  return view;
}

Result<RpcPeek> PeekRpcMessage(ByteSpan data) {
  XdrDecoder dec(data);
  RpcPeek peek;
  SLICE_ASSIGN_OR_RETURN(peek.xid, dec.GetUint32());
  SLICE_ASSIGN_OR_RETURN(uint32_t type, dec.GetUint32());
  if (type > 1) {
    return Status(StatusCode::kCorrupt, "rpc: bad msg type");
  }
  peek.type = static_cast<RpcMsgType>(type);

  if (peek.type == RpcMsgType::kCall) {
    SLICE_ASSIGN_OR_RETURN(uint32_t rpcvers, dec.GetUint32());
    if (rpcvers != kRpcVersion) {
      return Status(StatusCode::kCorrupt, "rpc: bad version");
    }
    SLICE_ASSIGN_OR_RETURN(peek.prog, dec.GetUint32());
    SLICE_ASSIGN_OR_RETURN(peek.vers, dec.GetUint32());
    SLICE_ASSIGN_OR_RETURN(peek.proc, dec.GetUint32());
    // Skip credential and verifier without materializing them; the tenant
    // tag (AUTH_SYS uid) is read in place from the credential bytes.
    for (int i = 0; i < 2; ++i) {
      SLICE_ASSIGN_OR_RETURN(uint32_t flavor, dec.GetUint32());
      SLICE_ASSIGN_OR_RETURN(uint32_t len, dec.GetUint32());
      if (len > 400) {
        return Status(StatusCode::kCorrupt, "rpc: oversized auth");
      }
      SLICE_ASSIGN_OR_RETURN(ByteSpan skipped, dec.GetRawView(len + XdrPad(len)));
      if (i == 0 && flavor == static_cast<uint32_t>(RpcAuthFlavor::kSys)) {
        peek.tenant = PeekAuthSysUid(ByteSpan(skipped.data(), len));
      }
    }
  } else {
    SLICE_ASSIGN_OR_RETURN(uint32_t reply_stat, dec.GetUint32());
    if (reply_stat != static_cast<uint32_t>(RpcReplyStat::kAccepted)) {
      return Status(StatusCode::kCorrupt, "rpc: denied reply");
    }
    SLICE_ASSIGN_OR_RETURN(uint32_t flavor, dec.GetUint32());
    (void)flavor;
    SLICE_ASSIGN_OR_RETURN(uint32_t len, dec.GetUint32());
    if (len > 400) {
      return Status(StatusCode::kCorrupt, "rpc: oversized verifier");
    }
    SLICE_ASSIGN_OR_RETURN(ByteSpan skipped, dec.GetRawView(len + XdrPad(len)));
    (void)skipped;
    SLICE_ASSIGN_OR_RETURN(uint32_t accept, dec.GetUint32());
    peek.accept_stat = static_cast<RpcAcceptStat>(accept);
  }

  peek.body_offset = dec.position();
  return peek;
}

}  // namespace slice
