#include "src/core/request_decode.h"

namespace slice {
namespace {

// Records where a zero-copy string view lives relative to the payload
// start; a name the call does not carry stays (0, 0).
void NoteName(ByteSpan payload, std::string_view sv, uint32_t* off, uint32_t* len) {
  if (sv.data() == nullptr) {
    return;
  }
  *off = static_cast<uint32_t>(reinterpret_cast<const uint8_t*>(sv.data()) - payload.data());
  *len = static_cast<uint32_t>(sv.size());
}

}  // namespace

Status DecodeNfsRequestView(ByteSpan payload, DecodedView* out) {
  Result<RpcMessageView> call = DecodeRpcMessage(payload);
  if (!call.ok()) {
    return call.status();
  }
  if (call->type != RpcMsgType::kCall || call->prog != kNfsProgram ||
      call->vers != kNfsVersion) {
    return Status(StatusCode::kCorrupt, "uproxy: not an NFSv3 call");
  }
  out->xid = call->xid;
  out->proc = static_cast<NfsProc>(call->proc);
  out->body_offset = static_cast<uint32_t>(call->body_offset);
  out->tenant = call->uid;

  // The routing fields of the args, read through the same field overloads
  // as every src/nfs struct. A name is a view into the payload.
  XdrDecoder dec(call->body);
  std::string_view name;
  std::string_view name2;
  switch (out->proc) {
    case NfsProc::kNull:
    case NfsProc::kMknod:
    case NfsProc::kPathconf:
      return OkStatus();

    case NfsProc::kGetattr:
    case NfsProc::kReadlink:
    case NfsProc::kFsstat:
    case NfsProc::kFsinfo:
    case NfsProc::kAccess:
    case NfsProc::kReaddir:
    case NfsProc::kReaddirplus:
      XdrField(dec, out->fh);
      break;

    case NfsProc::kSetattr: {
      XdrField(dec, out->fh);
      if (!dec.ok()) {
        return dec.status();
      }
      out->has_fh = 1;
      // Pull the size field (if being set) so truncates can fan out. The
      // handle alone routes a call whose sattr3 does not decode.
      Sattr3 sattr;
      XdrField(dec, sattr);
      if (dec.ok() && sattr.size.has_value()) {
        out->offset = *sattr.size;
        out->count = 1;  // marks "size change present"
      }
      return OkStatus();
    }

    case NfsProc::kLookup:
    case NfsProc::kRemove:
    case NfsProc::kRmdir:
    case NfsProc::kCreate:
    case NfsProc::kMkdir:
    case NfsProc::kSymlink:
      XdrField(dec, out->fh);
      XdrField(dec, name, kNfsMaxName);
      break;

    case NfsProc::kRename:
      XdrField(dec, out->fh);
      XdrField(dec, name, kNfsMaxName);
      XdrField(dec, out->fh2);
      XdrField(dec, name2, kNfsMaxName);
      break;

    case NfsProc::kLink:
      // link(file, dir, name): route by the (dir, name) entry placement.
      XdrField(dec, out->fh2);  // file
      XdrField(dec, out->fh);   // dir
      XdrField(dec, name, kNfsMaxName);
      break;

    case NfsProc::kRead:
    case NfsProc::kCommit:
      XdrField(dec, out->fh);
      XdrField(dec, out->offset);
      XdrField(dec, out->count);
      break;

    case NfsProc::kWrite:
      XdrField(dec, out->fh);
      XdrField(dec, out->offset);
      XdrField(dec, out->count);
      XdrField(dec, out->stable, StableHow::kUnstable, StableHow::kFileSync);
      break;

    default:
      return Status(StatusCode::kCorrupt, "uproxy: unknown procedure");
  }
  if (!dec.ok()) {
    return dec.status();
  }
  out->has_fh = 1;
  NoteName(payload, name, &out->name_off, &out->name_len);
  NoteName(payload, name2, &out->name2_off, &out->name2_len);
  return OkStatus();
}

}  // namespace slice
