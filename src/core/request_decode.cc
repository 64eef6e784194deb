#include "src/core/request_decode.h"

namespace slice {
namespace {

// Records where a zero-copy string view lives relative to the payload start.
void NoteName(ByteSpan payload, std::string_view sv, uint32_t* off, uint32_t* len) {
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

  XdrDecoder dec(call->body);
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
    case NfsProc::kSetattr: {
      SLICE_ASSIGN_OR_RETURN(out->fh, DecodeFileHandle(dec));
      out->has_fh = 1;
      if (out->proc == NfsProc::kSetattr) {
        // Pull the size field (if being set) so truncates can fan out.
        Result<Sattr3> sattr = DecodeSattr3(dec);
        if (sattr.ok() && sattr->size.has_value()) {
          out->offset = *sattr->size;
          out->count = 1;  // marks "size change present"
        }
      }
      return OkStatus();
    }

    case NfsProc::kLookup:
    case NfsProc::kRemove:
    case NfsProc::kRmdir:
    case NfsProc::kCreate:
    case NfsProc::kMkdir:
    case NfsProc::kSymlink: {
      SLICE_ASSIGN_OR_RETURN(out->fh, DecodeFileHandle(dec));
      out->has_fh = 1;
      SLICE_ASSIGN_OR_RETURN(std::string_view name, dec.GetStringView(255));
      NoteName(payload, name, &out->name_off, &out->name_len);
      return OkStatus();
    }

    case NfsProc::kRename: {
      SLICE_ASSIGN_OR_RETURN(out->fh, DecodeFileHandle(dec));
      out->has_fh = 1;
      SLICE_ASSIGN_OR_RETURN(std::string_view name, dec.GetStringView(255));
      NoteName(payload, name, &out->name_off, &out->name_len);
      SLICE_ASSIGN_OR_RETURN(out->fh2, DecodeFileHandle(dec));
      SLICE_ASSIGN_OR_RETURN(std::string_view name2, dec.GetStringView(255));
      NoteName(payload, name2, &out->name2_off, &out->name2_len);
      return OkStatus();
    }

    case NfsProc::kLink: {
      // link(file, dir, name): route by the (dir, name) entry placement.
      SLICE_ASSIGN_OR_RETURN(out->fh2, DecodeFileHandle(dec));  // file
      SLICE_ASSIGN_OR_RETURN(out->fh, DecodeFileHandle(dec));   // dir
      out->has_fh = 1;
      SLICE_ASSIGN_OR_RETURN(std::string_view name, dec.GetStringView(255));
      NoteName(payload, name, &out->name_off, &out->name_len);
      return OkStatus();
    }

    case NfsProc::kRead:
    case NfsProc::kCommit: {
      SLICE_ASSIGN_OR_RETURN(out->fh, DecodeFileHandle(dec));
      out->has_fh = 1;
      SLICE_ASSIGN_OR_RETURN(out->offset, dec.GetUint64());
      SLICE_ASSIGN_OR_RETURN(out->count, dec.GetUint32());
      return OkStatus();
    }

    case NfsProc::kWrite: {
      SLICE_ASSIGN_OR_RETURN(out->fh, DecodeFileHandle(dec));
      out->has_fh = 1;
      SLICE_ASSIGN_OR_RETURN(out->offset, dec.GetUint64());
      SLICE_ASSIGN_OR_RETURN(out->count, dec.GetUint32());
      SLICE_ASSIGN_OR_RETURN(uint32_t stable, dec.GetUint32());
      if (stable > 2) {
        return Status(StatusCode::kCorrupt, "uproxy: bad stable_how");
      }
      out->stable = static_cast<StableHow>(stable);
      return OkStatus();
    }

    case NfsProc::kReaddir:
    case NfsProc::kReaddirplus: {
      SLICE_ASSIGN_OR_RETURN(out->fh, DecodeFileHandle(dec));
      out->has_fh = 1;
      return OkStatus();
    }
  }
  return Status(StatusCode::kCorrupt, "uproxy: unknown procedure");
}

}  // namespace slice
