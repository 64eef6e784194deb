#include "src/nfs/nfs_xdr.h"

namespace slice {

void XdrEntries(XdrEncoder& enc, const std::vector<DirEntry>& entries, bool plus) {
  for (const DirEntry& entry : entries) {
    enc.PutBool(true);
    DirEntry::Xdr(enc, entry, plus);
  }
  enc.PutBool(false);
}

void XdrEntries(XdrDecoder& dec, std::vector<DirEntry>& entries, bool plus) {
  // An entry takes at least 24 bytes (its list bool, fileid, empty name and
  // cookie), 32 with READDIRPLUS's two absent-value bools, so the rest of
  // the body holds at most this many.
  entries.reserve(dec.remaining() / (plus ? 32 : 24));
  bool more = false;
  XdrField(dec, more);
  while (more && dec.ok()) {
    DirEntry::Xdr(dec, entries.emplace_back(), plus);
    XdrField(dec, more);
  }
}

namespace {

template <typename Res>
void EncodeFailure(XdrEncoder& enc, Nfsstat3 status) {
  Res res;
  res.status = status;
  res.Encode(enc);
}

}  // namespace

void EncodeNfsError(XdrEncoder& enc, NfsProc proc, Nfsstat3 status) {
  switch (proc) {
    case NfsProc::kGetattr:
      return EncodeFailure<GetattrRes>(enc, status);
    case NfsProc::kSetattr:
      return EncodeFailure<SetattrRes>(enc, status);
    case NfsProc::kLookup:
      return EncodeFailure<LookupRes>(enc, status);
    case NfsProc::kAccess:
      return EncodeFailure<AccessRes>(enc, status);
    case NfsProc::kReadlink:
      return EncodeFailure<ReadlinkRes>(enc, status);
    case NfsProc::kRead:
      return EncodeFailure<ReadRes>(enc, status);
    case NfsProc::kWrite:
      return EncodeFailure<WriteRes>(enc, status);
    case NfsProc::kCreate:
    case NfsProc::kMkdir:
    case NfsProc::kSymlink:
      return EncodeFailure<CreateRes>(enc, status);
    case NfsProc::kRemove:
    case NfsProc::kRmdir:
      return EncodeFailure<RemoveRes>(enc, status);
    case NfsProc::kRename:
      return EncodeFailure<RenameRes>(enc, status);
    case NfsProc::kLink:
      return EncodeFailure<LinkRes>(enc, status);
    case NfsProc::kReaddir:
    case NfsProc::kReaddirplus:
      return EncodeFailure<ReaddirRes>(enc, status);
    case NfsProc::kFsstat:
      return EncodeFailure<FsstatRes>(enc, status);
    case NfsProc::kFsinfo:
      return EncodeFailure<FsinfoRes>(enc, status);
    case NfsProc::kCommit:
      return EncodeFailure<CommitRes>(enc, status);
    default:
      return enc.PutUint32(static_cast<uint32_t>(status));
  }
}

}  // namespace slice
