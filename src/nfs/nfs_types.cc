#include "src/nfs/nfs_types.h"

#include <algorithm>

#include "src/common/status.h"

namespace slice {

const char* NfsProcName(NfsProc proc) {
  switch (proc) {
    case NfsProc::kNull:
      return "null";
    case NfsProc::kGetattr:
      return "getattr";
    case NfsProc::kSetattr:
      return "setattr";
    case NfsProc::kLookup:
      return "lookup";
    case NfsProc::kAccess:
      return "access";
    case NfsProc::kReadlink:
      return "readlink";
    case NfsProc::kRead:
      return "read";
    case NfsProc::kWrite:
      return "write";
    case NfsProc::kCreate:
      return "create";
    case NfsProc::kMkdir:
      return "mkdir";
    case NfsProc::kSymlink:
      return "symlink";
    case NfsProc::kMknod:
      return "mknod";
    case NfsProc::kRemove:
      return "remove";
    case NfsProc::kRmdir:
      return "rmdir";
    case NfsProc::kRename:
      return "rename";
    case NfsProc::kLink:
      return "link";
    case NfsProc::kReaddir:
      return "readdir";
    case NfsProc::kReaddirplus:
      return "readdirplus";
    case NfsProc::kFsstat:
      return "fsstat";
    case NfsProc::kFsinfo:
      return "fsinfo";
    case NfsProc::kPathconf:
      return "pathconf";
    case NfsProc::kCommit:
      return "commit";
  }
  return "unknown";
}

namespace {

uint64_t ComputeCapability(ByteSpan prefix, uint64_t volume_secret) {
  // A keyed scramble of the identifying fields. Not cryptographic — the
  // simulation has no real adversary — but structurally it plays the role of
  // the NASD capability: storage nodes reject handles whose tag does not
  // verify under the volume secret.
  return MixU64(Fnv1a64(prefix) ^ MixU64(volume_secret));
}

}  // namespace

FileHandle FileHandle::Make(uint32_t volume, uint64_t fileid, uint32_t generation,
                            FileType3 type, uint8_t replication, uint64_t volume_secret) {
  FileHandle fh;
  PutU32(fh.bytes_.data(), volume);
  PutU64(fh.bytes_.data() + 4, fileid);
  PutU32(fh.bytes_.data() + 12, generation);
  fh.bytes_[16] = static_cast<uint8_t>(type);
  fh.bytes_[17] = replication == 0 ? 1 : replication;
  fh.bytes_[18] = 0;
  fh.bytes_[19] = 0;
  const uint64_t tag = ComputeCapability(ByteSpan(fh.bytes_.data(), 20), volume_secret);
  PutU64(fh.bytes_.data() + 20, tag);
  PutU32(fh.bytes_.data() + 28, 0);
  return fh;
}

FileHandle FileHandle::FromBytes(ByteSpan raw) {
  FileHandle fh;
  SLICE_CHECK(raw.size() == kSize);
  std::copy(raw.begin(), raw.end(), fh.bytes_.begin());
  return fh;
}

bool FileHandle::VerifyCapability(uint64_t volume_secret) const {
  return capability() == ComputeCapability(ByteSpan(bytes_.data(), 20), volume_secret);
}

void XdrSetTime(XdrEncoder& enc, const std::optional<NfsTime>& t) {
  enc.PutUint32(t.has_value() ? 2 : 0);
  if (t.has_value()) {
    XdrField(enc, *t);
  }
}

void XdrSetTime(XdrDecoder& dec, std::optional<NfsTime>& t) {
  uint32_t how = 0;
  XdrField(dec, how);
  if (how > 2) {
    dec.Fail("nfs: bad time_how");
  }
  if (!dec.ok()) {
    return;
  }
  if (how == 2) {
    XdrField(dec, t.emplace());
  } else {
    t.reset();
  }
}

bool FileHandle::empty() const {
  for (uint8_t b : bytes_) {
    if (b != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace slice
