// NFS version 3 protocol types (RFC 1813), plus the Slice file-handle
// layout. The Slice fhandle packs the routing-relevant fields — fileID,
// file type, replication degree — at fixed offsets so the µproxy can route
// on them, and carries a NASD-style capability tag that storage nodes verify
// (paper §2.2: object protection lets the µproxy live outside the trust
// boundary). Each type that appears on the wire states its XDR layout once,
// as a field list (src/xdr/xdr.h).
#ifndef SLICE_NFS_NFS_TYPES_H_
#define SLICE_NFS_NFS_TYPES_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/hash.h"
#include "src/xdr/xdr.h"

namespace slice {

constexpr uint32_t kNfsProgram = 100003;
constexpr uint32_t kNfsVersion = 3;
constexpr uint16_t kNfsPort = 2049;

enum class NfsProc : uint32_t {
  kNull = 0,
  kGetattr = 1,
  kSetattr = 2,
  kLookup = 3,
  kAccess = 4,
  kReadlink = 5,
  kRead = 6,
  kWrite = 7,
  kCreate = 8,
  kMkdir = 9,
  kSymlink = 10,
  kMknod = 11,
  kRemove = 12,
  kRmdir = 13,
  kRename = 14,
  kLink = 15,
  kReaddir = 16,
  kReaddirplus = 17,
  kFsstat = 18,
  kFsinfo = 19,
  kPathconf = 20,
  kCommit = 21,
};

// Number of procedures in the NfsProc enum (contiguous from kNull).
inline constexpr size_t kNfsProcCount = 22;

const char* NfsProcName(NfsProc proc);

enum class Nfsstat3 : uint32_t {
  kOk = 0,
  kErrPerm = 1,
  kErrNoent = 2,
  kErrIo = 5,
  kErrAcces = 13,
  kErrExist = 17,
  kErrXdev = 18,
  kErrNodev = 19,
  kErrNotdir = 20,
  kErrIsdir = 21,
  kErrInval = 22,
  kErrFbig = 27,
  kErrNospc = 28,
  kErrRofs = 30,
  kErrMlink = 31,
  kErrNametoolong = 63,
  kErrNotempty = 66,
  kErrDquot = 69,
  kErrStale = 70,
  kErrRemote = 71,
  kErrBadhandle = 10001,
  kErrNotSync = 10002,
  kErrBadCookie = 10003,
  kErrNotsupp = 10004,
  kErrToosmall = 10005,
  kErrServerfault = 10006,
  kErrBadtype = 10007,
  kErrJukebox = 10008,
};

enum class FileType3 : uint32_t {
  kReg = 1,
  kDir = 2,
  kBlk = 3,
  kChr = 4,
  kLnk = 5,
  kSock = 6,
  kFifo = 7,
};

enum class StableHow : uint32_t { kUnstable = 0, kDataSync = 1, kFileSync = 2 };
enum class CreateMode : uint32_t { kUnchecked = 0, kGuarded = 1, kExclusive = 2 };

// Decode bounds: a name component, a symlink target, READ/WRITE data.
inline constexpr size_t kNfsMaxName = 255;
inline constexpr size_t kNfsMaxPath = 1024;
inline constexpr size_t kNfsMaxData = 1 << 20;

struct NfsTime {
  uint32_t seconds = 0;
  uint32_t nseconds = 0;

  bool operator==(const NfsTime&) const = default;
  bool operator<(const NfsTime& other) const {
    return seconds != other.seconds ? seconds < other.seconds : nseconds < other.nseconds;
  }

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.seconds);
    XdrField(io, s.nseconds);
  }
};

// sattr3's set_atime/set_mtime (RFC 1813 time_how): SET_TO_CLIENT_TIME (2)
// and the time when one is set, else DONT_CHANGE (0). SET_TO_SERVER_TIME (1)
// decodes as no change; anything above 2 fails.
void XdrSetTime(XdrEncoder& enc, const std::optional<NfsTime>& t);
void XdrSetTime(XdrDecoder& dec, std::optional<NfsTime>& t);

// Full RFC 1813 fattr3: 84 bytes on the wire, fixed layout — the µproxy's
// attribute-patching relies on the fixed size.
struct Fattr3 {
  FileType3 type = FileType3::kReg;
  uint32_t mode = 0644;
  uint32_t nlink = 1;
  uint32_t uid = 0;
  uint32_t gid = 0;
  uint64_t size = 0;
  uint64_t used = 0;
  uint32_t rdev_major = 0;
  uint32_t rdev_minor = 0;
  uint64_t fsid = 0;
  uint64_t fileid = 0;
  NfsTime atime;
  NfsTime mtime;
  NfsTime ctime;

  bool operator==(const Fattr3&) const = default;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.type);
    XdrField(io, s.mode);
    XdrField(io, s.nlink);
    XdrField(io, s.uid);
    XdrField(io, s.gid);
    XdrField(io, s.size);
    XdrField(io, s.used);
    XdrField(io, s.rdev_major);
    XdrField(io, s.rdev_minor);
    XdrField(io, s.fsid);
    XdrField(io, s.fileid);
    XdrField(io, s.atime);
    XdrField(io, s.mtime);
    XdrField(io, s.ctime);
  }
};

constexpr size_t kFattr3WireSize = 84;

// Settable attributes (sattr3).
struct Sattr3 {
  std::optional<uint32_t> mode;
  std::optional<uint32_t> uid;
  std::optional<uint32_t> gid;
  std::optional<uint64_t> size;
  std::optional<NfsTime> atime;  // SET_TO_CLIENT_TIME only
  std::optional<NfsTime> mtime;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.mode);
    XdrField(io, s.uid);
    XdrField(io, s.gid);
    XdrField(io, s.size);
    XdrSetTime(io, s.atime);
    XdrSetTime(io, s.mtime);
  }
};

// Weak cache consistency attributes.
struct WccAttr {
  uint64_t size = 0;
  NfsTime mtime;
  NfsTime ctime;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.size);
    XdrField(io, s.mtime);
    XdrField(io, s.ctime);
  }
};

struct WccData {
  std::optional<WccAttr> before;
  std::optional<Fattr3> after;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.before);
    XdrField(io, s.after);
  }
};

// ---------------------------------------------------------------------------
// Slice file handle: 32 opaque bytes with fixed internal layout.
//
//   [0..4)   volume id
//   [4..12)  fileID (drives all routing)
//   [12..16) generation
//   [16]     file type (FileType3)
//   [17]     replication degree (1 = unmirrored)
//   [18..20) reserved
//   [20..28) capability tag = MixU64 over the fields + volume secret
//   [28..32) zero
// ---------------------------------------------------------------------------

class FileHandle {
 public:
  static constexpr size_t kSize = 32;

  FileHandle() { bytes_.fill(0); }

  static FileHandle Make(uint32_t volume, uint64_t fileid, uint32_t generation,
                         FileType3 type, uint8_t replication, uint64_t volume_secret);

  static FileHandle FromBytes(ByteSpan raw);

  uint32_t volume() const { return GetU32(bytes_.data()); }
  uint64_t fileid() const { return GetU64(bytes_.data() + 4); }
  uint32_t generation() const { return GetU32(bytes_.data() + 12); }
  FileType3 type() const { return static_cast<FileType3>(bytes_[16]); }
  uint8_t replication() const { return bytes_[17]; }
  uint64_t capability() const { return GetU64(bytes_.data() + 20); }

  bool IsDir() const { return type() == FileType3::kDir; }
  bool VerifyCapability(uint64_t volume_secret) const;

  ByteSpan bytes() const { return ByteSpan(bytes_.data(), kSize); }
  bool empty() const;

  bool operator==(const FileHandle&) const = default;

  struct Hash {
    size_t operator()(const FileHandle& fh) const {
      return static_cast<size_t>(Fnv1a64(fh.bytes()));
    }
  };

 private:
  std::array<uint8_t, kSize> bytes_;
};

// On the wire a handle is an opaque of exactly FileHandle::kSize bytes.
inline void XdrField(XdrEncoder& enc, const FileHandle& fh) { enc.PutOpaqueVar(fh.bytes()); }
inline void XdrField(XdrDecoder& dec, FileHandle& fh) {
  ByteSpan raw;
  XdrField(dec, raw, FileHandle::kSize);
  if (raw.size() != FileHandle::kSize) {
    dec.Fail("nfs: bad fhandle size");
  }
  if (dec.ok()) {
    fh = FileHandle::FromBytes(raw);
  }
}

// Storage-node index for (file, byte offset) under static mirrored striping:
// stripe blocks of `stripe_unit` bytes round-robin across `num_nodes` nodes
// starting at a per-file hash base; `replica` < fh.replication() selects a
// mirror. Shared by the µproxy's routing path and the coordinator's
// degraded-region resync so both always agree on placement.
inline uint32_t StripeSiteFor(const FileHandle& fh, uint64_t offset, uint32_t stripe_unit,
                              uint32_t num_nodes, uint32_t replica = 0) {
  const uint32_t k = fh.replication() == 0 ? 1 : fh.replication();
  const uint64_t block = offset / stripe_unit;
  return static_cast<uint32_t>((Fnv1a64(fh.bytes()) + block * k + replica) % num_nodes);
}

// Directory entries (readdir / readdirplus).
struct DirEntry {
  uint64_t fileid = 0;
  std::string name;
  uint64_t cookie = 0;
  // readdirplus extras:
  std::optional<Fattr3> attr;
  std::optional<FileHandle> handle;

  // entry3, or entryplus3 when `plus`.
  template <class Io, class S>
  static void Xdr(Io& io, S& s, bool plus) {
    XdrField(io, s.fileid);
    XdrField(io, s.name, kNfsMaxName);
    XdrField(io, s.cookie);
    if (plus) {
      XdrField(io, s.attr);
      XdrField(io, s.handle);
    }
  }
};

}  // namespace slice

#endif  // SLICE_NFS_NFS_TYPES_H_
