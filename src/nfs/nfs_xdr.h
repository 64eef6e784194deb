// XDR codecs for NFSv3 procedure arguments and results (RFC 1813 wire
// layout). Every request/result is a plain struct with Encode/Decode; the
// µproxy, servers, and client library all share these.
#ifndef SLICE_NFS_NFS_XDR_H_
#define SLICE_NFS_NFS_XDR_H_

#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/nfs/nfs_types.h"
#include "src/xdr/xdr.h"

namespace slice {

// --- shared helpers ---

void EncodeFileHandle(XdrEncoder& enc, const FileHandle& fh);
Result<FileHandle> DecodeFileHandle(XdrDecoder& dec);

void EncodeFattr3(XdrEncoder& enc, const Fattr3& attr);
Result<Fattr3> DecodeFattr3(XdrDecoder& dec);

void EncodePostOpAttr(XdrEncoder& enc, const std::optional<Fattr3>& attr);
Result<std::optional<Fattr3>> DecodePostOpAttr(XdrDecoder& dec);

void EncodeWccData(XdrEncoder& enc, const WccData& wcc);
Result<WccData> DecodeWccData(XdrDecoder& dec);

void EncodeSattr3(XdrEncoder& enc, const Sattr3& sattr);
Result<Sattr3> DecodeSattr3(XdrDecoder& dec);

void EncodePostOpFh(XdrEncoder& enc, const std::optional<FileHandle>& fh);
Result<std::optional<FileHandle>> DecodePostOpFh(XdrDecoder& dec);

// --- per-procedure argument structs ---

struct GetattrArgs {
  FileHandle object;
  void Encode(XdrEncoder& enc) const;
  static Result<GetattrArgs> Decode(XdrDecoder& dec);
};

struct SetattrArgs {
  FileHandle object;
  Sattr3 new_attributes;
  std::optional<NfsTime> guard_ctime;
  void Encode(XdrEncoder& enc) const;
  static Result<SetattrArgs> Decode(XdrDecoder& dec);
};

// lookup / create-style (dir, name) arguments.
struct DirOpArgs {
  FileHandle dir;
  std::string name;
  void Encode(XdrEncoder& enc) const;
  static Result<DirOpArgs> Decode(XdrDecoder& dec);
};

struct AccessArgs {
  FileHandle object;
  uint32_t access = 0x3f;
  void Encode(XdrEncoder& enc) const;
  static Result<AccessArgs> Decode(XdrDecoder& dec);
};

struct ReadArgs {
  FileHandle file;
  uint64_t offset = 0;
  uint32_t count = 0;
  void Encode(XdrEncoder& enc) const;
  static Result<ReadArgs> Decode(XdrDecoder& dec);
};

struct WriteArgs {
  FileHandle file;
  uint64_t offset = 0;
  uint32_t count = 0;
  StableHow stable = StableHow::kUnstable;
  Bytes data;
  void Encode(XdrEncoder& enc) const;
  static Result<WriteArgs> Decode(XdrDecoder& dec);
};

// WRITE args whose data is a view: into the decoder's buffer (the request
// packet) after Decode, or into the caller's buffer when encoding. A server
// that applies the write before its handler returns decodes this and copies
// the data once, into its own store; WriteArgs::Decode materializes the same
// decode. NfsClient::Write encodes the caller's span through this straight
// into the call's frame, and WriteArgs::Encode delegates to it.
struct WriteArgsView {
  FileHandle file;
  uint64_t offset = 0;
  uint32_t count = 0;
  StableHow stable = StableHow::kUnstable;
  ByteSpan data;
  void Encode(XdrEncoder& enc) const;
  static Result<WriteArgsView> Decode(XdrDecoder& dec);
};

struct CreateArgs {
  FileHandle dir;
  std::string name;
  CreateMode mode = CreateMode::kUnchecked;
  Sattr3 attributes;
  void Encode(XdrEncoder& enc) const;
  static Result<CreateArgs> Decode(XdrDecoder& dec);
};

struct MkdirArgs {
  FileHandle dir;
  std::string name;
  Sattr3 attributes;
  void Encode(XdrEncoder& enc) const;
  static Result<MkdirArgs> Decode(XdrDecoder& dec);
};

struct SymlinkArgs {
  FileHandle dir;
  std::string name;
  Sattr3 attributes;
  std::string target;
  void Encode(XdrEncoder& enc) const;
  static Result<SymlinkArgs> Decode(XdrDecoder& dec);
};

struct RenameArgs {
  FileHandle from_dir;
  std::string from_name;
  FileHandle to_dir;
  std::string to_name;
  void Encode(XdrEncoder& enc) const;
  static Result<RenameArgs> Decode(XdrDecoder& dec);
};

struct LinkArgs {
  FileHandle file;
  FileHandle dir;
  std::string name;
  void Encode(XdrEncoder& enc) const;
  static Result<LinkArgs> Decode(XdrDecoder& dec);
};

struct ReaddirArgs {
  FileHandle dir;
  uint64_t cookie = 0;
  uint64_t cookieverf = 0;
  uint32_t count = 4096;
  bool plus = false;  // READDIRPLUS (adds maxcount on the wire)
  uint32_t maxcount = 8192;
  void Encode(XdrEncoder& enc) const;
  static Result<ReaddirArgs> Decode(XdrDecoder& dec, bool plus);
  // DecodeBody's form: READDIRPLUS decodes with `plus`.
  static Result<ReaddirArgs> DecodeForProc(XdrDecoder& dec, uint32_t proc) {
    return Decode(dec, proc == static_cast<uint32_t>(NfsProc::kReaddirplus));
  }
};

struct CommitArgs {
  FileHandle file;
  uint64_t offset = 0;
  uint32_t count = 0;
  void Encode(XdrEncoder& enc) const;
  static Result<CommitArgs> Decode(XdrDecoder& dec);
};

// --- per-procedure result structs ---
// Every result starts with an nfsstat3. Error cases still carry the
// RFC-specified attributes where applicable.

struct GetattrRes {
  Nfsstat3 status = Nfsstat3::kOk;
  Fattr3 attributes;
  void Encode(XdrEncoder& enc) const;
  static Result<GetattrRes> Decode(XdrDecoder& dec);
};

struct SetattrRes {
  Nfsstat3 status = Nfsstat3::kOk;
  WccData wcc;
  void Encode(XdrEncoder& enc) const;
  static Result<SetattrRes> Decode(XdrDecoder& dec);
};

struct LookupRes {
  Nfsstat3 status = Nfsstat3::kOk;
  FileHandle object;                  // ok only
  std::optional<Fattr3> obj_attributes;
  std::optional<Fattr3> dir_attributes;
  void Encode(XdrEncoder& enc) const;
  static Result<LookupRes> Decode(XdrDecoder& dec);
};

struct AccessRes {
  Nfsstat3 status = Nfsstat3::kOk;
  std::optional<Fattr3> obj_attributes;
  uint32_t access = 0;
  void Encode(XdrEncoder& enc) const;
  static Result<AccessRes> Decode(XdrDecoder& dec);
};

struct ReadlinkRes {
  Nfsstat3 status = Nfsstat3::kOk;
  std::optional<Fattr3> symlink_attributes;
  std::string target;
  void Encode(XdrEncoder& enc) const;
  static Result<ReadlinkRes> Decode(XdrDecoder& dec);
};

// READ result whose data is a view into the decoder's buffer (the reply
// packet), valid only while that buffer lives: NfsClient::Read hands its
// callback this, and a callback that keeps the bytes copies them.
struct ReadResView {
  Nfsstat3 status = Nfsstat3::kOk;
  std::optional<Fattr3> file_attributes;
  uint32_t count = 0;
  bool eof = false;
  ByteSpan data;
  static Result<ReadResView> Decode(XdrDecoder& dec);
};

// READ result with owned data: what a caller keeps (SyncNfsClient::Read
// returns it). Decode materializes ReadResView::Decode.
struct ReadRes {
  Nfsstat3 status = Nfsstat3::kOk;
  std::optional<Fattr3> file_attributes;
  uint32_t count = 0;
  bool eof = false;
  Bytes data;
  void Encode(XdrEncoder& enc) const;
  // Encodes with the concatenation of `payload` as the data body instead of
  // `data`, so the storage node's READ path copies straight from its store's
  // pages into the reply without materializing a Bytes per request.
  // Byte-identical to Encode(enc) when the pieces join to `data`.
  void Encode(XdrEncoder& enc, std::span<const ByteSpan> payload) const;
  static Result<ReadRes> Decode(XdrDecoder& dec);
  // Copies a view's data into an owned result.
  static ReadRes Materialize(const ReadResView& view);
};

struct WriteRes {
  Nfsstat3 status = Nfsstat3::kOk;
  WccData wcc;
  uint32_t count = 0;
  StableHow committed = StableHow::kUnstable;
  uint64_t verf = 0;
  void Encode(XdrEncoder& enc) const;
  static Result<WriteRes> Decode(XdrDecoder& dec);
};

// create / mkdir / symlink share this shape.
struct CreateRes {
  Nfsstat3 status = Nfsstat3::kOk;
  std::optional<FileHandle> object;
  std::optional<Fattr3> obj_attributes;
  WccData dir_wcc;
  void Encode(XdrEncoder& enc) const;
  static Result<CreateRes> Decode(XdrDecoder& dec);
};

struct RemoveRes {
  Nfsstat3 status = Nfsstat3::kOk;
  WccData dir_wcc;
  void Encode(XdrEncoder& enc) const;
  static Result<RemoveRes> Decode(XdrDecoder& dec);
};

struct RenameRes {
  Nfsstat3 status = Nfsstat3::kOk;
  WccData from_dir_wcc;
  WccData to_dir_wcc;
  void Encode(XdrEncoder& enc) const;
  static Result<RenameRes> Decode(XdrDecoder& dec);
};

struct LinkRes {
  Nfsstat3 status = Nfsstat3::kOk;
  std::optional<Fattr3> file_attributes;
  WccData dir_wcc;
  void Encode(XdrEncoder& enc) const;
  static Result<LinkRes> Decode(XdrDecoder& dec);
};

struct ReaddirRes {
  Nfsstat3 status = Nfsstat3::kOk;
  std::optional<Fattr3> dir_attributes;
  uint64_t cookieverf = 0;
  std::vector<DirEntry> entries;
  bool eof = true;
  bool plus = false;
  void Encode(XdrEncoder& enc) const;
  static Result<ReaddirRes> Decode(XdrDecoder& dec, bool plus);
  // DecodeBody's form: READDIRPLUS entries carry attributes and handles.
  static Result<ReaddirRes> DecodeForProc(XdrDecoder& dec, uint32_t proc) {
    return Decode(dec, proc == static_cast<uint32_t>(NfsProc::kReaddirplus));
  }
};

struct FsstatRes {
  Nfsstat3 status = Nfsstat3::kOk;
  std::optional<Fattr3> obj_attributes;
  uint64_t tbytes = 0, fbytes = 0, abytes = 0;
  uint64_t tfiles = 0, ffiles = 0, afiles = 0;
  uint32_t invarsec = 0;
  void Encode(XdrEncoder& enc) const;
  static Result<FsstatRes> Decode(XdrDecoder& dec);
};

struct FsinfoRes {
  Nfsstat3 status = Nfsstat3::kOk;
  std::optional<Fattr3> obj_attributes;
  uint32_t rtmax = 32768, rtpref = 32768, rtmult = 512;
  uint32_t wtmax = 32768, wtpref = 32768, wtmult = 512;
  uint32_t dtpref = 8192;
  uint64_t maxfilesize = ~0ull;
  NfsTime time_delta{0, 1000000};
  uint32_t properties = 0x1b;
  void Encode(XdrEncoder& enc) const;
  static Result<FsinfoRes> Decode(XdrDecoder& dec);
};

struct CommitRes {
  Nfsstat3 status = Nfsstat3::kOk;
  WccData wcc;
  uint64_t verf = 0;
  void Encode(XdrEncoder& enc) const;
  static Result<CommitRes> Decode(XdrDecoder& dec);
};

// Encodes the RFC 1813 failure arm of `proc`'s result: `status` followed by
// the arm's attribute fields, all absent. Every server, and the µproxy when
// it fails a request fast, answers errors through this, so each body decodes
// through its procedure's result struct. A procedure without a result struct
// (NULL, MKNOD, PATHCONF) gets the bare status.
void EncodeNfsError(XdrEncoder& enc, NfsProc proc, Nfsstat3 status);

// The same failure body as a result value, for reply paths that take one
// (RpcServerNode's ReplyFn).
struct NfsErrorRes {
  NfsProc proc = NfsProc::kNull;
  Nfsstat3 status = Nfsstat3::kOk;
  void Encode(XdrEncoder& enc) const { EncodeNfsError(enc, proc, status); }
};

}  // namespace slice

#endif  // SLICE_NFS_NFS_XDR_H_
