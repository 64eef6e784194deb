// XDR codecs for NFSv3 procedure arguments and results (RFC 1813 wire
// layout). Every request and result is a plain struct whose layout is one
// field list, its static `Xdr` (src/xdr/xdr.h): Encode runs the list over
// an encoder, Decode over a decoder. The µproxy, servers, and client
// library all share these.
#ifndef SLICE_NFS_NFS_XDR_H_
#define SLICE_NFS_NFS_XDR_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/nfs/nfs_types.h"
#include "src/xdr/xdr.h"

namespace slice {

// --- per-procedure argument structs ---

struct GetattrArgs {
  FileHandle object;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.object);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<GetattrArgs> Decode(XdrDecoder& dec) { return XdrDecode<GetattrArgs>(dec); }
};

struct SetattrArgs {
  FileHandle object;
  Sattr3 new_attributes;
  std::optional<NfsTime> guard_ctime;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.object);
    XdrField(io, s.new_attributes);
    XdrField(io, s.guard_ctime);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<SetattrArgs> Decode(XdrDecoder& dec) { return XdrDecode<SetattrArgs>(dec); }
};

// lookup / create-style (dir, name) arguments.
struct DirOpArgs {
  FileHandle dir;
  std::string name;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.dir);
    XdrField(io, s.name, kNfsMaxName);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<DirOpArgs> Decode(XdrDecoder& dec) { return XdrDecode<DirOpArgs>(dec); }
};

struct AccessArgs {
  FileHandle object;
  uint32_t access = 0x3f;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.object);
    XdrField(io, s.access);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<AccessArgs> Decode(XdrDecoder& dec) { return XdrDecode<AccessArgs>(dec); }
};

struct ReadArgs {
  FileHandle file;
  uint64_t offset = 0;
  uint32_t count = 0;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.file);
    XdrField(io, s.offset);
    XdrField(io, s.count);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<ReadArgs> Decode(XdrDecoder& dec) { return XdrDecode<ReadArgs>(dec); }
};

// WRITE args over their data's type. WriteArgs owns the data. WriteArgsView
// views it: the decoder's buffer (the request packet) after Decode, so a
// server that applies the write before its handler returns copies the data
// once, into its own store; the caller's buffer when encoding, so
// NfsClient::Write encodes the caller's span straight into the call's frame.
template <class Data>
struct BasicWriteArgs {
  FileHandle file;
  uint64_t offset = 0;
  uint32_t count = 0;
  StableHow stable = StableHow::kUnstable;
  Data data{};

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.file);
    XdrField(io, s.offset);
    XdrField(io, s.count);
    XdrField(io, s.stable, StableHow::kUnstable, StableHow::kFileSync);
    XdrField(io, s.data, kNfsMaxData);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<BasicWriteArgs> Decode(XdrDecoder& dec) { return XdrDecode<BasicWriteArgs>(dec); }
};
using WriteArgs = BasicWriteArgs<Bytes>;
using WriteArgsView = BasicWriteArgs<ByteSpan>;

struct CreateArgs {
  FileHandle dir;
  std::string name;
  CreateMode mode = CreateMode::kUnchecked;
  Sattr3 attributes;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.dir);
    XdrField(io, s.name, kNfsMaxName);
    XdrField(io, s.mode, CreateMode::kUnchecked, CreateMode::kExclusive);
    if (s.mode != CreateMode::kExclusive) {
      XdrField(io, s.attributes);
    } else {
      uint64_t verf = 0;  // createverf3: sent as zero, not kept
      XdrField(io, verf);
    }
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<CreateArgs> Decode(XdrDecoder& dec) { return XdrDecode<CreateArgs>(dec); }
};

struct MkdirArgs {
  FileHandle dir;
  std::string name;
  Sattr3 attributes;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.dir);
    XdrField(io, s.name, kNfsMaxName);
    XdrField(io, s.attributes);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<MkdirArgs> Decode(XdrDecoder& dec) { return XdrDecode<MkdirArgs>(dec); }
};

struct SymlinkArgs {
  FileHandle dir;
  std::string name;
  Sattr3 attributes;
  std::string target;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.dir);
    XdrField(io, s.name, kNfsMaxName);
    XdrField(io, s.attributes);
    XdrField(io, s.target, kNfsMaxPath);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<SymlinkArgs> Decode(XdrDecoder& dec) { return XdrDecode<SymlinkArgs>(dec); }
};

struct RenameArgs {
  FileHandle from_dir;
  std::string from_name;
  FileHandle to_dir;
  std::string to_name;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.from_dir);
    XdrField(io, s.from_name, kNfsMaxName);
    XdrField(io, s.to_dir);
    XdrField(io, s.to_name, kNfsMaxName);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<RenameArgs> Decode(XdrDecoder& dec) { return XdrDecode<RenameArgs>(dec); }
};

struct LinkArgs {
  FileHandle file;
  FileHandle dir;
  std::string name;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.file);
    XdrField(io, s.dir);
    XdrField(io, s.name, kNfsMaxName);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<LinkArgs> Decode(XdrDecoder& dec) { return XdrDecode<LinkArgs>(dec); }
};

struct ReaddirArgs {
  FileHandle dir;
  uint64_t cookie = 0;
  uint64_t cookieverf = 0;
  uint32_t count = 4096;  // READDIRPLUS's dircount
  bool plus = false;      // READDIRPLUS (adds maxcount on the wire)
  uint32_t maxcount = 8192;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.dir);
    XdrField(io, s.cookie);
    XdrField(io, s.cookieverf);
    XdrField(io, s.count);
    if (s.plus) {
      XdrField(io, s.maxcount);
    }
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<ReaddirArgs> Decode(XdrDecoder& dec, bool plus) {
    ReaddirArgs args;
    args.plus = plus;
    return XdrDecode(dec, std::move(args));
  }
  // DecodeBody's form: READDIRPLUS decodes with `plus`.
  static Result<ReaddirArgs> DecodeForProc(XdrDecoder& dec, uint32_t proc) {
    return Decode(dec, proc == static_cast<uint32_t>(NfsProc::kReaddirplus));
  }
};

struct CommitArgs {
  FileHandle file;
  uint64_t offset = 0;
  uint32_t count = 0;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.file);
    XdrField(io, s.offset);
    XdrField(io, s.count);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<CommitArgs> Decode(XdrDecoder& dec) { return XdrDecode<CommitArgs>(dec); }
};

// --- per-procedure result structs ---
// Every result starts with an nfsstat3. Error cases still carry the
// RFC-specified attributes where applicable.

struct GetattrRes {
  Nfsstat3 status = Nfsstat3::kOk;
  Fattr3 attributes;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.status);
    if (s.status == Nfsstat3::kOk) {
      XdrField(io, s.attributes);
    }
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<GetattrRes> Decode(XdrDecoder& dec) { return XdrDecode<GetattrRes>(dec); }
};

struct SetattrRes {
  Nfsstat3 status = Nfsstat3::kOk;
  WccData wcc;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.status);
    XdrField(io, s.wcc);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<SetattrRes> Decode(XdrDecoder& dec) { return XdrDecode<SetattrRes>(dec); }
};

struct LookupRes {
  Nfsstat3 status = Nfsstat3::kOk;
  FileHandle object;                  // ok only
  std::optional<Fattr3> obj_attributes;
  std::optional<Fattr3> dir_attributes;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.status);
    if (s.status == Nfsstat3::kOk) {
      XdrField(io, s.object);
      XdrField(io, s.obj_attributes);
    }
    XdrField(io, s.dir_attributes);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<LookupRes> Decode(XdrDecoder& dec) { return XdrDecode<LookupRes>(dec); }
};

struct AccessRes {
  Nfsstat3 status = Nfsstat3::kOk;
  std::optional<Fattr3> obj_attributes;
  uint32_t access = 0;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.status);
    XdrField(io, s.obj_attributes);
    if (s.status == Nfsstat3::kOk) {
      XdrField(io, s.access);
    }
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<AccessRes> Decode(XdrDecoder& dec) { return XdrDecode<AccessRes>(dec); }
};

struct ReadlinkRes {
  Nfsstat3 status = Nfsstat3::kOk;
  std::optional<Fattr3> symlink_attributes;
  std::string target;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.status);
    XdrField(io, s.symlink_attributes);
    if (s.status == Nfsstat3::kOk) {
      XdrField(io, s.target, kNfsMaxPath);
    }
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<ReadlinkRes> Decode(XdrDecoder& dec) { return XdrDecode<ReadlinkRes>(dec); }
};

// READ result over its data's type. ReadRes owns the data: what a caller
// keeps (SyncNfsClient::Read returns it). ReadResView views the decoder's
// buffer (the reply packet) and is valid only while that buffer lives:
// NfsClient::Read hands its callback this, and a callback that keeps the
// bytes copies them. ReadResPieces encodes its data gathered from pieces,
// so a server copies straight from its store's pages into the reply.
template <class Data>
struct BasicReadRes {
  Nfsstat3 status = Nfsstat3::kOk;
  std::optional<Fattr3> file_attributes;
  uint32_t count = 0;
  bool eof = false;
  Data data{};

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.status);
    XdrField(io, s.file_attributes);
    if (s.status == Nfsstat3::kOk) {
      XdrField(io, s.count);
      XdrField(io, s.eof);
      XdrField(io, s.data, kNfsMaxData);
    }
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<BasicReadRes> Decode(XdrDecoder& dec) { return XdrDecode<BasicReadRes>(dec); }
};
using ReadRes = BasicReadRes<Bytes>;
using ReadResView = BasicReadRes<ByteSpan>;
using ReadResPieces = BasicReadRes<std::span<const ByteSpan>>;

struct WriteRes {
  Nfsstat3 status = Nfsstat3::kOk;
  WccData wcc;
  uint32_t count = 0;
  StableHow committed = StableHow::kUnstable;
  uint64_t verf = 0;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.status);
    XdrField(io, s.wcc);
    if (s.status == Nfsstat3::kOk) {
      XdrField(io, s.count);
      XdrField(io, s.committed);
      XdrField(io, s.verf);
    }
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<WriteRes> Decode(XdrDecoder& dec) { return XdrDecode<WriteRes>(dec); }
};

// create / mkdir / symlink share this shape.
struct CreateRes {
  Nfsstat3 status = Nfsstat3::kOk;
  std::optional<FileHandle> object;
  std::optional<Fattr3> obj_attributes;
  WccData dir_wcc;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.status);
    if (s.status == Nfsstat3::kOk) {
      XdrField(io, s.object);
      XdrField(io, s.obj_attributes);
    }
    XdrField(io, s.dir_wcc);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<CreateRes> Decode(XdrDecoder& dec) { return XdrDecode<CreateRes>(dec); }
};

struct RemoveRes {
  Nfsstat3 status = Nfsstat3::kOk;
  WccData dir_wcc;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.status);
    XdrField(io, s.dir_wcc);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<RemoveRes> Decode(XdrDecoder& dec) { return XdrDecode<RemoveRes>(dec); }
};

struct RenameRes {
  Nfsstat3 status = Nfsstat3::kOk;
  WccData from_dir_wcc;
  WccData to_dir_wcc;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.status);
    XdrField(io, s.from_dir_wcc);
    XdrField(io, s.to_dir_wcc);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<RenameRes> Decode(XdrDecoder& dec) { return XdrDecode<RenameRes>(dec); }
};

struct LinkRes {
  Nfsstat3 status = Nfsstat3::kOk;
  std::optional<Fattr3> file_attributes;
  WccData dir_wcc;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.status);
    XdrField(io, s.file_attributes);
    XdrField(io, s.dir_wcc);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<LinkRes> Decode(XdrDecoder& dec) { return XdrDecode<LinkRes>(dec); }
};

// READDIR's entry chain (RFC 1813 dirlist3): each entry (entryplus3 with
// `plus`) behind a true, the chain closed by a false.
void XdrEntries(XdrEncoder& enc, const std::vector<DirEntry>& entries, bool plus);
void XdrEntries(XdrDecoder& dec, std::vector<DirEntry>& entries, bool plus);

struct ReaddirRes {
  Nfsstat3 status = Nfsstat3::kOk;
  std::optional<Fattr3> dir_attributes;
  uint64_t cookieverf = 0;
  std::vector<DirEntry> entries;
  bool eof = true;
  bool plus = false;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.status);
    XdrField(io, s.dir_attributes);
    if (s.status == Nfsstat3::kOk) {
      XdrField(io, s.cookieverf);
      XdrEntries(io, s.entries, s.plus);
      XdrField(io, s.eof);
    }
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<ReaddirRes> Decode(XdrDecoder& dec, bool plus) {
    ReaddirRes res;
    res.plus = plus;
    return XdrDecode(dec, std::move(res));
  }
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

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.status);
    XdrField(io, s.obj_attributes);
    if (s.status == Nfsstat3::kOk) {
      XdrField(io, s.tbytes);
      XdrField(io, s.fbytes);
      XdrField(io, s.abytes);
      XdrField(io, s.tfiles);
      XdrField(io, s.ffiles);
      XdrField(io, s.afiles);
      XdrField(io, s.invarsec);
    }
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<FsstatRes> Decode(XdrDecoder& dec) { return XdrDecode<FsstatRes>(dec); }
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

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.status);
    XdrField(io, s.obj_attributes);
    if (s.status == Nfsstat3::kOk) {
      XdrField(io, s.rtmax);
      XdrField(io, s.rtpref);
      XdrField(io, s.rtmult);
      XdrField(io, s.wtmax);
      XdrField(io, s.wtpref);
      XdrField(io, s.wtmult);
      XdrField(io, s.dtpref);
      XdrField(io, s.maxfilesize);
      XdrField(io, s.time_delta);
      XdrField(io, s.properties);
    }
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<FsinfoRes> Decode(XdrDecoder& dec) { return XdrDecode<FsinfoRes>(dec); }
};

struct CommitRes {
  Nfsstat3 status = Nfsstat3::kOk;
  WccData wcc;
  uint64_t verf = 0;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.status);
    XdrField(io, s.wcc);
    if (s.status == Nfsstat3::kOk) {
      XdrField(io, s.verf);
    }
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<CommitRes> Decode(XdrDecoder& dec) { return XdrDecode<CommitRes>(dec); }
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
