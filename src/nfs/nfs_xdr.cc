#include "src/nfs/nfs_xdr.h"

namespace slice {
namespace {

void EncodeNfsTime(XdrEncoder& enc, const NfsTime& t) {
  enc.PutUint32(t.seconds);
  enc.PutUint32(t.nseconds);
}

Result<NfsTime> DecodeNfsTime(XdrDecoder& dec) {
  NfsTime t;
  SLICE_ASSIGN_OR_RETURN(t.seconds, dec.GetUint32());
  SLICE_ASSIGN_OR_RETURN(t.nseconds, dec.GetUint32());
  return t;
}

Result<Nfsstat3> DecodeStatus(XdrDecoder& dec) {
  SLICE_ASSIGN_OR_RETURN(uint32_t v, dec.GetUint32());
  return static_cast<Nfsstat3>(v);
}

void EncodeWccAttr(XdrEncoder& enc, const WccAttr& attr) {
  enc.PutUint64(attr.size);
  EncodeNfsTime(enc, attr.mtime);
  EncodeNfsTime(enc, attr.ctime);
}

Result<WccAttr> DecodeWccAttr(XdrDecoder& dec) {
  WccAttr attr;
  SLICE_ASSIGN_OR_RETURN(attr.size, dec.GetUint64());
  SLICE_ASSIGN_OR_RETURN(attr.mtime, DecodeNfsTime(dec));
  SLICE_ASSIGN_OR_RETURN(attr.ctime, DecodeNfsTime(dec));
  return attr;
}

}  // namespace

void EncodeFileHandle(XdrEncoder& enc, const FileHandle& fh) {
  enc.PutOpaqueVar(fh.bytes());
}

Result<FileHandle> DecodeFileHandle(XdrDecoder& dec) {
  // Allocation-free: length check first, then a raw view straight into the
  // packet buffer — fhandles are decoded on every hot-path request.
  SLICE_ASSIGN_OR_RETURN(uint32_t len, dec.GetUint32());
  if (len != FileHandle::kSize) {
    return Status(StatusCode::kCorrupt, "nfs: bad fhandle size");
  }
  SLICE_ASSIGN_OR_RETURN(ByteSpan raw, dec.GetRawView(len + XdrPad(len)));
  return FileHandle::FromBytes(raw.subspan(0, len));
}

void EncodeFattr3(XdrEncoder& enc, const Fattr3& attr) {
  enc.PutEnum(static_cast<uint32_t>(attr.type));
  enc.PutUint32(attr.mode);
  enc.PutUint32(attr.nlink);
  enc.PutUint32(attr.uid);
  enc.PutUint32(attr.gid);
  enc.PutUint64(attr.size);
  enc.PutUint64(attr.used);
  enc.PutUint32(attr.rdev_major);
  enc.PutUint32(attr.rdev_minor);
  enc.PutUint64(attr.fsid);
  enc.PutUint64(attr.fileid);
  EncodeNfsTime(enc, attr.atime);
  EncodeNfsTime(enc, attr.mtime);
  EncodeNfsTime(enc, attr.ctime);
}

Result<Fattr3> DecodeFattr3(XdrDecoder& dec) {
  Fattr3 attr;
  SLICE_ASSIGN_OR_RETURN(uint32_t type, dec.GetUint32());
  attr.type = static_cast<FileType3>(type);
  SLICE_ASSIGN_OR_RETURN(attr.mode, dec.GetUint32());
  SLICE_ASSIGN_OR_RETURN(attr.nlink, dec.GetUint32());
  SLICE_ASSIGN_OR_RETURN(attr.uid, dec.GetUint32());
  SLICE_ASSIGN_OR_RETURN(attr.gid, dec.GetUint32());
  SLICE_ASSIGN_OR_RETURN(attr.size, dec.GetUint64());
  SLICE_ASSIGN_OR_RETURN(attr.used, dec.GetUint64());
  SLICE_ASSIGN_OR_RETURN(attr.rdev_major, dec.GetUint32());
  SLICE_ASSIGN_OR_RETURN(attr.rdev_minor, dec.GetUint32());
  SLICE_ASSIGN_OR_RETURN(attr.fsid, dec.GetUint64());
  SLICE_ASSIGN_OR_RETURN(attr.fileid, dec.GetUint64());
  SLICE_ASSIGN_OR_RETURN(attr.atime, DecodeNfsTime(dec));
  SLICE_ASSIGN_OR_RETURN(attr.mtime, DecodeNfsTime(dec));
  SLICE_ASSIGN_OR_RETURN(attr.ctime, DecodeNfsTime(dec));
  return attr;
}

void EncodePostOpAttr(XdrEncoder& enc, const std::optional<Fattr3>& attr) {
  enc.PutBool(attr.has_value());
  if (attr.has_value()) {
    EncodeFattr3(enc, *attr);
  }
}

Result<std::optional<Fattr3>> DecodePostOpAttr(XdrDecoder& dec) {
  SLICE_ASSIGN_OR_RETURN(bool present, dec.GetBool());
  if (!present) {
    return std::optional<Fattr3>();
  }
  SLICE_ASSIGN_OR_RETURN(Fattr3 attr, DecodeFattr3(dec));
  return std::optional<Fattr3>(attr);
}

void EncodeWccData(XdrEncoder& enc, const WccData& wcc) {
  enc.PutBool(wcc.before.has_value());
  if (wcc.before.has_value()) {
    EncodeWccAttr(enc, *wcc.before);
  }
  EncodePostOpAttr(enc, wcc.after);
}

Result<WccData> DecodeWccData(XdrDecoder& dec) {
  WccData wcc;
  SLICE_ASSIGN_OR_RETURN(bool has_before, dec.GetBool());
  if (has_before) {
    SLICE_ASSIGN_OR_RETURN(WccAttr before, DecodeWccAttr(dec));
    wcc.before = before;
  }
  SLICE_ASSIGN_OR_RETURN(wcc.after, DecodePostOpAttr(dec));
  return wcc;
}

void EncodeSattr3(XdrEncoder& enc, const Sattr3& sattr) {
  auto put_opt32 = [&enc](const std::optional<uint32_t>& v) {
    enc.PutBool(v.has_value());
    if (v.has_value()) {
      enc.PutUint32(*v);
    }
  };
  put_opt32(sattr.mode);
  put_opt32(sattr.uid);
  put_opt32(sattr.gid);
  enc.PutBool(sattr.size.has_value());
  if (sattr.size.has_value()) {
    enc.PutUint64(*sattr.size);
  }
  // RFC 1813 time_how: 0 = DONT_CHANGE, 2 = SET_TO_CLIENT_TIME.
  auto put_time = [&enc](const std::optional<NfsTime>& t) {
    enc.PutEnum(t.has_value() ? 2u : 0u);
    if (t.has_value()) {
      EncodeNfsTime(enc, *t);
    }
  };
  put_time(sattr.atime);
  put_time(sattr.mtime);
}

Result<Sattr3> DecodeSattr3(XdrDecoder& dec) {
  Sattr3 sattr;
  auto get_opt32 = [&dec](std::optional<uint32_t>& out) -> Status {
    SLICE_ASSIGN_OR_RETURN(bool present, dec.GetBool());
    if (present) {
      SLICE_ASSIGN_OR_RETURN(uint32_t v, dec.GetUint32());
      out = v;
    }
    return OkStatus();
  };
  SLICE_RETURN_IF_ERROR(get_opt32(sattr.mode));
  SLICE_RETURN_IF_ERROR(get_opt32(sattr.uid));
  SLICE_RETURN_IF_ERROR(get_opt32(sattr.gid));
  {
    SLICE_ASSIGN_OR_RETURN(bool present, dec.GetBool());
    if (present) {
      SLICE_ASSIGN_OR_RETURN(uint64_t v, dec.GetUint64());
      sattr.size = v;
    }
  }
  auto get_time = [&dec](std::optional<NfsTime>& out) -> Status {
    SLICE_ASSIGN_OR_RETURN(uint32_t how, dec.GetUint32());
    if (how == 2) {
      SLICE_ASSIGN_OR_RETURN(NfsTime t, DecodeNfsTime(dec));
      out = t;
    } else if (how > 2) {
      return Status(StatusCode::kCorrupt, "nfs: bad time_how");
    }
    return OkStatus();
  };
  SLICE_RETURN_IF_ERROR(get_time(sattr.atime));
  SLICE_RETURN_IF_ERROR(get_time(sattr.mtime));
  return sattr;
}

void EncodePostOpFh(XdrEncoder& enc, const std::optional<FileHandle>& fh) {
  enc.PutBool(fh.has_value());
  if (fh.has_value()) {
    EncodeFileHandle(enc, *fh);
  }
}

Result<std::optional<FileHandle>> DecodePostOpFh(XdrDecoder& dec) {
  SLICE_ASSIGN_OR_RETURN(bool present, dec.GetBool());
  if (!present) {
    return std::optional<FileHandle>();
  }
  SLICE_ASSIGN_OR_RETURN(FileHandle fh, DecodeFileHandle(dec));
  return std::optional<FileHandle>(fh);
}

// --- arguments ---

void GetattrArgs::Encode(XdrEncoder& enc) const { EncodeFileHandle(enc, object); }

Result<GetattrArgs> GetattrArgs::Decode(XdrDecoder& dec) {
  GetattrArgs args;
  SLICE_ASSIGN_OR_RETURN(args.object, DecodeFileHandle(dec));
  return args;
}

void SetattrArgs::Encode(XdrEncoder& enc) const {
  EncodeFileHandle(enc, object);
  EncodeSattr3(enc, new_attributes);
  enc.PutBool(guard_ctime.has_value());
  if (guard_ctime.has_value()) {
    EncodeNfsTime(enc, *guard_ctime);
  }
}

Result<SetattrArgs> SetattrArgs::Decode(XdrDecoder& dec) {
  SetattrArgs args;
  SLICE_ASSIGN_OR_RETURN(args.object, DecodeFileHandle(dec));
  SLICE_ASSIGN_OR_RETURN(args.new_attributes, DecodeSattr3(dec));
  SLICE_ASSIGN_OR_RETURN(bool guarded, dec.GetBool());
  if (guarded) {
    SLICE_ASSIGN_OR_RETURN(NfsTime t, DecodeNfsTime(dec));
    args.guard_ctime = t;
  }
  return args;
}

void DirOpArgs::Encode(XdrEncoder& enc) const {
  EncodeFileHandle(enc, dir);
  enc.PutString(name);
}

Result<DirOpArgs> DirOpArgs::Decode(XdrDecoder& dec) {
  DirOpArgs args;
  SLICE_ASSIGN_OR_RETURN(args.dir, DecodeFileHandle(dec));
  SLICE_ASSIGN_OR_RETURN(args.name, dec.GetString(255));
  return args;
}

void AccessArgs::Encode(XdrEncoder& enc) const {
  EncodeFileHandle(enc, object);
  enc.PutUint32(access);
}

Result<AccessArgs> AccessArgs::Decode(XdrDecoder& dec) {
  AccessArgs args;
  SLICE_ASSIGN_OR_RETURN(args.object, DecodeFileHandle(dec));
  SLICE_ASSIGN_OR_RETURN(args.access, dec.GetUint32());
  return args;
}

void ReadArgs::Encode(XdrEncoder& enc) const {
  EncodeFileHandle(enc, file);
  enc.PutUint64(offset);
  enc.PutUint32(count);
}

Result<ReadArgs> ReadArgs::Decode(XdrDecoder& dec) {
  ReadArgs args;
  SLICE_ASSIGN_OR_RETURN(args.file, DecodeFileHandle(dec));
  SLICE_ASSIGN_OR_RETURN(args.offset, dec.GetUint64());
  SLICE_ASSIGN_OR_RETURN(args.count, dec.GetUint32());
  return args;
}

void WriteArgs::Encode(XdrEncoder& enc) const {
  WriteArgsView{file, offset, count, stable, ByteSpan(data)}.Encode(enc);
}

Result<WriteArgs> WriteArgs::Decode(XdrDecoder& dec) {
  SLICE_ASSIGN_OR_RETURN(const WriteArgsView view, WriteArgsView::Decode(dec));
  WriteArgs args;
  args.file = view.file;
  args.offset = view.offset;
  args.count = view.count;
  args.stable = view.stable;
  args.data.assign(view.data.begin(), view.data.end());
  return args;
}

void WriteArgsView::Encode(XdrEncoder& enc) const {
  EncodeFileHandle(enc, file);
  enc.PutUint64(offset);
  enc.PutUint32(count);
  enc.PutEnum(static_cast<uint32_t>(stable));
  enc.PutOpaqueVar(data);
}

Result<WriteArgsView> WriteArgsView::Decode(XdrDecoder& dec) {
  WriteArgsView args;
  SLICE_ASSIGN_OR_RETURN(args.file, DecodeFileHandle(dec));
  SLICE_ASSIGN_OR_RETURN(args.offset, dec.GetUint64());
  SLICE_ASSIGN_OR_RETURN(args.count, dec.GetUint32());
  SLICE_ASSIGN_OR_RETURN(uint32_t stable, dec.GetUint32());
  if (stable > 2) {
    return Status(StatusCode::kCorrupt, "nfs: bad stable_how");
  }
  args.stable = static_cast<StableHow>(stable);
  SLICE_ASSIGN_OR_RETURN(args.data, dec.GetOpaqueVarView(1 << 20));
  return args;
}

void CreateArgs::Encode(XdrEncoder& enc) const {
  EncodeFileHandle(enc, dir);
  enc.PutString(name);
  enc.PutEnum(static_cast<uint32_t>(mode));
  if (mode != CreateMode::kExclusive) {
    EncodeSattr3(enc, attributes);
  } else {
    enc.PutUint64(0);  // createverf3
  }
}

Result<CreateArgs> CreateArgs::Decode(XdrDecoder& dec) {
  CreateArgs args;
  SLICE_ASSIGN_OR_RETURN(args.dir, DecodeFileHandle(dec));
  SLICE_ASSIGN_OR_RETURN(args.name, dec.GetString(255));
  SLICE_ASSIGN_OR_RETURN(uint32_t mode, dec.GetUint32());
  if (mode > 2) {
    return Status(StatusCode::kCorrupt, "nfs: bad createmode");
  }
  args.mode = static_cast<CreateMode>(mode);
  if (args.mode != CreateMode::kExclusive) {
    SLICE_ASSIGN_OR_RETURN(args.attributes, DecodeSattr3(dec));
  } else {
    SLICE_ASSIGN_OR_RETURN(uint64_t verf, dec.GetUint64());
    (void)verf;
  }
  return args;
}

void MkdirArgs::Encode(XdrEncoder& enc) const {
  EncodeFileHandle(enc, dir);
  enc.PutString(name);
  EncodeSattr3(enc, attributes);
}

Result<MkdirArgs> MkdirArgs::Decode(XdrDecoder& dec) {
  MkdirArgs args;
  SLICE_ASSIGN_OR_RETURN(args.dir, DecodeFileHandle(dec));
  SLICE_ASSIGN_OR_RETURN(args.name, dec.GetString(255));
  SLICE_ASSIGN_OR_RETURN(args.attributes, DecodeSattr3(dec));
  return args;
}

void SymlinkArgs::Encode(XdrEncoder& enc) const {
  EncodeFileHandle(enc, dir);
  enc.PutString(name);
  EncodeSattr3(enc, attributes);
  enc.PutString(target);
}

Result<SymlinkArgs> SymlinkArgs::Decode(XdrDecoder& dec) {
  SymlinkArgs args;
  SLICE_ASSIGN_OR_RETURN(args.dir, DecodeFileHandle(dec));
  SLICE_ASSIGN_OR_RETURN(args.name, dec.GetString(255));
  SLICE_ASSIGN_OR_RETURN(args.attributes, DecodeSattr3(dec));
  SLICE_ASSIGN_OR_RETURN(args.target, dec.GetString(1024));
  return args;
}

void RenameArgs::Encode(XdrEncoder& enc) const {
  EncodeFileHandle(enc, from_dir);
  enc.PutString(from_name);
  EncodeFileHandle(enc, to_dir);
  enc.PutString(to_name);
}

Result<RenameArgs> RenameArgs::Decode(XdrDecoder& dec) {
  RenameArgs args;
  SLICE_ASSIGN_OR_RETURN(args.from_dir, DecodeFileHandle(dec));
  SLICE_ASSIGN_OR_RETURN(args.from_name, dec.GetString(255));
  SLICE_ASSIGN_OR_RETURN(args.to_dir, DecodeFileHandle(dec));
  SLICE_ASSIGN_OR_RETURN(args.to_name, dec.GetString(255));
  return args;
}

void LinkArgs::Encode(XdrEncoder& enc) const {
  EncodeFileHandle(enc, file);
  EncodeFileHandle(enc, dir);
  enc.PutString(name);
}

Result<LinkArgs> LinkArgs::Decode(XdrDecoder& dec) {
  LinkArgs args;
  SLICE_ASSIGN_OR_RETURN(args.file, DecodeFileHandle(dec));
  SLICE_ASSIGN_OR_RETURN(args.dir, DecodeFileHandle(dec));
  SLICE_ASSIGN_OR_RETURN(args.name, dec.GetString(255));
  return args;
}

void ReaddirArgs::Encode(XdrEncoder& enc) const {
  EncodeFileHandle(enc, dir);
  enc.PutUint64(cookie);
  enc.PutUint64(cookieverf);
  if (plus) {
    enc.PutUint32(count);     // dircount
    enc.PutUint32(maxcount);  // maxcount
  } else {
    enc.PutUint32(count);
  }
}

Result<ReaddirArgs> ReaddirArgs::Decode(XdrDecoder& dec, bool plus) {
  ReaddirArgs args;
  args.plus = plus;
  SLICE_ASSIGN_OR_RETURN(args.dir, DecodeFileHandle(dec));
  SLICE_ASSIGN_OR_RETURN(args.cookie, dec.GetUint64());
  SLICE_ASSIGN_OR_RETURN(args.cookieverf, dec.GetUint64());
  SLICE_ASSIGN_OR_RETURN(args.count, dec.GetUint32());
  if (plus) {
    SLICE_ASSIGN_OR_RETURN(args.maxcount, dec.GetUint32());
  }
  return args;
}

void CommitArgs::Encode(XdrEncoder& enc) const {
  EncodeFileHandle(enc, file);
  enc.PutUint64(offset);
  enc.PutUint32(count);
}

Result<CommitArgs> CommitArgs::Decode(XdrDecoder& dec) {
  CommitArgs args;
  SLICE_ASSIGN_OR_RETURN(args.file, DecodeFileHandle(dec));
  SLICE_ASSIGN_OR_RETURN(args.offset, dec.GetUint64());
  SLICE_ASSIGN_OR_RETURN(args.count, dec.GetUint32());
  return args;
}

// --- results ---

void GetattrRes::Encode(XdrEncoder& enc) const {
  enc.PutEnum(static_cast<uint32_t>(status));
  if (status == Nfsstat3::kOk) {
    EncodeFattr3(enc, attributes);
  }
}

Result<GetattrRes> GetattrRes::Decode(XdrDecoder& dec) {
  GetattrRes res;
  SLICE_ASSIGN_OR_RETURN(res.status, DecodeStatus(dec));
  if (res.status == Nfsstat3::kOk) {
    SLICE_ASSIGN_OR_RETURN(res.attributes, DecodeFattr3(dec));
  }
  return res;
}

void SetattrRes::Encode(XdrEncoder& enc) const {
  enc.PutEnum(static_cast<uint32_t>(status));
  EncodeWccData(enc, wcc);
}

Result<SetattrRes> SetattrRes::Decode(XdrDecoder& dec) {
  SetattrRes res;
  SLICE_ASSIGN_OR_RETURN(res.status, DecodeStatus(dec));
  SLICE_ASSIGN_OR_RETURN(res.wcc, DecodeWccData(dec));
  return res;
}

void LookupRes::Encode(XdrEncoder& enc) const {
  enc.PutEnum(static_cast<uint32_t>(status));
  if (status == Nfsstat3::kOk) {
    EncodeFileHandle(enc, object);
    EncodePostOpAttr(enc, obj_attributes);
  }
  EncodePostOpAttr(enc, dir_attributes);
}

Result<LookupRes> LookupRes::Decode(XdrDecoder& dec) {
  LookupRes res;
  SLICE_ASSIGN_OR_RETURN(res.status, DecodeStatus(dec));
  if (res.status == Nfsstat3::kOk) {
    SLICE_ASSIGN_OR_RETURN(res.object, DecodeFileHandle(dec));
    SLICE_ASSIGN_OR_RETURN(res.obj_attributes, DecodePostOpAttr(dec));
  }
  SLICE_ASSIGN_OR_RETURN(res.dir_attributes, DecodePostOpAttr(dec));
  return res;
}

void AccessRes::Encode(XdrEncoder& enc) const {
  enc.PutEnum(static_cast<uint32_t>(status));
  EncodePostOpAttr(enc, obj_attributes);
  if (status == Nfsstat3::kOk) {
    enc.PutUint32(access);
  }
}

Result<AccessRes> AccessRes::Decode(XdrDecoder& dec) {
  AccessRes res;
  SLICE_ASSIGN_OR_RETURN(res.status, DecodeStatus(dec));
  SLICE_ASSIGN_OR_RETURN(res.obj_attributes, DecodePostOpAttr(dec));
  if (res.status == Nfsstat3::kOk) {
    SLICE_ASSIGN_OR_RETURN(res.access, dec.GetUint32());
  }
  return res;
}

void ReadlinkRes::Encode(XdrEncoder& enc) const {
  enc.PutEnum(static_cast<uint32_t>(status));
  EncodePostOpAttr(enc, symlink_attributes);
  if (status == Nfsstat3::kOk) {
    enc.PutString(target);
  }
}

Result<ReadlinkRes> ReadlinkRes::Decode(XdrDecoder& dec) {
  ReadlinkRes res;
  SLICE_ASSIGN_OR_RETURN(res.status, DecodeStatus(dec));
  SLICE_ASSIGN_OR_RETURN(res.symlink_attributes, DecodePostOpAttr(dec));
  if (res.status == Nfsstat3::kOk) {
    SLICE_ASSIGN_OR_RETURN(res.target, dec.GetString(1024));
  }
  return res;
}

void ReadRes::Encode(XdrEncoder& enc) const {
  const ByteSpan whole(data);
  Encode(enc, std::span<const ByteSpan>(&whole, 1));
}

void ReadRes::Encode(XdrEncoder& enc, std::span<const ByteSpan> payload) const {
  enc.PutEnum(static_cast<uint32_t>(status));
  EncodePostOpAttr(enc, file_attributes);
  if (status == Nfsstat3::kOk) {
    enc.PutUint32(count);
    enc.PutBool(eof);
    enc.PutOpaqueVar(payload);
  }
}

Result<ReadRes> ReadRes::Decode(XdrDecoder& dec) {
  SLICE_ASSIGN_OR_RETURN(const ReadResView view, ReadResView::Decode(dec));
  return Materialize(view);
}

ReadRes ReadRes::Materialize(const ReadResView& view) {
  ReadRes res;
  res.status = view.status;
  res.file_attributes = view.file_attributes;
  res.count = view.count;
  res.eof = view.eof;
  res.data.assign(view.data.begin(), view.data.end());
  return res;
}

Result<ReadResView> ReadResView::Decode(XdrDecoder& dec) {
  ReadResView res;
  SLICE_ASSIGN_OR_RETURN(res.status, DecodeStatus(dec));
  SLICE_ASSIGN_OR_RETURN(res.file_attributes, DecodePostOpAttr(dec));
  if (res.status == Nfsstat3::kOk) {
    SLICE_ASSIGN_OR_RETURN(res.count, dec.GetUint32());
    SLICE_ASSIGN_OR_RETURN(res.eof, dec.GetBool());
    SLICE_ASSIGN_OR_RETURN(res.data, dec.GetOpaqueVarView(1 << 20));
  }
  return res;
}

void WriteRes::Encode(XdrEncoder& enc) const {
  enc.PutEnum(static_cast<uint32_t>(status));
  EncodeWccData(enc, wcc);
  if (status == Nfsstat3::kOk) {
    enc.PutUint32(count);
    enc.PutEnum(static_cast<uint32_t>(committed));
    enc.PutUint64(verf);
  }
}

Result<WriteRes> WriteRes::Decode(XdrDecoder& dec) {
  WriteRes res;
  SLICE_ASSIGN_OR_RETURN(res.status, DecodeStatus(dec));
  SLICE_ASSIGN_OR_RETURN(res.wcc, DecodeWccData(dec));
  if (res.status == Nfsstat3::kOk) {
    SLICE_ASSIGN_OR_RETURN(res.count, dec.GetUint32());
    SLICE_ASSIGN_OR_RETURN(uint32_t committed, dec.GetUint32());
    res.committed = static_cast<StableHow>(committed);
    SLICE_ASSIGN_OR_RETURN(res.verf, dec.GetUint64());
  }
  return res;
}

void CreateRes::Encode(XdrEncoder& enc) const {
  enc.PutEnum(static_cast<uint32_t>(status));
  if (status == Nfsstat3::kOk) {
    EncodePostOpFh(enc, object);
    EncodePostOpAttr(enc, obj_attributes);
  }
  EncodeWccData(enc, dir_wcc);
}

Result<CreateRes> CreateRes::Decode(XdrDecoder& dec) {
  CreateRes res;
  SLICE_ASSIGN_OR_RETURN(res.status, DecodeStatus(dec));
  if (res.status == Nfsstat3::kOk) {
    SLICE_ASSIGN_OR_RETURN(res.object, DecodePostOpFh(dec));
    SLICE_ASSIGN_OR_RETURN(res.obj_attributes, DecodePostOpAttr(dec));
  }
  SLICE_ASSIGN_OR_RETURN(res.dir_wcc, DecodeWccData(dec));
  return res;
}

void RemoveRes::Encode(XdrEncoder& enc) const {
  enc.PutEnum(static_cast<uint32_t>(status));
  EncodeWccData(enc, dir_wcc);
}

Result<RemoveRes> RemoveRes::Decode(XdrDecoder& dec) {
  RemoveRes res;
  SLICE_ASSIGN_OR_RETURN(res.status, DecodeStatus(dec));
  SLICE_ASSIGN_OR_RETURN(res.dir_wcc, DecodeWccData(dec));
  return res;
}

void RenameRes::Encode(XdrEncoder& enc) const {
  enc.PutEnum(static_cast<uint32_t>(status));
  EncodeWccData(enc, from_dir_wcc);
  EncodeWccData(enc, to_dir_wcc);
}

Result<RenameRes> RenameRes::Decode(XdrDecoder& dec) {
  RenameRes res;
  SLICE_ASSIGN_OR_RETURN(res.status, DecodeStatus(dec));
  SLICE_ASSIGN_OR_RETURN(res.from_dir_wcc, DecodeWccData(dec));
  SLICE_ASSIGN_OR_RETURN(res.to_dir_wcc, DecodeWccData(dec));
  return res;
}

void LinkRes::Encode(XdrEncoder& enc) const {
  enc.PutEnum(static_cast<uint32_t>(status));
  EncodePostOpAttr(enc, file_attributes);
  EncodeWccData(enc, dir_wcc);
}

Result<LinkRes> LinkRes::Decode(XdrDecoder& dec) {
  LinkRes res;
  SLICE_ASSIGN_OR_RETURN(res.status, DecodeStatus(dec));
  SLICE_ASSIGN_OR_RETURN(res.file_attributes, DecodePostOpAttr(dec));
  SLICE_ASSIGN_OR_RETURN(res.dir_wcc, DecodeWccData(dec));
  return res;
}

void ReaddirRes::Encode(XdrEncoder& enc) const {
  enc.PutEnum(static_cast<uint32_t>(status));
  EncodePostOpAttr(enc, dir_attributes);
  if (status != Nfsstat3::kOk) {
    return;
  }
  enc.PutUint64(cookieverf);
  for (const DirEntry& entry : entries) {
    enc.PutBool(true);
    enc.PutUint64(entry.fileid);
    enc.PutString(entry.name);
    enc.PutUint64(entry.cookie);
    if (plus) {
      EncodePostOpAttr(enc, entry.attr);
      EncodePostOpFh(enc, entry.handle);
    }
  }
  enc.PutBool(false);
  enc.PutBool(eof);
}

Result<ReaddirRes> ReaddirRes::Decode(XdrDecoder& dec, bool plus) {
  ReaddirRes res;
  res.plus = plus;
  SLICE_ASSIGN_OR_RETURN(res.status, DecodeStatus(dec));
  SLICE_ASSIGN_OR_RETURN(res.dir_attributes, DecodePostOpAttr(dec));
  if (res.status != Nfsstat3::kOk) {
    return res;
  }
  SLICE_ASSIGN_OR_RETURN(res.cookieverf, dec.GetUint64());
  // An entry takes at least 24 bytes (its list bool, fileid, empty name and
  // cookie), 32 with READDIRPLUS's two absent-value bools, so the rest of
  // the body holds at most this many.
  res.entries.reserve(dec.remaining() / (plus ? 32 : 24));
  while (true) {
    SLICE_ASSIGN_OR_RETURN(bool more, dec.GetBool());
    if (!more) {
      break;
    }
    DirEntry entry;
    SLICE_ASSIGN_OR_RETURN(entry.fileid, dec.GetUint64());
    SLICE_ASSIGN_OR_RETURN(entry.name, dec.GetString(255));
    SLICE_ASSIGN_OR_RETURN(entry.cookie, dec.GetUint64());
    if (plus) {
      SLICE_ASSIGN_OR_RETURN(entry.attr, DecodePostOpAttr(dec));
      SLICE_ASSIGN_OR_RETURN(entry.handle, DecodePostOpFh(dec));
    }
    res.entries.push_back(std::move(entry));
  }
  SLICE_ASSIGN_OR_RETURN(res.eof, dec.GetBool());
  return res;
}

void FsstatRes::Encode(XdrEncoder& enc) const {
  enc.PutEnum(static_cast<uint32_t>(status));
  EncodePostOpAttr(enc, obj_attributes);
  if (status == Nfsstat3::kOk) {
    enc.PutUint64(tbytes);
    enc.PutUint64(fbytes);
    enc.PutUint64(abytes);
    enc.PutUint64(tfiles);
    enc.PutUint64(ffiles);
    enc.PutUint64(afiles);
    enc.PutUint32(invarsec);
  }
}

Result<FsstatRes> FsstatRes::Decode(XdrDecoder& dec) {
  FsstatRes res;
  SLICE_ASSIGN_OR_RETURN(res.status, DecodeStatus(dec));
  SLICE_ASSIGN_OR_RETURN(res.obj_attributes, DecodePostOpAttr(dec));
  if (res.status == Nfsstat3::kOk) {
    SLICE_ASSIGN_OR_RETURN(res.tbytes, dec.GetUint64());
    SLICE_ASSIGN_OR_RETURN(res.fbytes, dec.GetUint64());
    SLICE_ASSIGN_OR_RETURN(res.abytes, dec.GetUint64());
    SLICE_ASSIGN_OR_RETURN(res.tfiles, dec.GetUint64());
    SLICE_ASSIGN_OR_RETURN(res.ffiles, dec.GetUint64());
    SLICE_ASSIGN_OR_RETURN(res.afiles, dec.GetUint64());
    SLICE_ASSIGN_OR_RETURN(res.invarsec, dec.GetUint32());
  }
  return res;
}

void FsinfoRes::Encode(XdrEncoder& enc) const {
  enc.PutEnum(static_cast<uint32_t>(status));
  EncodePostOpAttr(enc, obj_attributes);
  if (status == Nfsstat3::kOk) {
    enc.PutUint32(rtmax);
    enc.PutUint32(rtpref);
    enc.PutUint32(rtmult);
    enc.PutUint32(wtmax);
    enc.PutUint32(wtpref);
    enc.PutUint32(wtmult);
    enc.PutUint32(dtpref);
    enc.PutUint64(maxfilesize);
    enc.PutUint32(time_delta.seconds);
    enc.PutUint32(time_delta.nseconds);
    enc.PutUint32(properties);
  }
}

Result<FsinfoRes> FsinfoRes::Decode(XdrDecoder& dec) {
  FsinfoRes res;
  SLICE_ASSIGN_OR_RETURN(res.status, DecodeStatus(dec));
  SLICE_ASSIGN_OR_RETURN(res.obj_attributes, DecodePostOpAttr(dec));
  if (res.status == Nfsstat3::kOk) {
    SLICE_ASSIGN_OR_RETURN(res.rtmax, dec.GetUint32());
    SLICE_ASSIGN_OR_RETURN(res.rtpref, dec.GetUint32());
    SLICE_ASSIGN_OR_RETURN(res.rtmult, dec.GetUint32());
    SLICE_ASSIGN_OR_RETURN(res.wtmax, dec.GetUint32());
    SLICE_ASSIGN_OR_RETURN(res.wtpref, dec.GetUint32());
    SLICE_ASSIGN_OR_RETURN(res.wtmult, dec.GetUint32());
    SLICE_ASSIGN_OR_RETURN(res.dtpref, dec.GetUint32());
    SLICE_ASSIGN_OR_RETURN(res.maxfilesize, dec.GetUint64());
    SLICE_ASSIGN_OR_RETURN(res.time_delta.seconds, dec.GetUint32());
    SLICE_ASSIGN_OR_RETURN(res.time_delta.nseconds, dec.GetUint32());
    SLICE_ASSIGN_OR_RETURN(res.properties, dec.GetUint32());
  }
  return res;
}

void CommitRes::Encode(XdrEncoder& enc) const {
  enc.PutEnum(static_cast<uint32_t>(status));
  EncodeWccData(enc, wcc);
  if (status == Nfsstat3::kOk) {
    enc.PutUint64(verf);
  }
}

Result<CommitRes> CommitRes::Decode(XdrDecoder& dec) {
  CommitRes res;
  SLICE_ASSIGN_OR_RETURN(res.status, DecodeStatus(dec));
  SLICE_ASSIGN_OR_RETURN(res.wcc, DecodeWccData(dec));
  if (res.status == Nfsstat3::kOk) {
    SLICE_ASSIGN_OR_RETURN(res.verf, dec.GetUint64());
  }
  return res;
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
      return enc.PutEnum(static_cast<uint32_t>(status));
  }
}

}  // namespace slice
