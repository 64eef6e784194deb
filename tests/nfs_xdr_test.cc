// Unit tests for NFS types and XDR codecs: file handle layout and
// capabilities, fattr3 wire size, round-trips for every procedure's args and
// results, and error-path decoding.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/nfs/nfs_client.h"
#include "src/nfs/nfs_xdr.h"
#include "src/rpc/rpc_message.h"

namespace slice {
namespace {

constexpr uint64_t kSecret = 0x5ec7e7;

FileHandle TestFh(uint64_t fileid = 42, FileType3 type = FileType3::kReg,
                  uint8_t replication = 1) {
  return FileHandle::Make(7, fileid, 3, type, replication, kSecret);
}

Fattr3 TestAttr() {
  Fattr3 attr;
  attr.type = FileType3::kReg;
  attr.mode = 0644;
  attr.nlink = 2;
  attr.uid = 1000;
  attr.gid = 100;
  attr.size = 123456;
  attr.used = 131072;
  attr.fsid = 7;
  attr.fileid = 42;
  attr.atime = {100, 1};
  attr.mtime = {200, 2};
  attr.ctime = {300, 3};
  return attr;
}

TEST(FileHandleTest, FieldLayout) {
  FileHandle fh = FileHandle::Make(9, 0xabcdef0123ull, 5, FileType3::kDir, 2, kSecret);
  EXPECT_EQ(fh.volume(), 9u);
  EXPECT_EQ(fh.fileid(), 0xabcdef0123ull);
  EXPECT_EQ(fh.generation(), 5u);
  EXPECT_EQ(fh.type(), FileType3::kDir);
  EXPECT_TRUE(fh.IsDir());
  EXPECT_EQ(fh.replication(), 2);
}

TEST(FileHandleTest, CapabilityVerifies) {
  FileHandle fh = TestFh();
  EXPECT_TRUE(fh.VerifyCapability(kSecret));
  EXPECT_FALSE(fh.VerifyCapability(kSecret + 1));
}

TEST(FileHandleTest, TamperedHandleFailsCapability) {
  FileHandle fh = TestFh(100);
  Bytes raw(fh.bytes().begin(), fh.bytes().end());
  raw[5] ^= 0x01;  // twiddle the fileID
  FileHandle forged = FileHandle::FromBytes(raw);
  EXPECT_FALSE(forged.VerifyCapability(kSecret));
}

TEST(FileHandleTest, ZeroReplicationNormalizedToOne) {
  FileHandle fh = FileHandle::Make(1, 2, 3, FileType3::kReg, 0, kSecret);
  EXPECT_EQ(fh.replication(), 1);
}

TEST(FileHandleTest, EmptyAndEquality) {
  FileHandle fh;
  EXPECT_TRUE(fh.empty());
  EXPECT_FALSE(TestFh().empty());
  EXPECT_EQ(TestFh(), TestFh());
  EXPECT_NE(TestFh(1), TestFh(2));
}

TEST(FileHandleTest, RoundTripsThroughXdr) {
  FileHandle fh = TestFh(77);
  XdrEncoder enc;
  XdrField(enc, fh);
  EXPECT_EQ(enc.size(), 4 + FileHandle::kSize);
  XdrDecoder dec(enc.bytes());
  FileHandle out;
  XdrField(dec, out);
  EXPECT_TRUE(dec.ok());
  EXPECT_EQ(out, fh);
}

TEST(FileHandleTest, WrongSizeRejected) {
  XdrEncoder enc;
  Bytes short_handle(16, 0xaa);
  enc.PutOpaqueVar(short_handle);
  XdrDecoder dec(enc.bytes());
  FileHandle out;
  XdrField(dec, out);
  EXPECT_FALSE(dec.ok());
}

TEST(Fattr3Test, WireSizeIsFixed) {
  XdrEncoder enc;
  XdrField(enc, TestAttr());
  EXPECT_EQ(enc.size(), kFattr3WireSize);
}

TEST(Fattr3Test, RoundTrip) {
  XdrEncoder enc;
  XdrField(enc, TestAttr());
  XdrDecoder dec(enc.bytes());
  EXPECT_EQ(XdrDecode<Fattr3>(dec).value(), TestAttr());
}

TEST(Fattr3Test, PostOpAttrAbsent) {
  XdrEncoder enc;
  const std::optional<Fattr3> absent;
  XdrField(enc, absent);
  EXPECT_EQ(enc.size(), 4u);
  XdrDecoder dec(enc.bytes());
  std::optional<Fattr3> out = TestAttr();
  XdrField(dec, out);
  EXPECT_TRUE(dec.ok());
  EXPECT_FALSE(out.has_value());
}

TEST(Sattr3Test, RoundTripAllSet) {
  Sattr3 sattr;
  sattr.mode = 0600;
  sattr.uid = 5;
  sattr.gid = 6;
  sattr.size = 4096;
  sattr.atime = NfsTime{10, 0};
  sattr.mtime = NfsTime{20, 0};
  XdrEncoder enc;
  XdrField(enc, sattr);
  XdrDecoder dec(enc.bytes());
  Sattr3 out = XdrDecode<Sattr3>(dec).value();
  EXPECT_EQ(out.mode, 0600u);
  EXPECT_EQ(out.size, 4096u);
  EXPECT_EQ(out.mtime->seconds, 20u);
}

TEST(Sattr3Test, RoundTripNoneSet) {
  XdrEncoder enc;
  const Sattr3 none;
  XdrField(enc, none);
  XdrDecoder dec(enc.bytes());
  Sattr3 out = XdrDecode<Sattr3>(dec).value();
  EXPECT_FALSE(out.mode.has_value());
  EXPECT_FALSE(out.size.has_value());
  EXPECT_FALSE(out.mtime.has_value());
}

TEST(WccDataTest, RoundTrip) {
  WccData wcc;
  wcc.before = WccAttr{100, {1, 0}, {2, 0}};
  wcc.after = TestAttr();
  XdrEncoder enc;
  XdrField(enc, wcc);
  XdrDecoder dec(enc.bytes());
  WccData out = XdrDecode<WccData>(dec).value();
  EXPECT_EQ(out.before->size, 100u);
  EXPECT_EQ(*out.after, TestAttr());
}

template <typename Args>
Args RoundTripArgs(const Args& args) {
  XdrEncoder enc;
  args.Encode(enc);
  XdrDecoder dec(enc.bytes());
  Result<Args> out = Args::Decode(dec);
  EXPECT_TRUE(out.ok());
  EXPECT_TRUE(dec.exhausted());
  return *out;
}

TEST(NfsArgsTest, ReadArgsRoundTrip) {
  ReadArgs args{TestFh(), 65536, 32768};
  ReadArgs out = RoundTripArgs(args);
  EXPECT_EQ(out.file, args.file);
  EXPECT_EQ(out.offset, 65536u);
  EXPECT_EQ(out.count, 32768u);
}

TEST(NfsArgsTest, WriteArgsRoundTrip) {
  WriteArgs args;
  args.file = TestFh();
  args.offset = 8192;
  Rng rng(5);
  args.data.resize(1000);
  for (auto& b : args.data) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  args.count = 1000;
  args.stable = StableHow::kFileSync;
  WriteArgs out = RoundTripArgs(args);
  EXPECT_EQ(out.data, args.data);
  EXPECT_EQ(out.stable, StableHow::kFileSync);
}

TEST(NfsArgsTest, DirOpArgsRoundTrip) {
  DirOpArgs out = RoundTripArgs(DirOpArgs{TestFh(1, FileType3::kDir), "hello.txt"});
  EXPECT_EQ(out.name, "hello.txt");
}

TEST(NfsArgsTest, CreateArgsRoundTrip) {
  CreateArgs args;
  args.dir = TestFh(1, FileType3::kDir);
  args.name = "newfile";
  args.mode = CreateMode::kGuarded;
  args.attributes.mode = 0644;
  CreateArgs out = RoundTripArgs(args);
  EXPECT_EQ(out.name, "newfile");
  EXPECT_EQ(out.mode, CreateMode::kGuarded);
  EXPECT_EQ(out.attributes.mode, 0644u);
}

TEST(NfsArgsTest, RenameArgsRoundTrip) {
  RenameArgs args{TestFh(1, FileType3::kDir), "a", TestFh(2, FileType3::kDir), "b"};
  RenameArgs out = RoundTripArgs(args);
  EXPECT_EQ(out.from_name, "a");
  EXPECT_EQ(out.to_name, "b");
  EXPECT_EQ(out.to_dir.fileid(), 2u);
}

TEST(NfsArgsTest, LinkArgsRoundTrip) {
  LinkArgs out = RoundTripArgs(LinkArgs{TestFh(5), TestFh(1, FileType3::kDir), "hard"});
  EXPECT_EQ(out.file.fileid(), 5u);
  EXPECT_EQ(out.name, "hard");
}

TEST(NfsArgsTest, SetattrArgsWithGuard) {
  SetattrArgs args;
  args.object = TestFh();
  args.new_attributes.size = 0;
  args.guard_ctime = NfsTime{77, 0};
  SetattrArgs out = RoundTripArgs(args);
  EXPECT_EQ(out.guard_ctime->seconds, 77u);
  EXPECT_EQ(*out.new_attributes.size, 0u);
}

TEST(NfsArgsTest, CommitArgsRoundTrip) {
  CommitArgs out = RoundTripArgs(CommitArgs{TestFh(), 4096, 8192});
  EXPECT_EQ(out.offset, 4096u);
  EXPECT_EQ(out.count, 8192u);
}

TEST(NfsArgsTest, ReaddirArgsRoundTrip) {
  ReaddirArgs args;
  args.dir = TestFh(1, FileType3::kDir);
  args.cookie = 55;
  args.cookieverf = 66;
  args.count = 1234;
  XdrEncoder enc;
  args.Encode(enc);
  XdrDecoder dec(enc.bytes());
  ReaddirArgs out = ReaddirArgs::Decode(dec, /*plus=*/false).value();
  EXPECT_EQ(out.cookie, 55u);
  EXPECT_EQ(out.count, 1234u);
}

TEST(NfsArgsTest, ReaddirplusArgsCarryMaxcount) {
  ReaddirArgs args;
  args.dir = TestFh(1, FileType3::kDir);
  args.plus = true;
  args.maxcount = 9999;
  XdrEncoder enc;
  args.Encode(enc);
  XdrDecoder dec(enc.bytes());
  ReaddirArgs out = ReaddirArgs::Decode(dec, /*plus=*/true).value();
  EXPECT_EQ(out.maxcount, 9999u);
}

template <typename Res>
Res RoundTripRes(const Res& res) {
  XdrEncoder enc;
  res.Encode(enc);
  XdrDecoder dec(enc.bytes());
  Result<Res> out = Res::Decode(dec);
  EXPECT_TRUE(out.ok());
  EXPECT_TRUE(dec.exhausted());
  return *out;
}

TEST(NfsResTest, GetattrOk) {
  GetattrRes res;
  res.attributes = TestAttr();
  GetattrRes out = RoundTripRes(res);
  EXPECT_EQ(out.status, Nfsstat3::kOk);
  EXPECT_EQ(out.attributes, TestAttr());
}

TEST(NfsResTest, GetattrError) {
  GetattrRes res;
  res.status = Nfsstat3::kErrStale;
  GetattrRes out = RoundTripRes(res);
  EXPECT_EQ(out.status, Nfsstat3::kErrStale);
}

TEST(NfsResTest, LookupOkCarriesHandleAndAttrs) {
  LookupRes res;
  res.object = TestFh(9);
  res.obj_attributes = TestAttr();
  res.dir_attributes = TestAttr();
  LookupRes out = RoundTripRes(res);
  EXPECT_EQ(out.object.fileid(), 9u);
  EXPECT_TRUE(out.obj_attributes.has_value());
}

TEST(NfsResTest, LookupNoentStillCarriesDirAttrs) {
  LookupRes res;
  res.status = Nfsstat3::kErrNoent;
  res.dir_attributes = TestAttr();
  LookupRes out = RoundTripRes(res);
  EXPECT_EQ(out.status, Nfsstat3::kErrNoent);
  EXPECT_TRUE(out.dir_attributes.has_value());
}

TEST(NfsResTest, ReadOkRoundTrip) {
  ReadRes res;
  res.file_attributes = TestAttr();
  res.data = Bytes(500, 0xcd);
  res.count = 500;
  res.eof = true;
  ReadRes out = RoundTripRes(res);
  EXPECT_EQ(out.count, 500u);
  EXPECT_TRUE(out.eof);
  EXPECT_EQ(out.data, res.data);
}

TEST(NfsResTest, WriteOkRoundTrip) {
  WriteRes res;
  res.count = 8192;
  res.committed = StableHow::kUnstable;
  res.verf = 0xfeedbeef;
  res.wcc.after = TestAttr();
  WriteRes out = RoundTripRes(res);
  EXPECT_EQ(out.count, 8192u);
  EXPECT_EQ(out.verf, 0xfeedbeefull);
  EXPECT_EQ(out.committed, StableHow::kUnstable);
}

TEST(NfsResTest, CreateOkRoundTrip) {
  CreateRes res;
  res.object = TestFh(33);
  res.obj_attributes = TestAttr();
  res.dir_wcc.after = TestAttr();
  CreateRes out = RoundTripRes(res);
  EXPECT_EQ(out.object->fileid(), 33u);
}

TEST(NfsResTest, CreateExistError) {
  CreateRes res;
  res.status = Nfsstat3::kErrExist;
  CreateRes out = RoundTripRes(res);
  EXPECT_EQ(out.status, Nfsstat3::kErrExist);
  EXPECT_FALSE(out.object.has_value());
}

TEST(NfsResTest, RenameRoundTrip) {
  RenameRes res;
  res.from_dir_wcc.after = TestAttr();
  res.to_dir_wcc.after = TestAttr();
  RenameRes out = RoundTripRes(res);
  EXPECT_TRUE(out.from_dir_wcc.after.has_value());
  EXPECT_TRUE(out.to_dir_wcc.after.has_value());
}

TEST(NfsResTest, ReaddirRoundTrip) {
  ReaddirRes res;
  res.dir_attributes = TestAttr();
  res.cookieverf = 99;
  for (uint64_t i = 1; i <= 10; ++i) {
    DirEntry e;
    e.fileid = i;
    e.name = "entry" + std::to_string(i);
    e.cookie = i;
    res.entries.push_back(e);
  }
  res.eof = false;

  XdrEncoder enc;
  res.Encode(enc);
  XdrDecoder dec(enc.bytes());
  ReaddirRes out = ReaddirRes::Decode(dec, /*plus=*/false).value();
  ASSERT_EQ(out.entries.size(), 10u);
  EXPECT_EQ(out.entries[4].name, "entry5");
  EXPECT_FALSE(out.eof);
}

TEST(NfsResTest, ReaddirplusCarriesAttrsAndHandles) {
  ReaddirRes res;
  res.plus = true;
  DirEntry e;
  e.fileid = 3;
  e.name = "plusentry";
  e.cookie = 1;
  e.attr = TestAttr();
  e.handle = TestFh(3);
  res.entries.push_back(e);

  XdrEncoder enc;
  res.Encode(enc);
  XdrDecoder dec(enc.bytes());
  ReaddirRes out = ReaddirRes::Decode(dec, /*plus=*/true).value();
  ASSERT_EQ(out.entries.size(), 1u);
  EXPECT_TRUE(out.entries[0].attr.has_value());
  EXPECT_EQ(out.entries[0].handle->fileid(), 3u);
}

TEST(NfsResTest, FsstatRoundTrip) {
  FsstatRes res;
  res.obj_attributes = TestAttr();
  res.tbytes = 1ull << 40;
  res.fbytes = 1ull << 39;
  FsstatRes out = RoundTripRes(res);
  EXPECT_EQ(out.tbytes, 1ull << 40);
}

TEST(NfsResTest, FsinfoRoundTrip) {
  FsinfoRes res;
  res.obj_attributes = TestAttr();
  res.rtmax = 32768;
  FsinfoRes out = RoundTripRes(res);
  EXPECT_EQ(out.rtmax, 32768u);
  EXPECT_EQ(out.properties, 0x1bu);
}

TEST(NfsResTest, CommitRoundTrip) {
  CommitRes res;
  res.verf = 0x1234;
  res.wcc.after = TestAttr();
  CommitRes out = RoundTripRes(res);
  EXPECT_EQ(out.verf, 0x1234ull);
}

TEST(NfsResTest, TruncatedResultIsCorrupt) {
  ReadRes res;
  res.file_attributes = TestAttr();
  res.data = Bytes(100, 1);
  res.count = 100;
  XdrEncoder enc;
  res.Encode(enc);
  XdrDecoder dec(ByteSpan(enc.bytes().data(), enc.size() - 60));
  EXPECT_FALSE(ReadRes::Decode(dec).ok());
}

// Decodes EncodeNfsError's body for `proc` through `decode` (the result
// struct's Decode): the failure arm must carry the status and nothing more.
template <typename Decode>
void ExpectFailureArmDecodes(NfsProc proc, Decode decode) {
  XdrEncoder enc;
  EncodeNfsError(enc, proc, Nfsstat3::kErrJukebox);
  XdrDecoder dec(enc.bytes());
  const auto res = decode(dec);
  ASSERT_TRUE(res.ok()) << NfsProcName(proc) << ": " << res.status().ToString();
  EXPECT_EQ(res->status, Nfsstat3::kErrJukebox) << NfsProcName(proc);
  EXPECT_TRUE(dec.exhausted()) << NfsProcName(proc);
}

TEST(NfsResTest, ErrorBodyDecodesThroughEveryResultStruct) {
  ExpectFailureArmDecodes(NfsProc::kGetattr, GetattrRes::Decode);
  ExpectFailureArmDecodes(NfsProc::kSetattr, SetattrRes::Decode);
  ExpectFailureArmDecodes(NfsProc::kLookup, LookupRes::Decode);
  ExpectFailureArmDecodes(NfsProc::kAccess, AccessRes::Decode);
  ExpectFailureArmDecodes(NfsProc::kReadlink, ReadlinkRes::Decode);
  ExpectFailureArmDecodes(NfsProc::kRead, ReadRes::Decode);
  ExpectFailureArmDecodes(NfsProc::kWrite, WriteRes::Decode);
  for (NfsProc proc : {NfsProc::kCreate, NfsProc::kMkdir, NfsProc::kSymlink}) {
    ExpectFailureArmDecodes(proc, CreateRes::Decode);
  }
  for (NfsProc proc : {NfsProc::kRemove, NfsProc::kRmdir}) {
    ExpectFailureArmDecodes(proc, RemoveRes::Decode);
  }
  ExpectFailureArmDecodes(NfsProc::kRename, RenameRes::Decode);
  ExpectFailureArmDecodes(NfsProc::kLink, LinkRes::Decode);
  ExpectFailureArmDecodes(NfsProc::kReaddir,
                          [](XdrDecoder& dec) { return ReaddirRes::Decode(dec, false); });
  ExpectFailureArmDecodes(NfsProc::kReaddirplus,
                          [](XdrDecoder& dec) { return ReaddirRes::Decode(dec, true); });
  ExpectFailureArmDecodes(NfsProc::kFsstat, FsstatRes::Decode);
  ExpectFailureArmDecodes(NfsProc::kFsinfo, FsinfoRes::Decode);
  ExpectFailureArmDecodes(NfsProc::kCommit, CommitRes::Decode);
}

TEST(NfsProcTest, NamesAreStable) {
  EXPECT_STREQ(NfsProcName(NfsProc::kLookup), "lookup");
  EXPECT_STREQ(NfsProcName(NfsProc::kReaddirplus), "readdirplus");
  EXPECT_STREQ(NfsProcName(NfsProc::kCommit), "commit");
}


// NfsClient::Write encodes the caller's span straight into the call's frame
// (WriteArgsView::Encode); the bytes it sends must equal RpcCall::Encode of
// the materialized WriteArgs.
TEST(NfsClientWireTest, WriteCallBytesEqualRpcCallEncode) {
  constexpr NetAddr kClientAddr = 0x0a000001;
  constexpr NetAddr kServerAddr = 0x0a000010;
  EventQueue queue;
  Network net(queue, NetworkParams{});
  Host sink(net, kServerAddr);
  std::vector<Bytes> seen;
  sink.Bind(2049, [&seen](Packet&& pkt) {
    seen.emplace_back(pkt.payload().begin(), pkt.payload().end());
  });
  Host client_host(net, kClientAddr);
  NfsClient client(client_host, queue, Endpoint{kServerAddr, 2049});

  Bytes data(32768);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 13 + 1);
  }
  client.Write(TestFh(), 1 << 20, data, StableHow::kFileSync, [](Status, const WriteRes&) {});
  queue.RunUntil(FromMillis(1));

  WriteArgs args;
  args.file = TestFh();
  args.offset = 1 << 20;
  args.count = static_cast<uint32_t>(data.size());
  args.stable = StableHow::kFileSync;
  args.data = data;
  XdrEncoder enc;
  args.Encode(enc);
  RpcCall call;
  call.xid = 1;
  call.prog = kNfsProgram;
  call.vers = kNfsVersion;
  call.proc = static_cast<uint32_t>(NfsProc::kWrite);
  call.cred.machine_name = "host" + std::to_string(kClientAddr & 0xff);
  call.cred.gids = {0, 5};
  call.args = enc.Take();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], call.Encode());
}

}  // namespace
}  // namespace slice
