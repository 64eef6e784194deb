// Canonical values of every wire struct in src/nfs, src/coord and src/mgmt:
// each result's OK and error arms, each optional both present and absent,
// READDIR and READDIRPLUS with entries. ForEachWireSample hands each one to
// a visitor with its name and the procedure it decodes under, so a single
// list drives the codec round-trip, wire-pin and fuzz tests.
// ForEachLogRecordSample does the same for the eleven write-ahead-log
// record kinds of the dir server, coordinator and small-file server.
#ifndef SLICE_TESTS_WIRE_SAMPLES_H_
#define SLICE_TESTS_WIRE_SAMPLES_H_

#include <cstdint>

#include "src/coord/coord_proto.h"
#include "src/coord/coordinator.h"
#include "src/dir/dir_server.h"
#include "src/mgmt/mgmt_proto.h"
#include "src/nfs/nfs_xdr.h"
#include "src/sfs/small_file_server.h"

namespace slice::wire_samples {

inline constexpr uint64_t kSecret = 0x5a3f1e;

inline FileHandle Fh(uint64_t fileid, FileType3 type = FileType3::kReg, uint8_t replication = 1) {
  return FileHandle::Make(3, fileid, 7, type, replication, kSecret);
}

inline Fattr3 Attr(uint64_t fileid, FileType3 type = FileType3::kReg) {
  Fattr3 attr;
  attr.type = type;
  attr.mode = type == FileType3::kDir ? 0755 : 0640;
  attr.nlink = 3;
  attr.uid = 1001;
  attr.gid = 100;
  attr.size = 70000 + fileid;
  attr.used = 73728;
  attr.rdev_major = 8;
  attr.rdev_minor = 1;
  attr.fsid = 3;
  attr.fileid = fileid;
  attr.atime = {1000, 11};
  attr.mtime = {2000, 22};
  attr.ctime = {3000, 33};
  return attr;
}

inline Sattr3 AllSet() {
  Sattr3 s;
  s.mode = 0600;
  s.uid = 5;
  s.gid = 6;
  s.size = 12345;
  s.atime = NfsTime{10, 100};
  s.mtime = NfsTime{20, 200};
  return s;
}

inline Sattr3 ModeOnly() {
  Sattr3 s;
  s.mode = 0755;
  return s;
}

inline WccData FullWcc(uint64_t fileid) {
  WccData wcc;
  wcc.before = WccAttr{4096, {40, 4}, {50, 5}};
  wcc.after = Attr(fileid, FileType3::kDir);
  return wcc;
}

inline const Bytes& Payload() {
  static const Bytes data = [] {
    Bytes d(37);  // odd length: the opaque carries padding
    for (size_t i = 0; i < d.size(); ++i) {
      d[i] = static_cast<uint8_t>(0x31 + 7 * i);
    }
    return d;
  }();
  return data;
}

inline std::vector<DirEntry> Entries(bool plus) {
  std::vector<DirEntry> entries;
  for (uint64_t i = 0; i < 3; ++i) {
    DirEntry e;
    e.fileid = 500 + i;
    e.name = std::string(1 + 4 * i, static_cast<char>('a' + i));
    e.cookie = 9000 + i;
    if (plus && i != 1) {  // entry 1 keeps both READDIRPLUS extras absent
      e.attr = Attr(e.fileid);
      e.handle = Fh(e.fileid);
    }
    if (plus && i == 2) {
      e.handle.reset();  // attributes without a handle
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

constexpr uint32_t kAnyProc = 0;
constexpr uint32_t kReaddirProc = static_cast<uint32_t>(NfsProc::kReaddir);
constexpr uint32_t kReaddirplusProc = static_cast<uint32_t>(NfsProc::kReaddirplus);

// Calls `visit(name, proc, value)` for every sample, `value` a const ref of
// the sample's own wire type; `proc` is what DecodeBody takes for it.
template <typename Visit>
void ForEachWireSample(Visit&& visit) {
  // --- NFS arguments ---
  visit("GetattrArgs", kAnyProc, GetattrArgs{Fh(11)});
  {
    SetattrArgs a;
    a.object = Fh(12);
    a.new_attributes = AllSet();
    a.guard_ctime = NfsTime{77, 7};
    visit("SetattrArgs/all+guard", kAnyProc, a);
    a.new_attributes = Sattr3{};
    a.guard_ctime.reset();
    visit("SetattrArgs/none", kAnyProc, a);
  }
  visit("DirOpArgs", kAnyProc, DirOpArgs{Fh(1, FileType3::kDir), "hello.txt"});
  {
    AccessArgs a;
    a.object = Fh(13);
    a.access = 0x1f;
    visit("AccessArgs", kAnyProc, a);
  }
  visit("ReadArgs", kAnyProc, ReadArgs{Fh(14), 65536, 32768});
  {
    WriteArgs a;
    a.file = Fh(15);
    a.offset = 8192;
    a.count = static_cast<uint32_t>(Payload().size());
    a.stable = StableHow::kDataSync;
    a.data = Payload();
    visit("WriteArgs", kAnyProc, a);
    visit("WriteArgsView", kAnyProc,
          WriteArgsView{a.file, a.offset, a.count, StableHow::kFileSync, ByteSpan(Payload())});
  }
  {
    CreateArgs a;
    a.dir = Fh(1, FileType3::kDir);
    a.name = "newfile";
    a.mode = CreateMode::kGuarded;
    a.attributes = AllSet();
    visit("CreateArgs/guarded", kAnyProc, a);
    a.mode = CreateMode::kExclusive;
    a.attributes = Sattr3{};
    visit("CreateArgs/exclusive", kAnyProc, a);
  }
  {
    MkdirArgs a;
    a.dir = Fh(1, FileType3::kDir);
    a.name = "subdir";
    a.attributes = ModeOnly();
    visit("MkdirArgs", kAnyProc, a);
  }
  {
    SymlinkArgs a;
    a.dir = Fh(1, FileType3::kDir);
    a.name = "ln";
    a.attributes = ModeOnly();
    a.target = "../some/target/path";
    visit("SymlinkArgs", kAnyProc, a);
  }
  visit("RenameArgs", kAnyProc,
        RenameArgs{Fh(1, FileType3::kDir), "from", Fh(2, FileType3::kDir), "to-name"});
  visit("LinkArgs", kAnyProc, LinkArgs{Fh(16), Fh(1, FileType3::kDir), "hard"});
  {
    ReaddirArgs a;
    a.dir = Fh(1, FileType3::kDir);
    a.cookie = 55;
    a.cookieverf = 66;
    a.count = 1234;
    visit("ReaddirArgs", kReaddirProc, a);
    a.plus = true;
    a.maxcount = 9999;
    visit("ReaddirArgs/plus", kReaddirplusProc, a);
  }
  visit("CommitArgs", kAnyProc, CommitArgs{Fh(17), 4096, 8192});

  // --- NFS results ---
  {
    GetattrRes r;
    r.attributes = Attr(21);
    visit("GetattrRes/ok", kAnyProc, r);
    r.status = Nfsstat3::kErrStale;
    visit("GetattrRes/err", kAnyProc, r);
  }
  {
    SetattrRes r;
    r.wcc = FullWcc(22);
    visit("SetattrRes/ok", kAnyProc, r);
    r.status = Nfsstat3::kErrPerm;
    r.wcc = WccData{};
    visit("SetattrRes/err", kAnyProc, r);
  }
  {
    LookupRes r;
    r.object = Fh(23);
    r.obj_attributes = Attr(23);
    r.dir_attributes = Attr(1, FileType3::kDir);
    visit("LookupRes/ok", kAnyProc, r);
    r.obj_attributes.reset();
    r.dir_attributes.reset();
    visit("LookupRes/ok-bare", kAnyProc, r);
    LookupRes e;
    e.status = Nfsstat3::kErrNoent;
    e.dir_attributes = Attr(1, FileType3::kDir);
    visit("LookupRes/err", kAnyProc, e);
  }
  {
    AccessRes r;
    r.obj_attributes = Attr(24);
    r.access = 0x1b;
    visit("AccessRes/ok", kAnyProc, r);
    r.status = Nfsstat3::kErrAcces;
    r.obj_attributes.reset();
    visit("AccessRes/err", kAnyProc, r);
  }
  {
    ReadlinkRes r;
    r.symlink_attributes = Attr(25, FileType3::kLnk);
    r.target = "/abs/target";
    visit("ReadlinkRes/ok", kAnyProc, r);
    r.status = Nfsstat3::kErrInval;
    r.symlink_attributes.reset();
    visit("ReadlinkRes/err", kAnyProc, r);
  }
  {
    ReadRes r;
    r.file_attributes = Attr(26);
    r.count = static_cast<uint32_t>(Payload().size());
    r.eof = true;
    r.data = Payload();
    visit("ReadRes/ok", kAnyProc, r);
    r.file_attributes.reset();
    r.eof = false;
    visit("ReadRes/ok-noattr", kAnyProc, r);
    ReadRes e;
    e.status = Nfsstat3::kErrIo;
    e.file_attributes = Attr(26);
    visit("ReadRes/err", kAnyProc, e);
  }
  {
    WriteRes r;
    r.wcc = FullWcc(27);
    r.count = 8192;
    r.committed = StableHow::kFileSync;
    r.verf = 0xfeedface12345678ull;
    visit("WriteRes/ok", kAnyProc, r);
    r.status = Nfsstat3::kErrNospc;
    visit("WriteRes/err", kAnyProc, r);
  }
  {
    CreateRes r;
    r.object = Fh(28);
    r.obj_attributes = Attr(28);
    r.dir_wcc = FullWcc(1);
    visit("CreateRes/ok", kAnyProc, r);
    r.object.reset();
    r.obj_attributes.reset();
    visit("CreateRes/ok-bare", kAnyProc, r);
    CreateRes e;
    e.status = Nfsstat3::kErrExist;
    e.dir_wcc.after = Attr(1, FileType3::kDir);
    visit("CreateRes/err", kAnyProc, e);
  }
  {
    RemoveRes r;
    r.dir_wcc = FullWcc(1);
    visit("RemoveRes/ok", kAnyProc, r);
    r.status = Nfsstat3::kErrNotempty;
    r.dir_wcc = WccData{};
    visit("RemoveRes/err", kAnyProc, r);
  }
  {
    RenameRes r;
    r.from_dir_wcc = FullWcc(1);
    r.to_dir_wcc = FullWcc(2);
    visit("RenameRes/ok", kAnyProc, r);
    r.status = Nfsstat3::kErrXdev;
    r.to_dir_wcc = WccData{};
    visit("RenameRes/err", kAnyProc, r);
  }
  {
    LinkRes r;
    r.file_attributes = Attr(29);
    r.dir_wcc = FullWcc(1);
    visit("LinkRes/ok", kAnyProc, r);
    r.status = Nfsstat3::kErrMlink;
    r.file_attributes.reset();
    visit("LinkRes/err", kAnyProc, r);
  }
  {
    ReaddirRes r;
    r.dir_attributes = Attr(1, FileType3::kDir);
    r.cookieverf = 0x1122334455667788ull;
    r.entries = Entries(false);
    r.eof = false;
    visit("ReaddirRes/ok", kReaddirProc, r);
    r.plus = true;
    r.entries = Entries(true);
    r.eof = true;
    visit("ReaddirRes/plus", kReaddirplusProc, r);
    ReaddirRes empty;
    visit("ReaddirRes/empty", kReaddirProc, empty);
    ReaddirRes e;
    e.status = Nfsstat3::kErrBadCookie;
    e.dir_attributes = Attr(1, FileType3::kDir);
    visit("ReaddirRes/err", kReaddirplusProc, e);
  }
  {
    FsstatRes r;
    r.obj_attributes = Attr(1, FileType3::kDir);
    r.tbytes = 1ull << 40;
    r.fbytes = 1ull << 39;
    r.abytes = 1ull << 38;
    r.tfiles = 1000000;
    r.ffiles = 900000;
    r.afiles = 800000;
    r.invarsec = 30;
    visit("FsstatRes/ok", kAnyProc, r);
    r.status = Nfsstat3::kErrIo;
    r.obj_attributes.reset();
    visit("FsstatRes/err", kAnyProc, r);
  }
  {
    FsinfoRes r;
    r.obj_attributes = Attr(1, FileType3::kDir);
    r.rtmax = 65536;
    r.dtpref = 4096;
    r.maxfilesize = 1ull << 50;
    r.time_delta = NfsTime{0, 1000};
    visit("FsinfoRes/ok", kAnyProc, r);
    r.status = Nfsstat3::kErrServerfault;
    visit("FsinfoRes/err", kAnyProc, r);
  }
  {
    CommitRes r;
    r.wcc = FullWcc(30);
    r.verf = 0xabcdef;
    visit("CommitRes/ok", kAnyProc, r);
    r.status = Nfsstat3::kErrJukebox;
    visit("CommitRes/err", kAnyProc, r);
  }

  // --- coordinator protocol ---
  {
    LogIntentArgs a;
    a.op = IntentOp::kTruncate;
    a.file = Fh(31);
    a.arg = 12345;
    visit("LogIntentArgs", kAnyProc, a);
    a.op = IntentOp::kMirrorWrite;
    a.arg = 0;
    visit("LogIntentArgs/mirror", kAnyProc, a);
  }
  {
    LogIntentRes r;
    r.intent_id = 42;
    visit("LogIntentRes", kAnyProc, r);
  }
  {
    CompleteArgs a;
    a.intent_id = 43;
    visit("CompleteArgs", kAnyProc, a);
  }
  {
    CompleteRes r;
    visit("CompleteRes", kAnyProc, r);
    r.acknowledged = false;
    visit("CompleteRes/nack", kAnyProc, r);
  }
  {
    GetMapArgs a;
    a.file = Fh(32, FileType3::kReg, 2);
    a.first_block = 3;
    a.count = 4;
    a.allocate = true;
    visit("GetMapArgs", kAnyProc, a);
  }
  {
    GetMapRes r;
    r.first_block = 7;
    r.sites = {0, 1, 2, kUnmappedBlock};
    visit("GetMapRes", kAnyProc, r);
    r.sites.clear();
    visit("GetMapRes/empty", kAnyProc, r);
  }
  visit("DegradedArgs", kAnyProc, DegradedArgs{Fh(33, FileType3::kReg, 2), 65536, 32768, 3});
  {
    DegradedRes r;
    r.acknowledged = false;
    visit("DegradedRes", kAnyProc, r);
  }

  // --- ensemble manager protocol ---
  {
    HeartbeatArgs a;
    a.node_class = NodeClass::kSfs;
    a.index = 2;
    a.known_epoch = 9;
    visit("HeartbeatArgs", kAnyProc, a);
  }
  {
    HeartbeatRes r;
    r.current_epoch = 10;
    visit("HeartbeatRes", kAnyProc, r);
  }
  {
    MgmtTableSet t;
    t.epoch = 17;
    t.dir_servers = {{0x0a000100, 2049}, {0x0a000101, 2049}};
    t.dir_slots = {0, 1, 0, 0};
    t.dir_alive = {1, 0};
    t.sfs_servers = {{0x0a000200, 2049}};
    t.sfs_slots = {0, 0};
    t.sfs_alive = {1};
    t.storage_alive = {1, 1, 0, 1};
    visit("MgmtTableSet", kAnyProc, t);
    visit("MgmtTableSet/empty", kAnyProc, MgmtTableSet{});
  }
}

// Calls `visit(name, op, record)` for every write-ahead-log record kind:
// `op` is the tag the record is appended behind, `record` a const ref of
// the struct its replay decodes.
template <typename Visit>
void ForEachLogRecordSample(Visit&& visit) {
  using Dir = DirServer;
  visit("dir/InsertEntry", Dir::LogOp::kInsertEntry,
        Dir::InsertEntryRecord{1, "entry-name", Fh(41)});
  visit("dir/EraseEntry", Dir::LogOp::kEraseEntry, Dir::EraseEntryRecord{1, "entry-name"});
  visit("dir/UpsertAttr", Dir::LogOp::kUpsertAttr,
        Dir::UpsertAttrRecord{42, Attr(42, FileType3::kLnk), "../link/target"});
  visit("dir/EraseAttr", Dir::LogOp::kEraseAttr, Dir::EraseAttrRecord{42});

  using Coord = Coordinator;
  visit("coord/Intent", Coord::LogOp::kIntent,
        Coord::IntentRecord{5, LogIntentArgs{IntentOp::kCommit, Fh(43), 77}});
  visit("coord/Complete", Coord::LogOp::kComplete, CompleteArgs{5});
  visit("coord/MapAssign", Coord::LogOp::kMapAssign, Coord::MapAssignRecord{43, 6, 1});
  visit("coord/Degraded", Coord::LogOp::kDegraded,
        DegradedArgs{Fh(44, FileType3::kReg, 2), 32768, 8192, 1});
  visit("coord/Repaired", Coord::LogOp::kRepaired,
        DegradedArgs{Fh(44, FileType3::kReg, 2), 32768, 8192, 1});

  using Sfs = SmallFileServer;
  using Extents = std::vector<Sfs::BlockExtent>;
  visit("sfs/UpsertMap", Sfs::LogOp::kUpsertMap,
        Sfs::MapUpsertRecord<Extents>{45, 9000, Extents{{{0, 8192}, 8192}, {{8192, 1024}, 808}}});
  visit("sfs/RemoveMap", Sfs::LogOp::kRemoveMap, Sfs::MapRemoveRecord{45});
}

}  // namespace slice::wire_samples

#endif  // SLICE_TESTS_WIRE_SAMPLES_H_
