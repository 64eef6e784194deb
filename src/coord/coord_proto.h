// Wire protocol between µproxies and block-service coordinators (paper
// §2.2/§3.3.2/§4.2): intention logging for multi-site atomicity, completion
// notifications, and per-file block-map fetch for dynamic I/O placement.
#ifndef SLICE_COORD_COORD_PROTO_H_
#define SLICE_COORD_COORD_PROTO_H_

#include <vector>

#include "src/nfs/nfs_xdr.h"

namespace slice {

constexpr uint32_t kCoordProgram = 395620;
constexpr uint32_t kCoordVersion = 1;

enum class CoordProc : uint32_t {
  kNull = 0,
  kLogIntent = 1,
  kComplete = 2,
  kGetMap = 3,
  kLogDegraded = 4,
};

// What the in-flight multi-site operation is; recovery re-executes it
// idempotently if the µproxy dies before completing.
enum class IntentOp : uint32_t {
  kRemove = 1,        // remove file data on all storage sites
  kTruncate = 2,      // truncate file data to `arg` bytes on all sites
  kCommit = 3,        // make unstable writes durable on all sites
  kMirrorWrite = 4,   // mirrored writes in flight; recovery forces a commit
};

struct LogIntentArgs {
  IntentOp op = IntentOp::kRemove;
  FileHandle file;
  uint64_t arg = 0;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.op, IntentOp::kRemove, IntentOp::kMirrorWrite);
    XdrField(io, s.file);
    XdrField(io, s.arg);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<LogIntentArgs> Decode(XdrDecoder& dec) { return XdrDecode<LogIntentArgs>(dec); }
};

struct LogIntentRes {
  uint64_t intent_id = 0;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.intent_id);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<LogIntentRes> Decode(XdrDecoder& dec) { return XdrDecode<LogIntentRes>(dec); }
};

struct CompleteArgs {
  uint64_t intent_id = 0;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.intent_id);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<CompleteArgs> Decode(XdrDecoder& dec) { return XdrDecode<CompleteArgs>(dec); }
};

struct CompleteRes {
  bool acknowledged = true;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.acknowledged);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<CompleteRes> Decode(XdrDecoder& dec) { return XdrDecode<CompleteRes>(dec); }
};

struct GetMapArgs {
  FileHandle file;
  uint64_t first_block = 0;
  uint32_t count = 0;
  bool allocate = false;  // assign placements for unmapped blocks (writes)

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.file);
    XdrField(io, s.first_block);
    XdrField(io, s.count);
    XdrField(io, s.allocate);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<GetMapArgs> Decode(XdrDecoder& dec) { return XdrDecode<GetMapArgs>(dec); }
};

struct GetMapRes {
  uint64_t first_block = 0;
  // Storage-node index per block; 0xffffffff = unmapped (read of a hole).
  std::vector<uint32_t> sites;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.first_block);
    XdrField(io, s.sites, 65536);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<GetMapRes> Decode(XdrDecoder& dec) { return XdrDecode<GetMapRes>(dec); }
};

// A mirrored write that could not reach a (dead) replica: the µproxy reports
// the missing region so the coordinator can resync it from a surviving
// replica when the node rejoins.
struct DegradedArgs {
  FileHandle file;
  uint64_t offset = 0;
  uint32_t count = 0;
  uint32_t node = 0;  // storage node missing the data

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.file);
    XdrField(io, s.offset);
    XdrField(io, s.count);
    XdrField(io, s.node);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<DegradedArgs> Decode(XdrDecoder& dec) { return XdrDecode<DegradedArgs>(dec); }
};

struct DegradedRes {
  bool acknowledged = true;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.acknowledged);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<DegradedRes> Decode(XdrDecoder& dec) { return XdrDecode<DegradedRes>(dec); }
};

constexpr uint32_t kUnmappedBlock = 0xffffffff;

}  // namespace slice

#endif  // SLICE_COORD_COORD_PROTO_H_
