// Wire protocol for the ensemble control plane (paper §4): heartbeats from
// every server to the manager, epoch-stamped routing-table distribution, and
// the one-way control messages the manager/servers send to µproxies (eager
// table pushes and stale-epoch misdirect notices).
#ifndef SLICE_MGMT_MGMT_PROTO_H_
#define SLICE_MGMT_MGMT_PROTO_H_

#include <vector>

#include "src/common/status.h"
#include "src/net/packet.h"
#include "src/xdr/xdr.h"

namespace slice {

constexpr uint32_t kMgmtProgram = 400100;
constexpr uint32_t kMgmtVersion = 1;
// RPC port of the ensemble manager.
constexpr NetPort kMgmtPort = 2050;
// Control port on each client host where the µproxy receives one-way table
// pushes and misdirect notices.
constexpr NetPort kMgmtClientPort = 2051;

enum class MgmtProc : uint32_t {
  kNull = 0,
  kHeartbeat = 1,
  kFetchTables = 2,
};

enum class NodeClass : uint32_t {
  kStorage = 0,
  kDir = 1,
  kSfs = 2,
  kCoord = 3,
  // Client hosts are not supervised (no heartbeats, no tables) but chaos
  // scenarios address them through the same (class, index) coordinates.
  kClient = 4,
};

// Stable identity of a supervised node: (class, index within class).
inline uint64_t NodeId(NodeClass cls, uint32_t index) {
  return (static_cast<uint64_t>(cls) << 32) | index;
}
inline NodeClass NodeIdClass(uint64_t id) {
  return static_cast<NodeClass>(id >> 32);
}
inline uint32_t NodeIdIndex(uint64_t id) {
  return static_cast<uint32_t>(id);
}

struct HeartbeatArgs {
  NodeClass node_class = NodeClass::kStorage;
  uint32_t index = 0;
  uint64_t known_epoch = 0;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.node_class, NodeClass::kStorage, NodeClass::kCoord);
    XdrField(io, s.index);
    XdrField(io, s.known_epoch);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<HeartbeatArgs> Decode(XdrDecoder& dec) { return XdrDecode<HeartbeatArgs>(dec); }
};

struct HeartbeatRes {
  uint64_t current_epoch = 0;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.current_epoch);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  static Result<HeartbeatRes> Decode(XdrDecoder& dec) { return XdrDecode<HeartbeatRes>(dec); }
};

// An endpoint on the wire: its address, then its port widened to a word.
void XdrField(XdrEncoder& enc, const Endpoint& ep);
void XdrField(XdrDecoder& dec, Endpoint& ep);
// Liveness bits: a counted array of at most 4,096 XDR bools, a byte each in
// memory.
void XdrAliveList(XdrEncoder& enc, const std::vector<uint8_t>& alive);
void XdrAliveList(XdrDecoder& dec, std::vector<uint8_t>& alive);

// The manager's complete epoch-stamped view: slot assignments for the
// directory and small-file classes plus liveness bits for every class.
// Small-file slots keep their identity binding across failures (the
// replacement server would not have the file state); µproxies use the alive
// bits to fail such requests fast instead of silently misrouting them.
struct MgmtTableSet {
  uint64_t epoch = 0;
  std::vector<Endpoint> dir_servers;
  std::vector<uint32_t> dir_slots;
  std::vector<uint8_t> dir_alive;
  std::vector<Endpoint> sfs_servers;
  std::vector<uint32_t> sfs_slots;
  std::vector<uint8_t> sfs_alive;
  std::vector<uint8_t> storage_alive;

  template <class Io, class S>
  static void Xdr(Io& io, S& s) {
    XdrField(io, s.epoch);
    XdrField(io, s.dir_servers, 4096);
    XdrField(io, s.dir_slots, 65536);
    XdrAliveList(io, s.dir_alive);
    XdrField(io, s.sfs_servers, 4096);
    XdrField(io, s.sfs_slots, 65536);
    XdrAliveList(io, s.sfs_alive);
    XdrAliveList(io, s.storage_alive);
  }
  void Encode(XdrEncoder& enc) const { Xdr(enc, *this); }
  // The field list, then a check that every slot names a listed server.
  static Result<MgmtTableSet> Decode(XdrDecoder& dec);
};

// One-way control messages, distinguished by a leading magic word.
constexpr uint32_t kTablePushMagic = 0x534c4350;  // "SLCP"
constexpr uint32_t kMisdirectMagic = 0x534c434d;  // "SLCM"

Bytes EncodeTablePush(const MgmtTableSet& tables);
Bytes EncodeMisdirectNotice(uint64_t epoch);

}  // namespace slice

#endif  // SLICE_MGMT_MGMT_PROTO_H_
