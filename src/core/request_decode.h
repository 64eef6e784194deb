// The µproxy's packet-decode stage: walks the ONC RPC header (including the
// variable-length credential the paper blames for most of the decode cost,
// Table 3) and extracts exactly the fields request routing needs — request
// type, file handles, name components, offset/count (paper §3: "the µproxy
// examines up to four fields of each request").
#ifndef SLICE_CORE_REQUEST_DECODE_H_
#define SLICE_CORE_REQUEST_DECODE_H_

#include <string_view>

#include "src/nfs/nfs_xdr.h"
#include "src/rpc/rpc_message.h"

namespace slice {

// Single-pass decode result, cached on the packet (Packet::set_view) after
// the µproxy's first walk of the RPC/NFS headers so the rewrite, soft-state,
// trace and metrics stages reuse offsets instead of re-parsing. Trivially
// copyable by design: names are stored as (offset, length) into the UDP
// payload, materialized lazily via name()/name2(). The struct must stay
// within Packet::kViewSlotCap bytes, and the offsets are only meaningful
// against the exact payload the view was decoded from — any mutation that
// moves payload bytes invalidates it (the packet's mutators clear the slot).
struct DecodedView {
  uint32_t xid = 0;
  NfsProc proc = NfsProc::kNull;
  StableHow stable = StableHow::kUnstable;
  uint8_t has_fh = 0;
  // Primary handle: the target file for I/O and attribute ops, the parent
  // directory for name ops. Secondary handle: rename target dir / link file.
  FileHandle fh;
  FileHandle fh2;
  // Name components as payload offsets (zero-copy; kLookup etc.).
  uint32_t name_off = 0;
  uint32_t name_len = 0;
  uint32_t name2_off = 0;
  uint32_t name2_len = 0;
  // I/O fields.
  uint64_t offset = 0;
  uint32_t count = 0;
  uint32_t body_offset = 0;  // procedure body within the RPC payload
  // Tenant tag lifted from the AUTH_SYS uid (0 = untenanted).
  uint32_t tenant = 0;

  std::string_view name(ByteSpan payload) const {
    return std::string_view(reinterpret_cast<const char*>(payload.data()) + name_off, name_len);
  }
  std::string_view name2(ByteSpan payload) const {
    return std::string_view(reinterpret_cast<const char*>(payload.data()) + name2_off,
                            name2_len);
  }
};

// Tag for Packet::set_view/get_view slots carrying a DecodedView.
constexpr uint32_t kDecodedViewTag = 0x44563031;  // "DV01"

// Single-pass, allocation-free decode of an NFS call from a UDP payload.
// Returns kCorrupt for non-NFS-call traffic (which the µproxy passes
// through untouched).
Status DecodeNfsRequestView(ByteSpan payload, DecodedView* out);

// Reply-side peek: (xid, accept_stat, body offset) for attribute patching.
struct DecodedReply {
  uint32_t xid = 0;
  RpcAcceptStat stat = RpcAcceptStat::kSuccess;
  size_t body_offset = 0;
};

Status DecodeNfsReply(ByteSpan payload, DecodedReply* out);

// Cache-fill peek at a successful LOOKUP reply: the child handle plus its
// post-op attributes when the server included them. Allocation-free and
// trivially copyable, like DecodedView. `nfs_status` is the raw nfsstat3;
// fh/attr are only meaningful when it is 0 (NFS3_OK).
struct LookupReplyView {
  uint32_t xid = 0;
  uint32_t nfs_status = 0;
  FileHandle fh;
  uint8_t has_attr = 0;
  Fattr3 attr;
};

Status DecodeLookupReplyView(ByteSpan payload, LookupReplyView* out);

// Cache-fill peek at a GETATTR reply (status + full attribute set).
struct GetattrReplyView {
  uint32_t xid = 0;
  uint32_t nfs_status = 0;
  Fattr3 attr;
};

Status DecodeGetattrReplyView(ByteSpan payload, GetattrReplyView* out);

}  // namespace slice

#endif  // SLICE_CORE_REQUEST_DECODE_H_
