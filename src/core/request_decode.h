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

// Single-pass, allocation-free decode of an NFS call from a UDP payload:
// the RPC header through DecodeRpcMessage, then the routing fields of the
// args. Returns kCorrupt for non-NFS-call traffic, and for calls whose
// header does not decode (the µproxy passes both through untouched).
Status DecodeNfsRequestView(ByteSpan payload, DecodedView* out);

}  // namespace slice

#endif  // SLICE_CORE_REQUEST_DECODE_H_
