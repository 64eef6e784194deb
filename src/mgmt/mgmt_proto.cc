#include "src/mgmt/mgmt_proto.h"

#include <algorithm>

namespace slice {

void XdrField(XdrEncoder& enc, const Endpoint& ep) {
  enc.PutUint32(ep.addr);
  enc.PutUint32(ep.port);
}

void XdrField(XdrDecoder& dec, Endpoint& ep) {
  uint32_t port = 0;
  XdrField(dec, ep.addr);
  XdrField(dec, port);
  if (dec.ok()) {
    ep.port = static_cast<NetPort>(port);
  }
}

void XdrAliveList(XdrEncoder& enc, const std::vector<uint8_t>& alive) {
  enc.PutUint32(static_cast<uint32_t>(alive.size()));
  for (uint8_t bit : alive) {
    enc.PutBool(bit != 0);
  }
}

void XdrAliveList(XdrDecoder& dec, std::vector<uint8_t>& alive) {
  uint32_t n = 0;
  XdrField(dec, n);
  if (n > 4096) {
    dec.Fail("mgmt: oversized liveness list");
  }
  if (!dec.ok()) {
    return;
  }
  alive.reserve(n);
  for (uint32_t i = 0; i < n && dec.ok(); ++i) {
    bool bit = false;
    XdrField(dec, bit);
    alive.push_back(bit ? 1 : 0);
  }
}

Result<MgmtTableSet> MgmtTableSet::Decode(XdrDecoder& dec) {
  Result<MgmtTableSet> t = XdrDecode<MgmtTableSet>(dec);
  if (!t.ok()) {
    return t;
  }
  const auto names_a_server = [](const std::vector<uint32_t>& slots, size_t servers) {
    return std::all_of(slots.begin(), slots.end(), [servers](uint32_t s) { return s < servers; });
  };
  if (!names_a_server(t->dir_slots, t->dir_servers.size()) ||
      !names_a_server(t->sfs_slots, t->sfs_servers.size())) {
    return Status(StatusCode::kCorrupt, "mgmt: slot out of range");
  }
  return t;
}

Bytes EncodeTablePush(const MgmtTableSet& tables) {
  XdrEncoder enc;
  enc.PutUint32(kTablePushMagic);
  tables.Encode(enc);
  return enc.Take();
}

Bytes EncodeMisdirectNotice(uint64_t epoch) {
  XdrEncoder enc;
  enc.PutUint32(kMisdirectMagic);
  enc.PutUint64(epoch);
  return enc.Take();
}

}  // namespace slice
