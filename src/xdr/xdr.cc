#include "src/xdr/xdr.h"

namespace slice {

void XdrEncoder::PutOpaqueFixed(ByteSpan data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
  const size_t pad = XdrPad(data.size());
  buf_.insert(buf_.end(), pad, 0);
}

void XdrEncoder::PutOpaqueVar(ByteSpan data) {
  PutOpaqueVar(std::span<const ByteSpan>(&data, 1));
}

void XdrEncoder::PutOpaqueVar(std::span<const ByteSpan> pieces) {
  size_t len = 0;
  for (ByteSpan piece : pieces) {
    len += piece.size();
  }
  // The buffer grows at most once, not piece by piece with a copy per step
  // (a READ reply gathers its data from 8 KB pages). A frame that outgrows
  // its pooled buffer keeps the pool's tail slack for the trace trailer.
  const size_t end = buf_.size() + 4 + len + XdrPad(len);
  if (end > buf_.capacity()) {
    buf_.reserve(end + kPacketTailSlack);
  }
  PutUint32(static_cast<uint32_t>(len));
  for (ByteSpan piece : pieces) {
    buf_.insert(buf_.end(), piece.begin(), piece.end());
  }
  buf_.insert(buf_.end(), XdrPad(len), 0);
}

Status XdrDecoder::status() const {
  return ok() ? OkStatus() : Status(StatusCode::kCorrupt, error_);
}

void XdrField(XdrDecoder& dec, bool& v) {
  uint32_t word = 0;
  XdrField(dec, word);
  if (word > 1) {
    dec.Fail("xdr: bad bool");
  }
  if (dec.ok()) {
    v = word == 1;
  }
}

void XdrField(XdrDecoder& dec, ByteSpan& v, size_t max) {
  uint32_t len = 0;
  XdrField(dec, len);
  if (len > max) {
    dec.Fail("xdr: opaque too long");
  }
  if (const uint8_t* p = dec.Take(len + XdrPad(len)); p != nullptr) {
    v = ByteSpan(p, len);
  }
}

void XdrField(XdrDecoder& dec, std::string_view& v, size_t max) {
  ByteSpan view;
  XdrField(dec, view, max);
  if (dec.ok()) {
    v = std::string_view(reinterpret_cast<const char*>(view.data()), view.size());
  }
}

void XdrField(XdrDecoder& dec, std::string& v, size_t max) {
  std::string_view view;
  XdrField(dec, view, max);
  if (dec.ok()) {
    v.assign(view);
  }
}

void XdrField(XdrDecoder& dec, Bytes& v, size_t max) {
  ByteSpan view;
  XdrField(dec, view, max);
  if (dec.ok()) {
    v.assign(view.begin(), view.end());
  }
}

}  // namespace slice
