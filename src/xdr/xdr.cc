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

Result<uint32_t> XdrDecoder::GetUint32() {
  SLICE_RETURN_IF_ERROR(Need(4));
  const uint32_t v = GetU32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

Result<uint64_t> XdrDecoder::GetUint64() {
  SLICE_RETURN_IF_ERROR(Need(8));
  const uint64_t v = GetU64(data_.data() + pos_);
  pos_ += 8;
  return v;
}

Result<bool> XdrDecoder::GetBool() {
  SLICE_ASSIGN_OR_RETURN(uint32_t v, GetUint32());
  if (v > 1) {
    return Status(StatusCode::kCorrupt, "xdr: bad bool");
  }
  return v == 1;
}

Result<Bytes> XdrDecoder::GetOpaqueFixed(size_t len) {
  const size_t padded = len + XdrPad(len);
  SLICE_RETURN_IF_ERROR(Need(padded));
  Bytes out(data_.begin() + static_cast<ptrdiff_t>(pos_),
            data_.begin() + static_cast<ptrdiff_t>(pos_ + len));
  pos_ += padded;
  return out;
}

Result<Bytes> XdrDecoder::GetOpaqueVar(size_t max_len) {
  SLICE_ASSIGN_OR_RETURN(ByteSpan view, GetOpaqueVarView(max_len));
  return Bytes(view.begin(), view.end());
}

Result<ByteSpan> XdrDecoder::GetOpaqueVarView(size_t max_len) {
  SLICE_ASSIGN_OR_RETURN(uint32_t len, GetUint32());
  if (len > max_len) {
    return Status(StatusCode::kCorrupt, "xdr: opaque too long");
  }
  SLICE_ASSIGN_OR_RETURN(ByteSpan padded, GetRawView(len + XdrPad(len)));
  return padded.first(len);
}

Result<std::string> XdrDecoder::GetString(size_t max_len) {
  SLICE_ASSIGN_OR_RETURN(std::string_view view, GetStringView(max_len));
  return std::string(view);
}

Result<std::string_view> XdrDecoder::GetStringView(size_t max_len) {
  SLICE_ASSIGN_OR_RETURN(uint32_t len, GetUint32());
  if (len > max_len) {
    return Status(StatusCode::kCorrupt, "xdr: string too long");
  }
  const size_t padded = len + XdrPad(len);
  SLICE_RETURN_IF_ERROR(Need(padded));
  std::string_view view(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += padded;
  return view;
}

Result<ByteSpan> XdrDecoder::GetRawView(size_t n) {
  SLICE_RETURN_IF_ERROR(Need(n));
  ByteSpan view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

}  // namespace slice
