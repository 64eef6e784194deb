// XDR (RFC 4506) encoder and decoder, the wire encoding beneath ONC RPC and
// NFSv3. Everything is big-endian and 4-byte aligned; variable-length opaques
// and strings carry a length word and are zero-padded to a 4-byte boundary.
#ifndef SLICE_XDR_XDR_H_
#define SLICE_XDR_XDR_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/status.h"

namespace slice {

class XdrEncoder {
 public:
  XdrEncoder() = default;
  // Appends after whatever `buf` already holds. Every RPC message is encoded
  // this way, straight into a pooled packet frame (Packet::AcquireFrame)
  // whose leading bytes are reserved for the headers the packet builder
  // writes later; bytes() and size() cover the whole buffer, reserved bytes
  // included.
  explicit XdrEncoder(Bytes buf) : buf_(std::move(buf)) {}

  void PutUint32(uint32_t v) { AppendU32(buf_, v); }
  void PutInt32(int32_t v) { PutUint32(static_cast<uint32_t>(v)); }
  void PutUint64(uint64_t v) { AppendU64(buf_, v); }
  void PutInt64(int64_t v) { PutUint64(static_cast<uint64_t>(v)); }
  void PutBool(bool v) { PutUint32(v ? 1 : 0); }
  void PutEnum(uint32_t v) { PutUint32(v); }

  // Fixed-length opaque: raw bytes padded to 4-byte alignment.
  void PutOpaqueFixed(ByteSpan data);
  // Variable-length opaque: length word + bytes + padding.
  void PutOpaqueVar(ByteSpan data);
  // The same opaque gathered from pieces (their concatenation is the body),
  // so a caller holding scattered buffers encodes them without joining them
  // first.
  void PutOpaqueVar(std::span<const ByteSpan> pieces);
  // Appends pre-encoded XDR verbatim — no length word, no padding (the RPC
  // client's cached credential).
  void PutRawBytes(ByteSpan data) { buf_.insert(buf_.end(), data.begin(), data.end()); }
  void PutString(std::string_view s) {
    PutOpaqueVar(ByteSpan(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
  }

  const Bytes& bytes() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

  // Empties the buffer but keeps its capacity, so a long-lived encoder (the
  // µproxy's attr-patch scratch) reaches a steady state with no allocations.
  void Clear() { buf_.clear(); }

 private:
  Bytes buf_;
};

class XdrDecoder {
 public:
  explicit XdrDecoder(ByteSpan data) : data_(data) {}

  Result<uint32_t> GetUint32();
  Result<int32_t> GetInt32() {
    SLICE_ASSIGN_OR_RETURN(uint32_t v, GetUint32());
    return static_cast<int32_t>(v);
  }
  Result<uint64_t> GetUint64();
  Result<int64_t> GetInt64() {
    SLICE_ASSIGN_OR_RETURN(uint64_t v, GetUint64());
    return static_cast<int64_t>(v);
  }
  Result<bool> GetBool();

  // Fixed-length opaque of `len` bytes (consumes padding).
  Result<Bytes> GetOpaqueFixed(size_t len);
  // Variable-length opaque with a sanity cap on the length word.
  Result<Bytes> GetOpaqueVar(size_t max_len = 1 << 22);
  // The same opaque as a view into the underlying buffer, valid only while
  // that buffer lives (zero-copy WRITE decode).
  Result<ByteSpan> GetOpaqueVarView(size_t max_len = 1 << 22);
  Result<std::string> GetString(size_t max_len = 4096);
  // Zero-copy string read: a view into the underlying buffer, valid only
  // while that buffer lives. The single-pass decode path uses this to avoid
  // materializing file names it may never route on.
  Result<std::string_view> GetStringView(size_t max_len = 4096);

  // Consumes `n` raw (already padded) bytes without copying, returning a view
  // into the underlying buffer. Used by zero-copy READ/WRITE paths.
  Result<ByteSpan> GetRawView(size_t n);

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  Status Need(size_t n) {
    if (remaining() < n) {
      return Status(StatusCode::kCorrupt, "xdr: short buffer");
    }
    return OkStatus();
  }

  ByteSpan data_;
  size_t pos_ = 0;
};

// Padding needed to align `n` bytes up to a 4-byte boundary.
inline size_t XdrPad(size_t n) { return (4 - (n & 3)) & 3; }

}  // namespace slice

#endif  // SLICE_XDR_XDR_H_
