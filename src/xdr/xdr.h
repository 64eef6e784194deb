// XDR (RFC 4506) encoder and decoder, the wire encoding beneath ONC RPC and
// NFSv3. Everything is big-endian and 4-byte aligned; variable-length opaques
// and strings carry a length word and are zero-padded to a 4-byte boundary.
//
// Every wire struct states its layout once, as a field list:
//
//   template <class Io, class S>
//   static void Xdr(Io& io, S& s) {
//     XdrField(io, s.file);       // a FileHandle
//     XdrField(io, s.offset);     // a uint64_t
//     XdrField(io, s.name, 255);  // a string of at most 255 bytes
//   }
//
// Run over an XdrEncoder and a const value, the list encodes the value; run
// over an XdrDecoder and a mutable one, it decodes into it. This is the shape
// of rpcgen's `xdr_foo(XDR*, foo*)` filters, whose handle's x_op picks the
// direction. Each wire type has one XdrField overload pair below (src/nfs
// adds the file handle's). A result's arm such as `if (s.status ==
// Nfsstat3::kOk)` reads the same both ways, because the status is decoded
// before the arm tests it. Decoding is sticky: the first failed read is kept
// and every later read does nothing, so XdrDecode checks ok() once at the
// end. A struct's Encode/Decode members forward to its list.
#ifndef SLICE_XDR_XDR_H_
#define SLICE_XDR_XDR_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

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
  void PutUint64(uint64_t v) { AppendU64(buf_, v); }
  void PutBool(bool v) { PutUint32(v ? 1 : 0); }

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

  // The next `n` bytes, or null when fewer are left, which fails the decode.
  // After a failure every take returns null, so every later field read
  // does nothing. The XdrField overloads below read through this.
  const uint8_t* Take(size_t n) {
    if (remaining() < n || error_ != nullptr) {
      Fail("xdr: short buffer");
      return nullptr;
    }
    const uint8_t* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }
  // Fails the decode with `why`, unless it has already failed.
  void Fail(const char* why) {
    if (error_ == nullptr) {
      error_ = why;
    }
  }
  bool ok() const { return error_ == nullptr; }
  // OK, or kCorrupt naming the first failure.
  Status status() const;

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  ByteSpan data_;
  size_t pos_ = 0;
  const char* error_ = nullptr;
};

// Padding needed to align `n` bytes up to a 4-byte boundary.
inline size_t XdrPad(size_t n) { return (4 - (n & 3)) & 3; }

// --- field overloads: one encode/decode pair per wire type ---

inline void XdrField(XdrEncoder& enc, uint32_t v) { enc.PutUint32(v); }
inline void XdrField(XdrDecoder& dec, uint32_t& v) {
  if (const uint8_t* p = dec.Take(4); p != nullptr) {
    v = GetU32(p);
  }
}
inline void XdrField(XdrEncoder& enc, uint64_t v) { enc.PutUint64(v); }
inline void XdrField(XdrDecoder& dec, uint64_t& v) {
  if (const uint8_t* p = dec.Take(8); p != nullptr) {
    v = GetU64(p);
  }
}
// A bool is a word that is 0 or 1.
inline void XdrField(XdrEncoder& enc, bool v) { enc.PutBool(v); }
void XdrField(XdrDecoder& dec, bool& v);

// An enum is a word. A field that gives [lo, hi] fails to decode outside it.
template <typename E>
  requires std::is_enum_v<E>
void XdrField(XdrEncoder& enc, E v, E /*lo*/ = E{}, E /*hi*/ = E{}) {
  enc.PutUint32(static_cast<uint32_t>(v));
}
template <typename E>
  requires std::is_enum_v<E>
void XdrField(XdrDecoder& dec, E& v, E lo = E{}, E hi = static_cast<E>(~0u)) {
  uint32_t raw = 0;
  XdrField(dec, raw);
  if (raw < static_cast<uint32_t>(lo) || raw > static_cast<uint32_t>(hi)) {
    dec.Fail("xdr: enum out of range");
  }
  if (dec.ok()) {
    v = static_cast<E>(raw);
  }
}

// Strings and opaques of at most `max` bytes; decoding a longer one fails.
// A view (string_view, ByteSpan) decodes without copying and is valid only
// while the decoder's buffer lives. A READ reply's data encodes gathered
// from pieces, so the storage node copies straight from its pages.
inline void XdrField(XdrEncoder& enc, std::string_view v, size_t /*max*/) { enc.PutString(v); }
void XdrField(XdrDecoder& dec, std::string_view& v, size_t max);
void XdrField(XdrDecoder& dec, std::string& v, size_t max);
inline void XdrField(XdrEncoder& enc, ByteSpan v, size_t /*max*/) { enc.PutOpaqueVar(v); }
inline void XdrField(XdrEncoder& enc, std::span<const ByteSpan> pieces, size_t /*max*/) {
  enc.PutOpaqueVar(pieces);
}
void XdrField(XdrDecoder& dec, ByteSpan& v, size_t max);
void XdrField(XdrDecoder& dec, Bytes& v, size_t max);

// A counted array of at most `max` elements, each its own field. Bytes and
// the gathered pieces above are opaques, not arrays.
template <typename T>
  requires(!std::is_same_v<T, uint8_t>)
void XdrField(XdrEncoder& enc, std::span<const T> v, size_t /*max*/) {
  enc.PutUint32(static_cast<uint32_t>(v.size()));
  for (const T& x : v) {
    XdrField(enc, x);
  }
}
template <typename T>
  requires(!std::is_same_v<T, uint8_t>)
void XdrField(XdrEncoder& enc, const std::vector<T>& v, size_t max) {
  XdrField(enc, std::span<const T>(v), max);
}
template <typename T>
  requires(!std::is_same_v<T, uint8_t>)
void XdrField(XdrDecoder& dec, std::vector<T>& v, size_t max) {
  uint32_t n = 0;
  XdrField(dec, n);
  if (n > max) {
    dec.Fail("xdr: array too long");
  }
  if (!dec.ok()) {
    return;
  }
  // An element takes at least a word, so a count the rest of the buffer
  // cannot hold reserves no more than the rest could.
  v.clear();
  v.reserve(std::min<size_t>(n, dec.remaining() / 4));
  for (uint32_t i = 0; i < n && dec.ok(); ++i) {
    XdrField(dec, v.emplace_back());
  }
}

// An optional value: a presence bool, then the value when present.
template <typename T>
void XdrField(XdrEncoder& enc, const std::optional<T>& v) {
  enc.PutBool(v.has_value());
  if (v.has_value()) {
    XdrField(enc, *v);
  }
}
template <typename T>
void XdrField(XdrDecoder& dec, std::optional<T>& v) {
  bool present = false;
  XdrField(dec, present);
  if (!dec.ok()) {
    return;
  }
  if (present) {
    XdrField(dec, v.emplace());
  } else {
    v.reset();
  }
}

// A nested struct: its own field list.
template <typename T>
concept XdrStruct = requires(XdrEncoder& enc, const T& v) { T::Xdr(enc, v); };

template <XdrStruct T>
void XdrField(XdrEncoder& enc, const T& v) {
  T::Xdr(enc, v);
}
template <XdrStruct T>
void XdrField(XdrDecoder& dec, T& v) {
  T::Xdr(dec, v);
}

// Decodes a T through its field list into `value`, which carries any field
// the list reads as an input (READDIR's `plus`); returns it, or the first
// failure.
template <XdrStruct T>
Result<T> XdrDecode(XdrDecoder& dec, T value = T{}) {
  T::Xdr(dec, value);
  if (!dec.ok()) {
    return dec.status();
  }
  return value;
}

}  // namespace slice

#endif  // SLICE_XDR_XDR_H_
