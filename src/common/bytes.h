// Byte-buffer helpers: big-endian (network order) scalar packing used by the
// packet, RPC and XDR layers, plus hex formatting for diagnostics.
#ifndef SLICE_COMMON_BYTES_H_
#define SLICE_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace slice {

using Bytes = std::vector<uint8_t>;
using ByteSpan = std::span<const uint8_t>;
using MutableByteSpan = std::span<uint8_t>;

// Room a packet buffer keeps past its end when it grows beyond the pooled
// capacity, so the trace trailer (Packet::AttachTrace) appends in place.
inline constexpr size_t kPacketTailSlack = 64;

inline void PutU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v >> 8);
  p[1] = static_cast<uint8_t>(v);
}

inline void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

inline void PutU64(uint8_t* p, uint64_t v) {
  PutU32(p, static_cast<uint32_t>(v >> 32));
  PutU32(p + 4, static_cast<uint32_t>(v));
}

inline uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>((static_cast<uint16_t>(p[0]) << 8) | p[1]);
}

inline uint32_t GetU32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

inline uint64_t GetU64(const uint8_t* p) {
  return (static_cast<uint64_t>(GetU32(p)) << 32) | GetU32(p + 4);
}

inline void AppendU32(Bytes& out, uint32_t v) {
  uint8_t tmp[4];
  PutU32(tmp, v);
  out.insert(out.end(), tmp, tmp + 4);
}

inline void AppendU64(Bytes& out, uint64_t v) {
  uint8_t tmp[8];
  PutU64(tmp, v);
  out.insert(out.end(), tmp, tmp + 8);
}

std::string HexDump(ByteSpan data, size_t max_bytes = 64);
std::string ToHex(ByteSpan data);

}  // namespace slice

#endif  // SLICE_COMMON_BYTES_H_
