// Wire packets: an IPv4-like header plus a UDP header over a byte payload.
//
// The µproxy operates on these real bytes — parsing, rewriting addresses and
// ports, and fixing checksums incrementally — exactly the work the paper's
// packet-filter prototype performs below the FreeBSD IP stack.
//
// Simplifications vs. real IPv4: no options, no fragmentation (the testbed
// ran 9KB jumbo frames; we let a datagram ride in one simulated frame).
//
// Fast-path design (DESIGN.md §7): buffers come from PacketPool and return to
// it when a packet dies, so steady-state forwarding never heap-allocates. A
// sender encodes its payload straight into a pooled frame (AcquireFrame) and
// MakeUdpFramed writes the headers in place around it. Two
// derived facts are cached on the packet and kept coherent by the mutators
// below: whether a trace trailer is present (HasTrace used to re-scan the
// tail on every payload() call) and one decoded "view" of the payload, an
// opaque trivially-copyable struct a higher layer (the µproxy's DecodedView)
// stashes after its single pass over the RPC/NFS headers. Address, port and
// equal-size payload rewrites preserve both caches; only mutable_bytes()
// (arbitrary external mutation) invalidates them.
#ifndef SLICE_NET_PACKET_H_
#define SLICE_NET_PACKET_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/net/packet_pool.h"

namespace slice {

using NetAddr = uint32_t;  // IPv4-style host address
using NetPort = uint16_t;

constexpr size_t kIpHeaderSize = 20;
constexpr size_t kUdpHeaderSize = 8;
constexpr size_t kPacketHeaderSize = kIpHeaderSize + kUdpHeaderSize;
constexpr uint8_t kProtoUdp = 17;

// Trace-context trailer (src/obs): magic + trace id + span id appended
// *after* the IP datagram, like a link-layer FCS — outside the IP total
// length, outside both checksums, and invisible to payload() parsers. A
// trailer is recognized only when the magic matches AND the (16-bit,
// modulo-2^16 for jumbo datagrams) IP length field is exactly trailer-size
// short of the buffer, so arbitrary fuzzed bytes cannot alias into one
// without also faking the length relationship.
constexpr uint32_t kTraceTrailerMagic = 0x7ace51ce;
constexpr size_t kTraceTrailerSize = 4 + 8 + 8;

// A socket-style endpoint identity.
struct Endpoint {
  NetAddr addr = 0;
  NetPort port = 0;

  bool operator==(const Endpoint&) const = default;
};

std::string AddrToString(NetAddr addr);
std::string EndpointToString(const Endpoint& ep);

// Owning packet buffer with typed accessors into the header fields.
class Packet {
 public:
  Packet() = default;
  explicit Packet(Bytes data) : data_(std::move(data)) {}

  // Value semantics: copies are deep (slow paths and tests only); moves
  // transfer the pooled buffer and the cached decode state. A move
  // assignment returns the buffer it overwrites to the pool, as the
  // destructor does, and copies the view slot with one memcpy.
  Packet(const Packet&) = default;
  Packet& operator=(const Packet&) = default;
  Packet(Packet&&) noexcept = default;
  Packet& operator=(Packet&& other) noexcept {
    if (this != &other) {
      ReleaseBuffer();
      data_ = std::move(other.data_);
      trace_state_ = other.trace_state_;
      view_tag_ = other.view_tag_;
      std::memcpy(view_storage_, other.view_storage_, kViewSlotCap);
    }
    return *this;
  }
  ~Packet() { ReleaseBuffer(); }

  // A pooled buffer (PacketPool::Default()) sized kPacketHeaderSize +
  // `reserved`: the header bytes are left for MakeUdpFramed to write, and
  // the `reserved` bytes after them for a caller that fills them in place
  // (the RPC reply envelope). A frame is what every RPC message is encoded
  // into: an XdrEncoder over it appends the payload, so the payload is
  // written once and becomes the packet without another copy.
  static Bytes AcquireFrame(size_t reserved = 0);

  // Turns a frame into a UDP packet: writes the IP and UDP headers over its
  // first kPacketHeaderSize bytes and fills in both checksums. Everything
  // after the headers is the payload. This is the only function that writes
  // packet headers.
  static Packet MakeUdpFramed(Endpoint src, Endpoint dst, Bytes&& frame);

  // Builds a UDP packet from a payload held elsewhere: copies it into a
  // fresh frame and calls MakeUdpFramed.
  static Packet MakeUdp(Endpoint src, Endpoint dst, ByteSpan payload);

  // Version, protocol and the IP total length (compared modulo 2^16, the
  // field's width, so jumbo datagrams past 64 KB validate too).
  bool IsValidUdp() const;

  NetAddr src_addr() const { return GetU32(data_.data() + 12); }
  NetAddr dst_addr() const { return GetU32(data_.data() + 16); }
  NetPort src_port() const { return GetU16(data_.data() + kIpHeaderSize); }
  NetPort dst_port() const { return GetU16(data_.data() + kIpHeaderSize + 2); }
  Endpoint src() const { return Endpoint{src_addr(), src_port()}; }
  Endpoint dst() const { return Endpoint{dst_addr(), dst_port()}; }
  uint16_t ip_checksum() const { return GetU16(data_.data() + 10); }
  uint16_t udp_checksum() const { return GetU16(data_.data() + kIpHeaderSize + 6); }

  // Rewrites addressing fields, adjusting the IP and UDP checksums
  // incrementally (RFC 1624) — cost proportional to bytes changed. Cached
  // views survive: addressing rewrites cannot move payload offsets.
  void RewriteSrc(Endpoint new_src);
  void RewriteDst(Endpoint new_dst);

  // Rewrites an arbitrary 16-bit-aligned byte range (header or payload),
  // patching the covering checksums incrementally. The µproxy uses this to
  // update file attributes inside NFS reply payloads in place. Equal-size
  // in-place rewrites preserve XDR framing, so cached views survive; a
  // caller that rewrites a field a view caches must clear_view() itself.
  void RewriteBytes(size_t offset, ByteSpan new_bytes);

  // Verifies the stored checksums against a full recompute (allocation-free).
  // A zero UDP checksum means "no checksum" (RFC 768) and verifies as valid.
  bool VerifyChecksums() const;
  // Recomputes both checksums from scratch (used by builders and tests).
  void RecomputeChecksums();

  // --- trace-context trailer (src/obs) ---
  //
  // Appends (or rewrites in place) the span-context trailer. Checksum
  // neutral: the trailer lives beyond the IP total length, so the checksums,
  // payload() and all rewrite paths are unaffected by its presence.
  void AttachTrace(uint64_t trace_id, uint64_t span_id);
  // True when a structurally consistent trailer is present (cached after the
  // first tail scan; builders and Attach/DetachTrace keep it coherent).
  bool HasTrace() const {
    if (trace_state_ == kTraceUnknown) {
      trace_state_ = ComputeHasTrace() ? kTracePresent : kTraceAbsent;
    }
    return trace_state_ == kTracePresent;
  }
  // Non-destructive read of the trailer ids; false when absent.
  bool PeekTrace(uint64_t* trace_id, uint64_t* span_id) const;
  // Strips the trailer (returning its ids when requested); false when absent.
  bool DetachTrace(uint64_t* trace_id = nullptr, uint64_t* span_id = nullptr);

  // --- cached decoded view ---
  //
  // One trivially-copyable decode result can ride on the packet, keyed by a
  // caller-chosen tag (the µproxy caches its DecodedView after the first
  // header walk so later stages reuse offsets instead of re-parsing). The
  // packet layer treats the bytes as opaque, which keeps net below core.
  static constexpr size_t kViewSlotCap = 152;
  template <typename T>
  bool get_view(uint32_t tag, T* out) const {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= kViewSlotCap);
    if (view_tag_ != tag) {
      return false;
    }
    std::memcpy(out, view_storage_, sizeof(T));
    return true;
  }
  template <typename T>
  void set_view(uint32_t tag, const T& v) {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= kViewSlotCap);
    std::memcpy(view_storage_, &v, sizeof(T));
    view_tag_ = tag;
  }
  void clear_view() { view_tag_ = 0; }
  bool has_view(uint32_t tag) const { return view_tag_ == tag; }

  ByteSpan payload() const {
    return ByteSpan(data_).subspan(kPacketHeaderSize,
                                   DatagramSize() - kPacketHeaderSize);
  }
  // Payload bytes may change under a cached view; structure (and the trailer
  // length relationship) cannot, so only the view cache is dropped.
  MutableByteSpan mutable_payload() {
    clear_view();
    return MutableByteSpan(data_).subspan(kPacketHeaderSize,
                                          DatagramSize() - kPacketHeaderSize);
  }

  size_t size() const { return data_.size(); }
  const Bytes& bytes() const { return data_; }
  // Arbitrary external mutation: every cached fact is invalidated.
  Bytes& mutable_bytes() {
    trace_state_ = kTraceUnknown;
    view_tag_ = 0;
    return data_;
  }

 private:
  enum : uint8_t { kTraceUnknown = 0, kTraceAbsent = 1, kTracePresent = 2 };

  void ReleaseBuffer() {
    // Capacity gate up front so moved-from and external-buffer packets skip
    // the call entirely; the pool re-checks before recycling.
    if (data_.capacity() >= PacketPool::kBufferCapacity) {
      PacketPool::Default().Release(std::move(data_));
    }
  }

  // Rewrites a 16-bit-aligned region and patches both checksums.
  void RewriteField(size_t offset, ByteSpan new_bytes, bool in_udp_pseudo_header);
  uint32_t UdpPseudoHeaderSum() const;
  bool ComputeHasTrace() const;
  // Buffer size minus any trace trailer: the extent of the IP datagram that
  // length fields, checksums and payload() reason about.
  size_t DatagramSize() const { return data_.size() - (HasTrace() ? kTraceTrailerSize : 0); }

  Bytes data_;
  mutable uint8_t trace_state_ = kTraceUnknown;
  uint32_t view_tag_ = 0;
  alignas(8) unsigned char view_storage_[kViewSlotCap];
};

}  // namespace slice

#endif  // SLICE_NET_PACKET_H_
