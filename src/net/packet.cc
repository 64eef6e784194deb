#include "src/net/packet.h"

#include "src/common/inet_checksum.h"

namespace slice {

std::string AddrToString(NetAddr addr) {
  std::string out;
  out += std::to_string((addr >> 24) & 0xff);
  out += '.';
  out += std::to_string((addr >> 16) & 0xff);
  out += '.';
  out += std::to_string((addr >> 8) & 0xff);
  out += '.';
  out += std::to_string(addr & 0xff);
  return out;
}

std::string EndpointToString(const Endpoint& ep) {
  return AddrToString(ep.addr) + ":" + std::to_string(ep.port);
}

Bytes Packet::AcquireFrame(size_t reserved) {
  return PacketPool::Default().Acquire(kPacketHeaderSize + reserved);
}

Packet Packet::MakeUdpFramed(Endpoint src, Endpoint dst, Bytes&& frame) {
  SLICE_CHECK(frame.size() >= kPacketHeaderSize);
  Packet pkt;
  pkt.data_ = std::move(frame);
  pkt.trace_state_ = kTraceAbsent;  // freshly built: no trailer yet
  Bytes& b = pkt.data_;
  const size_t payload_size = b.size() - kPacketHeaderSize;

  // IPv4 header.
  b[0] = 0x45;  // version 4, IHL 5
  b[1] = 0;     // TOS
  PutU16(&b[2], static_cast<uint16_t>(b.size()));
  PutU16(&b[4], 0);  // identification
  PutU16(&b[6], 0);  // flags/fragment
  b[8] = 64;         // TTL
  b[9] = kProtoUdp;
  PutU16(&b[10], 0);  // checksum placeholder
  PutU32(&b[12], src.addr);
  PutU32(&b[16], dst.addr);

  // UDP header.
  PutU16(&b[kIpHeaderSize], src.port);
  PutU16(&b[kIpHeaderSize + 2], dst.port);
  PutU16(&b[kIpHeaderSize + 4], static_cast<uint16_t>(kUdpHeaderSize + payload_size));
  PutU16(&b[kIpHeaderSize + 6], 0);  // checksum placeholder

  pkt.RecomputeChecksums();
  return pkt;
}

Packet Packet::MakeUdp(Endpoint src, Endpoint dst, ByteSpan payload) {
  Bytes frame = AcquireFrame(payload.size());
  std::copy(payload.begin(), payload.end(), frame.begin() + kPacketHeaderSize);
  return MakeUdpFramed(src, dst, std::move(frame));
}

bool Packet::IsValidUdp() const {
  return data_.size() >= kPacketHeaderSize && data_[0] == 0x45 && data_[9] == kProtoUdp &&
         GetU16(data_.data() + 2) == static_cast<uint16_t>(DatagramSize());
}

bool Packet::ComputeHasTrace() const {
  if (data_.size() < kPacketHeaderSize + kTraceTrailerSize) {
    return false;
  }
  const uint8_t* tail = data_.data() + data_.size() - kTraceTrailerSize;
  // The IP total-length field is 16-bit but the simulator lets jumbo
  // datagrams (bulk 100KB+ writes) ride in one frame with the field
  // truncated, so the length relationship is checked modulo 2^16.
  return GetU32(tail) == kTraceTrailerMagic &&
         GetU16(data_.data() + 2) ==
             static_cast<uint16_t>(data_.size() - kTraceTrailerSize);
}

void Packet::AttachTrace(uint64_t trace_id, uint64_t span_id) {
  if (HasTrace()) {
    uint8_t* tail = data_.data() + data_.size() - kTraceTrailerSize;
    PutU64(tail + 4, trace_id);
    PutU64(tail + 12, span_id);
    return;
  }
  const size_t at = data_.size();
  data_.resize(at + kTraceTrailerSize);
  PutU32(&data_[at], kTraceTrailerMagic);
  PutU64(&data_[at + 4], trace_id);
  PutU64(&data_[at + 12], span_id);
  trace_state_ = kTracePresent;
}

bool Packet::PeekTrace(uint64_t* trace_id, uint64_t* span_id) const {
  if (!HasTrace()) {
    return false;
  }
  const uint8_t* tail = data_.data() + data_.size() - kTraceTrailerSize;
  if (trace_id != nullptr) {
    *trace_id = GetU64(tail + 4);
  }
  if (span_id != nullptr) {
    *span_id = GetU64(tail + 12);
  }
  return true;
}

bool Packet::DetachTrace(uint64_t* trace_id, uint64_t* span_id) {
  if (!PeekTrace(trace_id, span_id)) {
    return false;
  }
  data_.resize(data_.size() - kTraceTrailerSize);
  trace_state_ = kTraceAbsent;
  return true;
}

uint32_t Packet::UdpPseudoHeaderSum() const {
  // src addr + dst addr + proto + udp length.
  uint8_t pseudo[12];
  PutU32(pseudo, src_addr());
  PutU32(pseudo + 4, dst_addr());
  pseudo[8] = 0;
  pseudo[9] = kProtoUdp;
  PutU16(pseudo + 10, static_cast<uint16_t>(DatagramSize() - kIpHeaderSize));
  return OnesComplementSum(ByteSpan(pseudo, sizeof(pseudo)));
}

void Packet::RecomputeChecksums() {
  PutU16(&data_[10], 0);
  PutU16(&data_[kIpHeaderSize + 6], 0);

  const uint16_t ip_sum = InetChecksum(ByteSpan(data_.data(), kIpHeaderSize));
  PutU16(&data_[10], ip_sum);

  uint16_t udp_sum =
      InetChecksum(ByteSpan(data_.data() + kIpHeaderSize, DatagramSize() - kIpHeaderSize),
                   UdpPseudoHeaderSum());
  if (udp_sum == 0) {
    udp_sum = 0xffff;  // RFC 768: transmitted as all-ones if computed zero
  }
  PutU16(&data_[kIpHeaderSize + 6], udp_sum);
}

bool Packet::VerifyChecksums() const {
  // Recompute both sums in place by chaining spans around the stored checksum
  // fields (each field is one aligned 16-bit word, so pairing is preserved).
  const uint32_t ip_partial =
      OnesComplementSum(ByteSpan(data_.data(), 10),
                        OnesComplementSum(ByteSpan(data_.data() + 12, kIpHeaderSize - 12)));
  const uint16_t want_ip = static_cast<uint16_t>(~FoldSum(ip_partial));
  if (ip_checksum() != want_ip) {
    return false;
  }

  const uint16_t stored_udp = udp_checksum();
  if (stored_udp == 0) {
    return true;  // RFC 768: zero means the sender supplied no UDP checksum
  }
  const uint32_t udp_partial = OnesComplementSum(
      ByteSpan(data_.data() + kIpHeaderSize, 6),
      OnesComplementSum(
          ByteSpan(data_.data() + kIpHeaderSize + 8, DatagramSize() - kIpHeaderSize - 8),
          UdpPseudoHeaderSum()));
  uint16_t want_udp = static_cast<uint16_t>(~FoldSum(udp_partial));
  if (want_udp == 0) {
    want_udp = 0xffff;  // transmit form of computed zero
  }
  return stored_udp == want_udp;
}

void Packet::RewriteField(size_t offset, ByteSpan new_bytes, bool in_udp_pseudo_header) {
  ByteSpan old_bytes(data_.data() + offset, new_bytes.size());

  // IP header checksum covers only the IP header.
  if (offset < kIpHeaderSize) {
    const uint16_t new_ip =
        IncrementalChecksumUpdate(ip_checksum(), old_bytes, new_bytes);
    PutU16(&data_[10], new_ip);
  }
  // UDP checksum covers the pseudo-header (addresses) and the UDP segment.
  // A stored zero means "no checksum" (RFC 768) — nothing to maintain — and
  // an incremental result of zero must be written in its 0xFFFF transmit
  // form, or the packet would claim to carry no checksum at all.
  if (offset >= kIpHeaderSize || in_udp_pseudo_header) {
    const uint16_t stored_udp = udp_checksum();
    if (stored_udp != 0) {
      uint16_t new_udp = IncrementalChecksumUpdate(stored_udp, old_bytes, new_bytes);
      if (new_udp == 0) {
        new_udp = 0xffff;
      }
      PutU16(&data_[kIpHeaderSize + 6], new_udp);
    }
  }

  std::copy(new_bytes.begin(), new_bytes.end(), data_.begin() + static_cast<ptrdiff_t>(offset));
}

void Packet::RewriteBytes(size_t offset, ByteSpan new_bytes) {
  SLICE_CHECK(offset >= kPacketHeaderSize);  // headers go through RewriteSrc/Dst
  SLICE_CHECK(offset % 2 == 0);
  SLICE_CHECK(new_bytes.size() % 2 == 0);
  SLICE_CHECK(offset + new_bytes.size() <= DatagramSize());  // trailer is off-limits
  RewriteField(offset, new_bytes, /*in_udp_pseudo_header=*/false);
}

void Packet::RewriteSrc(Endpoint new_src) {
  uint8_t addr[4];
  PutU32(addr, new_src.addr);
  RewriteField(12, ByteSpan(addr, 4), /*in_udp_pseudo_header=*/true);
  uint8_t port[2];
  PutU16(port, new_src.port);
  RewriteField(kIpHeaderSize, ByteSpan(port, 2), /*in_udp_pseudo_header=*/false);
}

void Packet::RewriteDst(Endpoint new_dst) {
  uint8_t addr[4];
  PutU32(addr, new_dst.addr);
  RewriteField(16, ByteSpan(addr, 4), /*in_udp_pseudo_header=*/true);
  uint8_t port[2];
  PutU16(port, new_dst.port);
  RewriteField(kIpHeaderSize + 2, ByteSpan(port, 2), /*in_udp_pseudo_header=*/false);
}

}  // namespace slice
