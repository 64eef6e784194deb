#include "src/net/packet_pool.h"

#include <algorithm>

namespace slice {

Bytes PacketPool::Acquire(size_t size) {
  ++acquires_;
  if (!free_.empty()) {
    Bytes buf = std::move(free_.back());
    free_.pop_back();
    if (buf.capacity() >= size) {
      ++recycle_hits_;
      buf.clear();
      buf.resize(size);
      return buf;
    }
    // Rare: a recycled buffer too small for a jumbo datagram; fall through to
    // a fresh allocation and let the undersized buffer die here.
  }
  Bytes buf;
  // The tail slack keeps AttachTrace realloc-free even on jumbo datagrams
  // that exceed the pooled capacity.
  buf.reserve(std::max(size + kPacketTailSlack, kBufferCapacity));
  buf.resize(size);
  return buf;
}

void PacketPool::Release(Bytes&& buf) {
  ++releases_;
  if (buf.capacity() < kBufferCapacity || buf.capacity() > kMaxRecycleCapacity ||
      free_.size() >= kMaxFreeBuffers) {
    return;  // Bytes destructor frees it
  }
  free_.push_back(std::move(buf));
}

PacketPool& PacketPool::Default() {
  static PacketPool pool;
  return pool;
}

}  // namespace slice
