// Recycled packet buffers for the zero-allocation forwarding path.
//
// Every simulated packet used to heap-allocate its byte vector; at millions
// of forwarded requests per experiment that allocation (plus the matching
// free) dominates the non-decode cost of the µproxy fast path. The pool keeps
// a freelist of fixed-capacity buffers sized for a jumbo frame plus the trace
// trailer, so steady-state forwarding acquires and releases buffers without
// touching the heap.
//
// The sim is single-threaded, so one process-wide pool serves every host; the
// class itself carries no global state, so per-host instances work too.
//
// Lifecycle contract (DESIGN.md §7): Packet owns its buffer and returns it to
// the default pool on destruction; copies deep-copy (slow paths only), moves
// transfer the buffer. Recycling is capacity-gated — undersized external
// buffers and oversized jumbo payloads are simply freed — so the pool's
// footprint is bounded by kMaxFreeBuffers * buffer capacity.
#ifndef SLICE_NET_PACKET_POOL_H_
#define SLICE_NET_PACKET_POOL_H_

#include <cstdint>
#include <vector>

#include "src/common/bytes.h"

namespace slice {

class PacketPool {
 public:
  // Jumbo frame (9KB) + packet headers + trace trailer + slack, so attaching
  // a trace trailer to a full-size datagram never reallocates.
  static constexpr size_t kBufferCapacity = 9 * 1024 + 256;
  // Buffers above this capacity (100KB+ jumbo bulk writes) are freed rather
  // than hoarded; below kBufferCapacity they are too small to guarantee the
  // no-realloc invariant and are likewise dropped.
  static constexpr size_t kMaxRecycleCapacity = 256 * 1024;
  static constexpr size_t kMaxFreeBuffers = 256;

  PacketPool() { free_.reserve(kMaxFreeBuffers); }

  // Returns a buffer resized to `size` with capacity >= max(size +
  // trailer slack, kBufferCapacity), recycled from the freelist when it can.
  Bytes Acquire(size_t size);

  // Takes ownership of a dead packet's buffer; recycles it when it meets the
  // capacity gate and the freelist has room, frees it otherwise.
  void Release(Bytes&& buf);

  size_t free_buffers() const { return free_.size(); }
  uint64_t acquires() const { return acquires_; }
  uint64_t recycle_hits() const { return recycle_hits_; }
  uint64_t releases() const { return releases_; }

  // Process-wide pool used by Packet's builders and destructor.
  static PacketPool& Default();

 private:
  std::vector<Bytes> free_;
  uint64_t acquires_ = 0;
  uint64_t recycle_hits_ = 0;
  uint64_t releases_ = 0;
};

}  // namespace slice

#endif  // SLICE_NET_PACKET_POOL_H_
