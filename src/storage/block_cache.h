// LRU buffer cache over physical blocks. Used by storage nodes, small-file
// servers and the baseline server to decide which reads pay disk time. The
// small-file-server cache size is what produces the SPECsfs latency knee in
// Figure 6 ("the ensemble overflows its 1 GB cache on the small-file
// servers").
//
// The recency list is an intrusive doubly-linked list threaded through a
// flat node array by index, with a FlatMap from block to node index. Earlier
// versions kept std::list iterators in an unordered_map; a touch or
// re-insert then hinged on splice() preserving exactly the iterator stored
// in the map, and every cold insert paid two node allocations. Indices into
// a reusable array can't dangle, and a full cache recycles the victim's slot
// on every insert, so steady-state Access/Insert/Erase never touch the heap.
#ifndef SLICE_STORAGE_BLOCK_CACHE_H_
#define SLICE_STORAGE_BLOCK_CACHE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/status.h"
#include "src/core/pending_map.h"
#include "src/storage/object_store.h"

namespace slice {

class BlockCache {
 public:
  // Sub-block capacities used to truncate to zero blocks, which turned every
  // insert into an immediate self-eviction (cache thrash with a 100% miss
  // rate). Round up instead, and reject a zero-byte cache outright.
  explicit BlockCache(uint64_t capacity_bytes)
      : capacity_blocks_((capacity_bytes + kStoreBlockSize - 1) / kStoreBlockSize) {
    SLICE_CHECK(capacity_bytes > 0);
  }

  // Called with each block evicted by capacity pressure. Owners that keep
  // payload bytes alongside the cache (the small-file server's page pool)
  // use this to drop them. The hook fires only after the victim is fully
  // unlinked — absent from the index and the recency list — so a hook may
  // re-enter the cache (Erase, Insert, even Access) without observing or
  // corrupting a half-removed entry.
  void SetEvictionHook(std::function<void(PhysBlock)> hook) { eviction_hook_ = std::move(hook); }

  // Returns true on hit. On miss, inserts the block as most-recently used
  // (evicting the LRU block if full) and returns false.
  bool Access(PhysBlock block) {
    if (uint32_t* at = index_.Find(block)) {
      MoveToFront(*at);
      ++hits_;
      return true;
    }
    ++misses_;
    InsertFresh(block);
    return false;
  }

  // Inserts without counting a hit/miss (e.g. blocks entering via writes or
  // prefetch).
  void Insert(PhysBlock block) {
    if (uint32_t* at = index_.Find(block)) {
      MoveToFront(*at);
      return;
    }
    InsertFresh(block);
  }

  bool Contains(PhysBlock block) const { return index_.Find(block) != nullptr; }

  void Erase(PhysBlock block) {
    uint32_t* at = index_.Find(block);
    if (at == nullptr) {
      return;
    }
    const uint32_t node = *at;
    Unlink(node);
    FreeNode(node);
    index_.Erase(block);
  }

  void Clear() {
    nodes_.clear();
    head_ = tail_ = free_head_ = kNil;
    index_.Clear();
  }

  size_t size_blocks() const { return index_.size(); }
  uint64_t capacity_blocks() const { return capacity_blocks_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  static constexpr uint32_t kNil = 0xffffffffu;

  struct Node {
    PhysBlock block = 0;
    uint32_t prev = kNil;
    uint32_t next = kNil;  // doubles as the freelist link for free nodes
  };

  void InsertFresh(PhysBlock block) {
    uint32_t node;
    if (free_head_ != kNil) {
      node = free_head_;
      free_head_ = nodes_[node].next;
    } else {
      node = static_cast<uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[node].block = block;
    LinkFront(node);
    *index_.Insert(block).first = node;
    if (index_.size() > capacity_blocks_) {
      const uint32_t victim = tail_;
      const PhysBlock victim_block = nodes_[victim].block;
      Unlink(victim);
      FreeNode(victim);
      index_.Erase(victim_block);
      if (eviction_hook_) {
        eviction_hook_(victim_block);
      }
    }
  }

  void FreeNode(uint32_t node) {
    nodes_[node].next = free_head_;
    free_head_ = node;
  }

  void LinkFront(uint32_t node) {
    nodes_[node].prev = kNil;
    nodes_[node].next = head_;
    if (head_ != kNil) {
      nodes_[head_].prev = node;
    }
    head_ = node;
    if (tail_ == kNil) {
      tail_ = node;
    }
  }

  void Unlink(uint32_t node) {
    const uint32_t prev = nodes_[node].prev;
    const uint32_t next = nodes_[node].next;
    if (prev != kNil) {
      nodes_[prev].next = next;
    } else {
      head_ = next;
    }
    if (next != kNil) {
      nodes_[next].prev = prev;
    } else {
      tail_ = prev;
    }
  }

  void MoveToFront(uint32_t node) {
    if (head_ == node) {
      return;
    }
    Unlink(node);
    LinkFront(node);
  }

  uint64_t capacity_blocks_;
  std::vector<Node> nodes_;
  uint32_t head_ = kNil;
  uint32_t tail_ = kNil;
  uint32_t free_head_ = kNil;
  FlatU64Map<uint32_t> index_;
  std::function<void(PhysBlock)> eviction_hook_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace slice

#endif  // SLICE_STORAGE_BLOCK_CACHE_H_
