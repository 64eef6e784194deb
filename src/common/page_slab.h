// Page slab: 8KB pages in fixed chunks that never move, with a free list and
// a reference count per page.
//
// Allocate() hands out a page holding one reference, its owner's (the object
// store's table entry), which the owner drops with Unref when it frees the
// block. A holder that keeps a view of a page's bytes after the call that
// produced it — the duplicate-request cache's pinned READ data — takes its
// own reference with Ref and drops it with Unref. A page returns to the free
// list only with its last reference, so a pinned page outlives its free. Its
// owner never writes a page another reference shares (shared()): it writes a
// copy instead (ObjectStore's copy-on-write), so a pinned view never changes.
#ifndef SLICE_COMMON_PAGE_SLAB_H_
#define SLICE_COMMON_PAGE_SLAB_H_

#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "src/common/status.h"

namespace slice {

constexpr size_t kPageSize = 8192;

using PageId = uint32_t;
// Not a slab page: a view of zeros, which an object's holes read as.
constexpr PageId kNoPage = 0xffffffffu;

class PageSlab {
 public:
  // A page with one reference. Prefers the most recently freed page; a fresh
  // page's contents are unspecified.
  PageId Allocate() {
    PageId page = next_;
    if (!free_.empty()) {
      page = free_.back();
      free_.pop_back();
    } else {
      if (next_ % kPagesPerChunk == 0) {
        chunks_.push_back(
            Chunk{std::make_unique_for_overwrite<uint8_t[]>(kPagesPerChunk * kPageSize), {}});
      }
      ++next_;
    }
    refs(page) = 1;
    return page;
  }
  void Ref(PageId page) { ++refs(page); }
  // Drops a reference; the last one frees the page.
  void Unref(PageId page) {
    SLICE_CHECK(refs(page) > 0);
    if (--refs(page) == 0) {
      free_.push_back(page);
    }
  }
  // Referenced by more than its owner: the page must not be written in place.
  bool shared(PageId page) const { return const_cast<PageSlab*>(this)->refs(page) > 1; }

  uint8_t* data(PageId page) {
    return chunks_[page / kPagesPerChunk].bytes.get() + (page % kPagesPerChunk) * kPageSize;
  }
  const uint8_t* data(PageId page) const { return const_cast<PageSlab*>(this)->data(page); }

  // Pages handed out and not yet freed, and the references they hold (a
  // leak and a double free both show in these).
  size_t live_pages() const { return next_ - free_.size(); }
  uint64_t references() const {
    uint64_t total = 0;
    for (const Chunk& chunk : chunks_) {
      total = std::accumulate(chunk.refs.begin(), chunk.refs.end(), total);
    }
    return total;
  }

 private:
  static constexpr PageId kPagesPerChunk = 64;
  // A chunk's reference counts sit beside its bytes, so a new page costs no
  // allocation beyond its chunk's.
  struct Chunk {
    std::unique_ptr<uint8_t[]> bytes;
    std::array<uint32_t, kPagesPerChunk> refs;
  };
  uint32_t& refs(PageId page) { return chunks_[page / kPagesPerChunk].refs[page % kPagesPerChunk]; }

  std::vector<Chunk> chunks_;
  std::vector<PageId> free_;
  PageId next_ = 0;  // first page never handed out
};

}  // namespace slice

#endif  // SLICE_COMMON_PAGE_SLAB_H_
