// Object store: the per-node storage manager beneath a Slice network storage
// node. Presents a flat space of sparse storage objects ("an ordered
// sequence of bytes with a unique identifier", paper §2.2) over a flat disk
// address space of 8KB blocks.
//
// Physical allocation seeks contiguity (FFS-style clustering): sequential
// writes to an object receive sequential physical blocks whenever possible,
// which the disk timing model rewards. NFSv3 unstable-write semantics are
// implemented with a dirty-block overlay: unstable data lives in memory until
// Commit() pushes it to "disk" (the stable image); CrashDiscardDirty() models
// a power failure, dropping uncommitted data exactly as a real server would.
//
// Block contents live in one slab of 8KB pages with a free list
// (src/common/page_slab.h), so a freed page is reused by the next
// allocation. Each object keeps two flat tables sorted by logical block: the
// stable image as {logical, physical, page} and the dirty overlay as
// {logical, page}. Commit moves a dirty page into its stable entry instead of
// copying it, and reads hand out views of the pages with the page each view
// lies in, so a caller can pin a page (PageSlab::Ref) and keep its view past
// later mutations: the duplicate-request cache replays READ replies from
// pinned pages. A pinned page is never written in place; a stable write, an
// unstable write into an existing overlay page, a stable write's fold into the
// overlay and truncate's tail zeroing each write a copy instead
// (copy-on-write). A freed pinned page returns to the slab with its last pin.
//
// Ownership: a table-entry pointer or span (BlocksFrom) is valid until the
// next insert into or erase from that object's table; a page id, and a view
// of its bytes (ReadGather), until its block is next written, freed,
// truncated away or committed over, or, for a pinned page, until it is
// unpinned.
#ifndef SLICE_STORAGE_OBJECT_STORE_H_
#define SLICE_STORAGE_OBJECT_STORE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/page_slab.h"
#include "src/common/status.h"

namespace slice {

constexpr size_t kStoreBlockSize = kPageSize;

using ObjectId = uint64_t;
using BlockIndex = uint64_t;   // logical block within an object
using PhysBlock = uint64_t;    // physical block within the node's disk space

// One block of an object's stable image.
struct StoreBlock {
  BlockIndex block = 0;
  PhysBlock phys = 0;
  PageId page = 0;
};

// What a read covers: its length (short at the end of the object) and
// whether it reached that end.
struct StoreReadExtent {
  uint32_t length = 0;
  bool eof = false;
};

// The most pieces ReadGather appends for a read of `count` bytes: one per
// block the read touches.
constexpr size_t MaxGatherPieces(uint64_t count) { return count / kStoreBlockSize + 2; }

struct StoreReadResult {
  Bytes data;
  bool eof = false;
  // Physical blocks backing the read (for cache/disk accounting). Blocks
  // served from the dirty overlay are not reported.
  std::vector<PhysBlock> blocks_read;
};

class ObjectStore {
 public:
  explicit ObjectStore(uint64_t capacity_bytes);

  // Writes data at `offset`. If `stable`, the data goes straight to the
  // stable image and the physical blocks written are appended to
  // `blocks_written` (when given); otherwise it lands in the dirty overlay
  // awaiting Commit. Out of space is kResourceExhausted, with the blocks
  // before the one that failed already written.
  Status Write(ObjectId id, uint64_t offset, ByteSpan data, bool stable,
               std::vector<PhysBlock>* blocks_written = nullptr);

  // Reads up to `count` bytes at `offset`, merging the dirty overlay over
  // the stable image, without copying: the read's bytes are appended to
  // `segments` in order as views of the store's pages (holes as views of a
  // shared zero page), the page each view lies in to `pages` (when given;
  // kNoPage for a hole), and the stable blocks backing it to `blocks_read`.
  // The storage node's READ path encodes the views straight into its reply
  // and pins the pages for its duplicate-request cache.
  StoreReadExtent ReadGather(ObjectId id, uint64_t offset, uint32_t count,
                             std::vector<ByteSpan>* segments, std::vector<PageId>* pages,
                             std::vector<PhysBlock>* blocks_read) const;
  // ReadGather copied into one buffer.
  StoreReadResult Read(ObjectId id, uint64_t offset, uint32_t count) const;

  // Flushes the object's dirty overlay to the stable image, appending the
  // physical blocks written to `written` (when given) so the caller can
  // charge (clustered) disk time. Committing a missing or clean object
  // succeeds with no blocks. Out of space is kResourceExhausted: the blocks
  // placed so far are stable, the rest stay dirty and readable.
  Status Commit(ObjectId id, std::vector<PhysBlock>* written = nullptr);

  // Truncates to `size` (frees whole blocks beyond it).
  Status Truncate(ObjectId id, uint64_t size);
  // Removes the object entirely, freeing its blocks.
  Status Remove(ObjectId id);

  // Models a crash: all dirty (uncommitted) data is lost.
  void CrashDiscardDirty();

  // The slab the pages live in, for pinning the pages ReadGather reports.
  PageSlab& pages() { return pages_; }
  const PageSlab& pages() const { return pages_; }
  // Pages copied because a write found them pinned.
  uint64_t cow_copies() const { return cow_copies_; }

  bool Exists(ObjectId id) const { return objects_.contains(id); }
  Result<uint64_t> Size(ObjectId id) const;
  uint64_t SizeOrZero(ObjectId id) const;
  // Bytes of physical storage allocated to the object.
  uint64_t AllocatedBytes(ObjectId id) const;

  size_t object_count() const { return objects_.size(); }
  uint64_t used_blocks() const { return used_blocks_; }
  uint64_t capacity_blocks() const { return capacity_blocks_; }
  uint64_t dirty_blocks() const;

  // The physical block that backs (id, logical block), or nullopt if
  // unallocated.
  std::optional<PhysBlock> PhysicalFor(ObjectId id, BlockIndex block) const;
  // The object's stable blocks from logical block `first` on, in logical
  // order; empty for a missing object. The storage node's prefetcher walks
  // this instead of probing block by block.
  std::span<const StoreBlock> BlocksFrom(ObjectId id, BlockIndex first) const;

 private:
  struct DirtyBlock {
    BlockIndex block = 0;
    PageId page = 0;
  };
  struct Object {
    uint64_t size = 0;               // stable size
    uint64_t unstable_size = 0;      // size including overlay
    std::vector<StoreBlock> blocks;  // stable image, sorted by block
    std::vector<DirtyBlock> dirty;   // overlay, sorted by block
  };

  Result<PhysBlock> AllocBlock(PhysBlock hint);
  // Frees a stable block: its physical slot and its page.
  void Release(const StoreBlock& block);
  // The bytes of `*page` for an in-place write of `len` bytes: a pinned page
  // is first replaced by a copy of it (a fresh page when the write covers the
  // whole page), so a pinned view never changes.
  uint8_t* Writable(PageId* page, size_t len);
  // Contiguity hint for a new stable block inserted at `pos` in `obj`'s
  // table: one past the previous logical block's physical slot.
  PhysBlock HintFor(const Object& obj, std::vector<StoreBlock>::const_iterator pos,
                    BlockIndex block) const;

  uint64_t capacity_blocks_;
  uint64_t used_blocks_ = 0;
  PhysBlock alloc_cursor_ = 0;
  std::unordered_map<ObjectId, Object> objects_;
  PageSlab pages_;
  uint64_t cow_copies_ = 0;
  std::vector<bool> allocated_;
};

}  // namespace slice

#endif  // SLICE_STORAGE_OBJECT_STORE_H_
