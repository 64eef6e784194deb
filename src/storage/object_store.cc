#include "src/storage/object_store.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "src/common/logging.h"

namespace slice {
namespace {

// Holes read as views of this page.
constexpr uint8_t kZeroPage[kStoreBlockSize] = {};

// The first entry of a block-sorted table at or past `block`.
template <typename Table>
auto LowerBound(Table& table, BlockIndex block) {
  return std::lower_bound(table.begin(), table.end(), block,
                          [](const auto& entry, BlockIndex b) { return entry.block < b; });
}

// The entry for `block`, or nullptr.
template <typename Table>
auto* FindBlock(Table& table, BlockIndex block) {
  const auto it = LowerBound(table, block);
  return it != table.end() && it->block == block ? &*it : nullptr;
}

// Zeroes a fresh page outside [within, within + len), the range a write is
// about to fill; a page the write covers fully is not touched.
void ZeroAround(uint8_t* page, size_t within, size_t len) {
  std::memset(page, 0, within);
  std::memset(page + within + len, 0, kStoreBlockSize - within - len);
}

}  // namespace

ObjectStore::ObjectStore(uint64_t capacity_bytes)
    : capacity_blocks_(capacity_bytes / kStoreBlockSize),
      allocated_(capacity_blocks_, false) {}

Result<PhysBlock> ObjectStore::AllocBlock(PhysBlock hint) {
  if (used_blocks_ >= capacity_blocks_) {
    return Status(StatusCode::kResourceExhausted, "store: out of blocks");
  }
  // Try the hint (contiguity), then scan forward from the cursor.
  if (hint < capacity_blocks_ && !allocated_[hint]) {
    allocated_[hint] = true;
    ++used_blocks_;
    alloc_cursor_ = hint + 1;
    return hint;
  }
  for (uint64_t i = 0; i < capacity_blocks_; ++i) {
    const PhysBlock candidate = (alloc_cursor_ + i) % capacity_blocks_;
    if (!allocated_[candidate]) {
      allocated_[candidate] = true;
      ++used_blocks_;
      alloc_cursor_ = candidate + 1;
      return candidate;
    }
  }
  return Status(StatusCode::kResourceExhausted, "store: out of blocks");
}

void ObjectStore::Release(const StoreBlock& block) {
  SLICE_CHECK(block.phys < capacity_blocks_ && allocated_[block.phys]);
  allocated_[block.phys] = false;
  --used_blocks_;
  pages_.Unref(block.page);
}

uint8_t* ObjectStore::Writable(PageId* page, size_t len) {
  if (pages_.shared(*page)) {
    const PageId copy = pages_.Allocate();
    if (len < kStoreBlockSize) {
      std::memcpy(pages_.data(copy), pages_.data(*page), kStoreBlockSize);
    }
    pages_.Unref(*page);
    *page = copy;
    ++cow_copies_;
  }
  return pages_.data(*page);
}

PhysBlock ObjectStore::HintFor(const Object& obj, std::vector<StoreBlock>::const_iterator pos,
                               BlockIndex block) const {
  if (block > 0 && pos != obj.blocks.begin() && std::prev(pos)->block == block - 1) {
    return std::prev(pos)->phys + 1;
  }
  return alloc_cursor_;
}

Status ObjectStore::Write(ObjectId id, uint64_t offset, ByteSpan data, bool stable,
                          std::vector<PhysBlock>* blocks_written) {
  Object& obj = objects_[id];
  size_t consumed = 0;
  while (consumed < data.size()) {
    const uint64_t abs = offset + consumed;
    const BlockIndex block = abs / kStoreBlockSize;
    const size_t within = abs % kStoreBlockSize;
    const size_t take = std::min(data.size() - consumed, kStoreBlockSize - within);
    const uint8_t* src = data.data() + consumed;

    if (stable) {
      auto it = LowerBound(obj.blocks, block);
      if (it == obj.blocks.end() || it->block != block) {
        SLICE_ASSIGN_OR_RETURN(const PhysBlock phys, AllocBlock(HintFor(obj, it, block)));
        it = obj.blocks.insert(it, StoreBlock{block, phys, pages_.Allocate()});
        ZeroAround(pages_.data(it->page), within, take);
      }
      if (blocks_written != nullptr) {
        blocks_written->push_back(it->phys);
      }
      std::memcpy(Writable(&it->page, take) + within, src, take);
      // If a dirty overlay exists for this block, the stable write supersedes
      // the overlapped range; fold the stable bytes into the overlay so reads
      // stay coherent.
      if (DirtyBlock* dirty = FindBlock(obj.dirty, block); dirty != nullptr) {
        std::memcpy(Writable(&dirty->page, take) + within, src, take);
      }
    } else {
      auto it = LowerBound(obj.dirty, block);
      if (it == obj.dirty.end() || it->block != block) {
        const PageId page = pages_.Allocate();
        // Seed the overlay with the stable image so partial dirty writes do
        // not clobber surrounding stable bytes at commit time.
        if (const StoreBlock* base = FindBlock(obj.blocks, block); base == nullptr) {
          ZeroAround(pages_.data(page), within, take);
        } else if (take < kStoreBlockSize) {
          std::memcpy(pages_.data(page), pages_.data(base->page), kStoreBlockSize);
        }
        it = obj.dirty.insert(it, DirtyBlock{block, page});
      }
      std::memcpy(Writable(&it->page, take) + within, src, take);
    }
    consumed += take;
  }

  const uint64_t end = offset + data.size();
  if (stable) {
    obj.size = std::max(obj.size, end);
  }
  obj.unstable_size = std::max({obj.unstable_size, obj.size, end});
  return OkStatus();
}

StoreReadExtent ObjectStore::ReadGather(ObjectId id, uint64_t offset, uint32_t count,
                                        std::vector<ByteSpan>* segments,
                                        std::vector<PageId>* pages,
                                        std::vector<PhysBlock>* blocks_read) const {
  const auto obj_it = objects_.find(id);
  if (obj_it == objects_.end()) {
    return {0, true};
  }
  const Object& obj = obj_it->second;
  const uint64_t size = std::max(obj.size, obj.unstable_size);
  if (offset >= size) {
    return {0, true};
  }
  const uint64_t n = std::min<uint64_t>(count, size - offset);

  // The blocks ascend one at a time, so each table is walked by a cursor
  // instead of searched per block.
  const BlockIndex first = offset / kStoreBlockSize;
  auto dirty = LowerBound(obj.dirty, first);
  auto stable = LowerBound(obj.blocks, first);
  uint64_t produced = 0;
  while (produced < n) {
    const uint64_t abs = offset + produced;
    const BlockIndex block = abs / kStoreBlockSize;
    const size_t within = abs % kStoreBlockSize;
    const size_t take = std::min<uint64_t>(n - produced, kStoreBlockSize - within);
    while (dirty != obj.dirty.end() && dirty->block < block) {
      ++dirty;
    }
    while (stable != obj.blocks.end() && stable->block < block) {
      ++stable;
    }
    PageId page = kNoPage;
    if (dirty != obj.dirty.end() && dirty->block == block) {
      page = dirty->page;
    } else if (stable != obj.blocks.end() && stable->block == block) {
      blocks_read->push_back(stable->phys);
      page = stable->page;
    }
    const uint8_t* bytes = page == kNoPage ? kZeroPage : pages_.data(page);
    segments->push_back(ByteSpan(bytes + within, take));
    if (pages != nullptr) {
      pages->push_back(page);
    }
    produced += take;
  }
  return {static_cast<uint32_t>(n), offset + n >= size};
}

StoreReadResult ObjectStore::Read(ObjectId id, uint64_t offset, uint32_t count) const {
  StoreReadResult result;
  std::vector<ByteSpan> segments;
  result.eof = ReadGather(id, offset, count, &segments, nullptr, &result.blocks_read).eof;
  for (ByteSpan segment : segments) {
    result.data.insert(result.data.end(), segment.begin(), segment.end());
  }
  return result;
}

Status ObjectStore::Commit(ObjectId id, std::vector<PhysBlock>* written) {
  const auto obj_it = objects_.find(id);
  if (obj_it == objects_.end()) {
    return OkStatus();
  }
  Object& obj = obj_it->second;
  Status status = OkStatus();
  size_t placed = 0;
  for (; placed < obj.dirty.size(); ++placed) {
    const DirtyBlock& dirty = obj.dirty[placed];
    auto it = LowerBound(obj.blocks, dirty.block);
    if (it != obj.blocks.end() && it->block == dirty.block) {
      // Committed over: the dirty page becomes the stable one.
      pages_.Unref(it->page);
      it->page = dirty.page;
    } else {
      Result<PhysBlock> phys = AllocBlock(HintFor(obj, it, dirty.block));
      if (!phys.ok()) {
        status = phys.status();
        break;  // out of space: this block and the ones after it stay dirty
      }
      it = obj.blocks.insert(it, StoreBlock{dirty.block, *phys, dirty.page});
    }
    if (written != nullptr) {
      written->push_back(it->phys);
    }
  }
  obj.dirty.erase(obj.dirty.begin(), obj.dirty.begin() + static_cast<ptrdiff_t>(placed));
  // The stable size covers what reached the disk: all of it, or up to the
  // first block still dirty.
  const uint64_t durable =
      obj.dirty.empty() ? obj.unstable_size
                        : std::min(obj.unstable_size, obj.dirty.front().block * kStoreBlockSize);
  obj.size = std::max(obj.size, durable);
  return status;
}

Status ObjectStore::Truncate(ObjectId id, uint64_t size) {
  auto obj_it = objects_.find(id);
  if (obj_it == objects_.end()) {
    if (size == 0) {
      return OkStatus();
    }
    Object& obj = objects_[id];
    obj.size = size;
    obj.unstable_size = size;
    return OkStatus();
  }
  Object& obj = obj_it->second;
  const BlockIndex keep = (size + kStoreBlockSize - 1) / kStoreBlockSize;
  const auto stable_cut = LowerBound(obj.blocks, keep);
  for (auto it = stable_cut; it != obj.blocks.end(); ++it) {
    Release(*it);
  }
  obj.blocks.erase(stable_cut, obj.blocks.end());
  const auto dirty_cut = LowerBound(obj.dirty, keep);
  for (auto it = dirty_cut; it != obj.dirty.end(); ++it) {
    pages_.Unref(it->page);
  }
  obj.dirty.erase(dirty_cut, obj.dirty.end());
  // Zero the tail of the boundary block so a later size extension exposes
  // zeros, not resurrected bytes (POSIX truncate semantics).
  const size_t tail = size % kStoreBlockSize;
  if (tail != 0 && size < std::max(obj.size, obj.unstable_size)) {
    const BlockIndex boundary = size / kStoreBlockSize;
    if (StoreBlock* stable = FindBlock(obj.blocks, boundary); stable != nullptr) {
      std::memset(Writable(&stable->page, kStoreBlockSize - tail) + tail, 0,
                  kStoreBlockSize - tail);
    }
    if (DirtyBlock* dirty = FindBlock(obj.dirty, boundary); dirty != nullptr) {
      std::memset(Writable(&dirty->page, kStoreBlockSize - tail) + tail, 0,
                  kStoreBlockSize - tail);
    }
  }
  // setattr(size) is durable metadata: both shrink and extension survive a
  // crash (matching the implicit-creation path above).
  obj.size = size;
  obj.unstable_size = size;
  return OkStatus();
}

Status ObjectStore::Remove(ObjectId id) {
  auto obj_it = objects_.find(id);
  if (obj_it == objects_.end()) {
    return Status(StatusCode::kNotFound, "store: no such object");
  }
  for (const StoreBlock& block : obj_it->second.blocks) {
    Release(block);
  }
  for (const DirtyBlock& dirty : obj_it->second.dirty) {
    pages_.Unref(dirty.page);
  }
  objects_.erase(obj_it);
  return OkStatus();
}

void ObjectStore::CrashDiscardDirty() {
  for (auto& [id, obj] : objects_) {
    (void)id;
    for (const DirtyBlock& dirty : obj.dirty) {
      pages_.Unref(dirty.page);
    }
    obj.dirty.clear();
    obj.unstable_size = obj.size;
  }
}

Result<uint64_t> ObjectStore::Size(ObjectId id) const {
  const auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status(StatusCode::kNotFound, "store: no such object");
  }
  return std::max(it->second.size, it->second.unstable_size);
}

uint64_t ObjectStore::SizeOrZero(ObjectId id) const {
  const auto it = objects_.find(id);
  return it == objects_.end() ? 0 : std::max(it->second.size, it->second.unstable_size);
}

uint64_t ObjectStore::AllocatedBytes(ObjectId id) const {
  const auto it = objects_.find(id);
  return it == objects_.end() ? 0 : it->second.blocks.size() * kStoreBlockSize;
}

uint64_t ObjectStore::dirty_blocks() const {
  uint64_t n = 0;
  for (const auto& [id, obj] : objects_) {
    (void)id;
    n += obj.dirty.size();
  }
  return n;
}

std::optional<PhysBlock> ObjectStore::PhysicalFor(ObjectId id, BlockIndex block) const {
  const auto it = objects_.find(id);
  if (it == objects_.end()) {
    return std::nullopt;
  }
  const StoreBlock* stable = FindBlock(it->second.blocks, block);
  if (stable == nullptr) {
    return std::nullopt;
  }
  return stable->phys;
}

std::span<const StoreBlock> ObjectStore::BlocksFrom(ObjectId id, BlockIndex first) const {
  const auto it = objects_.find(id);
  if (it == objects_.end()) {
    return {};
  }
  const std::vector<StoreBlock>& blocks = it->second.blocks;
  return std::span<const StoreBlock>(blocks).subspan(
      static_cast<size_t>(LowerBound(blocks, first) - blocks.begin()));
}

}  // namespace slice
