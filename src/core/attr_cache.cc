#include "src/core/attr_cache.h"

#include <algorithm>

namespace slice {

AttrCache::Entry& AttrCache::GetOrInsert(uint64_t fileid) {
  auto it = entries_.find(fileid);
  if (it != entries_.end()) {
    lru_.MoveToFront(&it->second);
    return it->second.entry;
  }
  if (entries_.size() >= capacity_ && lru_.back() != nullptr) {
    LruNode<Entry>* victim = lru_.back();
    lru_.Unlink(victim);
    if (victim->entry.dirty) {
      evicted_dirty_.emplace_back(victim->key, victim->entry.attr);
    }
    entries_.erase(victim->key);
    ++evictions_;
  }
  LruNode<Entry>& node = entries_[fileid];
  node.key = fileid;
  lru_.PushFront(&node);
  return node.entry;
}

void AttrCache::MergeFromReply(uint64_t fileid, const Fattr3& attr) {
  Entry& entry = GetOrInsert(fileid);
  entry.complete = true;  // a reply carries the full attribute set
  if (entry.dirty) {
    // Keep our fresher I/O-derived size/times; adopt the rest.
    const uint64_t size = std::max(entry.attr.size, attr.size);
    const NfsTime mtime = entry.attr.mtime < attr.mtime ? attr.mtime : entry.attr.mtime;
    const NfsTime atime = entry.attr.atime < attr.atime ? attr.atime : entry.attr.atime;
    entry.attr = attr;
    entry.attr.size = size;
    entry.attr.mtime = mtime;
    entry.attr.atime = atime;
  } else {
    entry.attr = attr;
  }
}

void AttrCache::NoteRead(uint64_t fileid, NfsTime now) {
  auto it = entries_.find(fileid);
  if (it == entries_.end()) {
    return;  // nothing cached to update; the reply merge will seed it
  }
  lru_.MoveToFront(&it->second);
  it->second.entry.attr.atime = now;
}

void AttrCache::NoteWrite(uint64_t fileid, uint64_t end_offset, NfsTime now) {
  Entry& entry = GetOrInsert(fileid);
  entry.attr.fileid = fileid;
  entry.attr.size = std::max(entry.attr.size, end_offset);
  entry.attr.mtime = now;
  entry.attr.ctime = now;
  entry.dirty = true;
}

const AttrCache::Entry* AttrCache::Find(uint64_t fileid) const {
  const auto it = entries_.find(fileid);
  return it == entries_.end() ? nullptr : &it->second.entry;
}

void AttrCache::MarkClean(uint64_t fileid) {
  auto it = entries_.find(fileid);
  if (it != entries_.end()) {
    it->second.entry.dirty = false;
  }
}

void AttrCache::Erase(uint64_t fileid) {
  auto it = entries_.find(fileid);
  if (it != entries_.end()) {
    lru_.Unlink(&it->second);
    entries_.erase(it);
  }
}

void AttrCache::Clear() {
  entries_.clear();
  lru_.Clear();
  evicted_dirty_.clear();
}

std::vector<uint64_t> AttrCache::DirtyFiles() const {
  std::vector<uint64_t> out;
  for (const auto& [fileid, node] : entries_) {
    if (node.entry.dirty) {
      out.push_back(fileid);
    }
  }
  return out;
}

std::vector<std::pair<uint64_t, Fattr3>> AttrCache::TakeEvictedDirty() {
  return std::exchange(evicted_dirty_, {});
}

const LookupCache::Entry* LookupCache::Find(uint64_t dir_id, uint64_t name_fp) {
  auto it = entries_.find(KeyOf(dir_id, name_fp));
  if (it == entries_.end()) {
    return nullptr;
  }
  const Entry& e = it->second.entry;
  if (e.dir_id != dir_id || e.name_fp != name_fp) {
    return nullptr;  // key-fold collision; treat as a miss, do not evict
  }
  lru_.MoveToFront(&it->second);
  return &e;
}

void LookupCache::Insert(uint64_t dir_id, uint64_t name_fp,
                         const FileHandle& fh, const Fattr3& attr,
                         uint32_t slot) {
  const uint64_t key = KeyOf(dir_id, name_fp);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (entries_.size() >= capacity_ && lru_.back() != nullptr) {
      EraseKey(lru_.back()->key);
      ++evictions_;
    }
    it = entries_.emplace(key, LruNode<Entry>{}).first;
    it->second.key = key;
    lru_.PushFront(&it->second);
  } else {
    lru_.MoveToFront(&it->second);
  }
  Entry& e = it->second.entry;
  e.dir_id = dir_id;
  e.name_fp = name_fp;
  e.fh = fh;
  e.attr = attr;
  e.slot = slot;
}

void LookupCache::Erase(uint64_t dir_id, uint64_t name_fp) {
  EraseKey(KeyOf(dir_id, name_fp));
}

size_t LookupCache::InvalidateSlots(const std::vector<uint8_t>& changed) {
  size_t flushed = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const uint32_t slot = it->second.entry.slot;
    if (slot < changed.size() && changed[slot]) {
      lru_.Unlink(&it->second);
      it = entries_.erase(it);
      ++flushed;
    } else {
      ++it;
    }
  }
  return flushed;
}

void LookupCache::Clear() {
  entries_.clear();
  lru_.Clear();
}

void LookupCache::EraseKey(uint64_t key) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    lru_.Unlink(&it->second);
    entries_.erase(it);
  }
}

}  // namespace slice
