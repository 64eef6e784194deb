#include "src/core/attr_cache.h"

#include <algorithm>

namespace slice {

AttrCache::Entry& AttrCache::GetOrInsert(uint64_t fileid) {
  auto it = entries_.find(fileid);
  if (it != entries_.end()) {
    TouchLru(fileid);
    return it->second;
  }
  if (entries_.size() >= capacity_ && !lru_.empty()) {
    const uint64_t victim = lru_.back();
    lru_.pop_back();
    lru_index_.erase(victim);
    auto victim_it = entries_.find(victim);
    if (victim_it != entries_.end()) {
      if (victim_it->second.dirty) {
        evicted_dirty_.emplace_back(victim, victim_it->second.attr);
      }
      entries_.erase(victim_it);
    }
    ++evictions_;
  }
  lru_.push_front(fileid);
  lru_index_[fileid] = lru_.begin();
  return entries_[fileid];
}

void AttrCache::TouchLru(uint64_t fileid) {
  auto it = lru_index_.find(fileid);
  if (it != lru_index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
  }
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
  TouchLru(fileid);
  it->second.attr.atime = now;
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
  return it == entries_.end() ? nullptr : &it->second;
}

void AttrCache::MarkClean(uint64_t fileid) {
  auto it = entries_.find(fileid);
  if (it != entries_.end()) {
    it->second.dirty = false;
  }
}

void AttrCache::Erase(uint64_t fileid) {
  auto it = lru_index_.find(fileid);
  if (it != lru_index_.end()) {
    lru_.erase(it->second);
    lru_index_.erase(it);
  }
  entries_.erase(fileid);
}

void AttrCache::Clear() {
  entries_.clear();
  lru_.clear();
  lru_index_.clear();
  evicted_dirty_.clear();
}

std::vector<uint64_t> AttrCache::DirtyFiles() const {
  std::vector<uint64_t> out;
  for (const auto& [fileid, entry] : entries_) {
    if (entry.dirty) {
      out.push_back(fileid);
    }
  }
  return out;
}

std::vector<std::pair<uint64_t, Fattr3>> AttrCache::TakeEvictedDirty() {
  return std::exchange(evicted_dirty_, {});
}

const LookupCache::Entry* LookupCache::Find(uint64_t dir_id, uint64_t name_fp) {
  const uint64_t key = KeyOf(dir_id, name_fp);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return nullptr;
  }
  const Entry& e = it->second;
  if (e.dir_id != dir_id || e.name_fp != name_fp) {
    return nullptr;  // key-fold collision; treat as a miss, do not evict
  }
  TouchLru(key);
  return &it->second;
}

void LookupCache::Insert(uint64_t dir_id, uint64_t name_fp,
                         const FileHandle& fh, const Fattr3& attr,
                         uint32_t slot) {
  const uint64_t key = KeyOf(dir_id, name_fp);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (entries_.size() >= capacity_ && !lru_.empty()) {
      const uint64_t victim = lru_.back();
      lru_.pop_back();
      lru_index_.erase(victim);
      entries_.erase(victim);
      ++evictions_;
    }
    lru_.push_front(key);
    lru_index_[key] = lru_.begin();
    it = entries_.emplace(key, Entry{}).first;
  } else {
    TouchLru(key);
  }
  Entry& e = it->second;
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
    const uint32_t slot = it->second.slot;
    if (slot < changed.size() && changed[slot]) {
      auto lru_it = lru_index_.find(it->first);
      if (lru_it != lru_index_.end()) {
        lru_.erase(lru_it->second);
        lru_index_.erase(lru_it);
      }
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
  lru_.clear();
  lru_index_.clear();
}

void LookupCache::TouchLru(uint64_t key) {
  auto it = lru_index_.find(key);
  if (it != lru_index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
  }
}

void LookupCache::EraseKey(uint64_t key) {
  auto it = lru_index_.find(key);
  if (it != lru_index_.end()) {
    lru_.erase(it->second);
    lru_index_.erase(it);
  }
  entries_.erase(key);
}

}  // namespace slice
