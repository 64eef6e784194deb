// µproxy attribute cache (paper §4.1): directory servers hold the
// authoritative attributes, but I/O flows past them straight to storage and
// small-file servers. The µproxy keeps attributes current by updating its
// cache as each operation completes, patching a complete, fresh attribute
// set into every reply, and pushing modified attributes back to the
// directory server with setattr on eviction, commit, or a periodic timer.
#ifndef SLICE_CORE_ATTR_CACHE_H_
#define SLICE_CORE_ATTR_CACHE_H_

#include <unordered_map>
#include <vector>

#include "src/common/hash.h"
#include "src/nfs/nfs_types.h"
#include "src/sim/event_queue.h"

namespace slice {

// A cache entry in its map node, with the key it is stored under and its
// links in the cache's recency list.
template <typename Entry>
struct LruNode {
  Entry entry;
  uint64_t key = 0;
  LruNode* prev = nullptr;
  LruNode* next = nullptr;
};

// A recency list threaded through the LruNodes of an unordered_map, whose
// nodes never move: a touch, an insert or an erase relinks pointers and
// allocates nothing, as the block cache's index-threaded list does
// (DESIGN.md §7.1).
template <typename Entry>
class LruList {
 public:
  using Node = LruNode<Entry>;

  Node* back() const { return tail_; }

  void PushFront(Node* node) {
    node->prev = nullptr;
    node->next = head_;
    (head_ != nullptr ? head_->prev : tail_) = node;
    head_ = node;
  }

  void Unlink(Node* node) {
    (node->prev != nullptr ? node->prev->next : head_) = node->next;
    (node->next != nullptr ? node->next->prev : tail_) = node->prev;
  }

  void MoveToFront(Node* node) {
    if (head_ != node) {
      Unlink(node);
      PushFront(node);
    }
  }

  void Clear() { head_ = tail_ = nullptr; }

 private:
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
};

class AttrCache {
 public:
  explicit AttrCache(size_t capacity) : capacity_(capacity) {}

  struct Entry {
    Fattr3 attr;
    bool dirty = false;  // size/mtime modified locally, not yet written back
    // True once a full attribute set from a server reply has been merged.
    // NoteWrite-only entries are partial (size/times only) and must not be
    // served as a complete getattr answer.
    bool complete = false;
  };

  // Merges attributes seen in a server reply. Locally cached size/times win
  // when the entry is dirty (the µproxy has seen I/O the server has not).
  void MergeFromReply(uint64_t fileid, const Fattr3& attr);

  // Applies the attribute side effects of an I/O operation.
  void NoteRead(uint64_t fileid, NfsTime now);
  void NoteWrite(uint64_t fileid, uint64_t end_offset, NfsTime now);

  // Current view, if cached.
  const Entry* Find(uint64_t fileid) const;

  // Marks an entry clean (after a successful writeback).
  void MarkClean(uint64_t fileid);
  void Erase(uint64_t fileid);
  void Clear();

  // Dirty fileids needing writeback. `all` = periodic flush; otherwise only
  // entries at least `min_age` stale would be returned by the caller's
  // policy (we simply return all dirty entries — the caller owns cadence).
  std::vector<uint64_t> DirtyFiles() const;

  // Epoch invalidation: drops every *clean* entry matching `pred(fileid)`
  // and returns how many were dropped. Dirty entries survive — the µproxy is
  // authoritative for them until writeback, and writeback re-resolves the
  // directory server from the current table at send time.
  template <typename Pred>
  size_t FlushWhere(Pred pred) {
    size_t flushed = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (!it->second.entry.dirty && pred(it->first)) {
        lru_.Unlink(&it->second);
        it = entries_.erase(it);
        ++flushed;
      } else {
        ++it;
      }
    }
    return flushed;
  }

  size_t size() const { return entries_.size(); }
  uint64_t evictions() const { return evictions_; }
  // Dirty entries that were evicted by capacity pressure since the last
  // call; their attributes must still be written back.
  std::vector<std::pair<uint64_t, Fattr3>> TakeEvictedDirty();

 private:
  Entry& GetOrInsert(uint64_t fileid);

  size_t capacity_;
  // Iteration order of entries_ is the writeback order of DirtyFiles().
  std::unordered_map<uint64_t, LruNode<Entry>> entries_;
  LruList<Entry> lru_;
  std::vector<std::pair<uint64_t, Fattr3>> evicted_dirty_;
  uint64_t evictions_ = 0;
};

// In-proxy directory-lookup cache (Fletch-style: metadata resolution at the
// interposition point). Keyed by (directory fileid, name fingerprint); an
// entry memoizes the LOOKUP result — child handle + attributes — plus the
// logical name slot it was resolved under, so an epoch bump that rebinds a
// slot can flush exactly the entries resolved through the stale binding.
// Bounded and LRU-evicted; an entry lives until it is evicted or
// invalidated. The probe path (Find) performs no allocation: a hash lookup
// plus a relink.
class LookupCache {
 public:
  explicit LookupCache(size_t capacity) : capacity_(capacity) {}

  struct Entry {
    uint64_t dir_id = 0;  // verified on hit: the map key is a folded hash
    uint64_t name_fp = 0;
    FileHandle fh;
    Fattr3 attr;
    uint32_t slot = 0;  // logical name slot at fill time
  };

  // nullptr on miss or mismatch (key-fold collision). Touches LRU on hit.
  const Entry* Find(uint64_t dir_id, uint64_t name_fp);

  void Insert(uint64_t dir_id, uint64_t name_fp, const FileHandle& fh,
              const Fattr3& attr, uint32_t slot);

  void Erase(uint64_t dir_id, uint64_t name_fp);

  // Epoch invalidation: drops entries whose fill-time slot is marked in
  // `changed` (indexed by slot). Returns the number dropped.
  size_t InvalidateSlots(const std::vector<uint8_t>& changed);

  void Clear();

  size_t size() const { return entries_.size(); }
  uint64_t evictions() const { return evictions_; }

  static uint64_t KeyOf(uint64_t dir_id, uint64_t name_fp) {
    return MixU64(dir_id ^ MixU64(name_fp));
  }

 private:
  void EraseKey(uint64_t key);

  size_t capacity_;
  std::unordered_map<uint64_t, LruNode<Entry>> entries_;
  LruList<Entry> lru_;
  uint64_t evictions_ = 0;
};

}  // namespace slice

#endif  // SLICE_CORE_ATTR_CACHE_H_
