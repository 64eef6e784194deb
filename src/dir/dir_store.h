// Directory cell store: one server's resident name entries and attribute
// cells. The paper's prototype keeps "webs of linked fixed-size cells ...
// indexed by hash chains keyed by an MD5 hash fingerprint on the parent file
// handle and name" (§4.3). Here the MD5 fingerprint decides only placement
// (NameFingerprint -> NameHashSite, in the µproxy and DirServer); in memory
// each directory's resident entries form one name-ordered table, so a lookup
// is a binary search and a READDIR page is a merge of the sites' tables.
//
// Name entries and attribute cells for a directory may live on different
// servers (cross-site links); this store only manages one server's resident
// cells. Placement policy lives in the µproxy and DirServer.
#ifndef SLICE_DIR_DIR_STORE_H_
#define SLICE_DIR_DIR_STORE_H_

#include <algorithm>
#include <array>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/nfs/nfs_types.h"

namespace slice {

// Fingerprint for a (parent directory, name) pair: the name-hashing routing
// key. Shared by µproxy and directory servers.
uint64_t NameFingerprint(const FileHandle& parent, std::string_view name);

struct NameCell {
  std::string name;
  FileHandle child;
};

struct AttrCell {
  Fattr3 attr;
  std::string symlink_target;  // kLnk cells only
};

class DirStore {
 public:
  // --- name entries ---
  Status InsertEntry(uint64_t parent_id, const std::string& name, const FileHandle& child);
  Result<FileHandle> FindEntry(uint64_t parent_id, const std::string& name) const;
  Status EraseEntry(uint64_t parent_id, const std::string& name);
  // Entries of `dir_id` resident on this server, name-ordered.
  std::span<const NameCell> Entries(uint64_t dir_id) const;
  size_t CountDir(uint64_t dir_id) const { return Entries(dir_id).size(); }

  // --- attribute cells ---
  Status InsertAttr(uint64_t fileid, const Fattr3& attr);
  AttrCell* FindAttr(uint64_t fileid);
  const AttrCell* FindAttr(uint64_t fileid) const;
  Status EraseAttr(uint64_t fileid);

  size_t entry_count() const { return entry_count_; }
  size_t attr_count() const { return attrs_.size(); }
  void Clear();

  // Full scans, used by failover handoff and slot re-striping to find the
  // cells a site or slot owns. Entries come in (directory, name) order as
  // fn(dir_id, cell).
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const auto& [dir_id, table] : tables_) {
      for (const NameCell& cell : table) {
        fn(dir_id, cell);
      }
    }
  }
  template <typename Fn>
  void ForEachAttr(Fn&& fn) const {
    for (const auto& [fileid, cell] : attrs_) {
      fn(fileid, cell);
    }
  }

 private:
  // Directory fileid -> its resident entries sorted by name. Erasing a
  // directory's last entry drops its table, so no table is empty.
  std::map<uint64_t, std::vector<NameCell>> tables_;
  size_t entry_count_ = 0;
  std::unordered_map<uint64_t, AttrCell> attrs_;
};

// The global name order of one directory over its tables on several stores:
// under name hashing a directory is scattered across every site (§3.2). An
// entry's rank is its position in the union of the tables sorted by name;
// equal names, which only a transient duplicate can make, order by store.
// READDIR cookies are ranks: cookie c resumes at rank c. It points into the
// stores' tables, so they must not change while it is in use.
class MergedDir {
 public:
  // Positioned at rank `start`, or done if the directory has no more
  // entries. Seeks by binary search, then walks the few ranks left.
  MergedDir(std::span<const DirStore* const> stores, uint64_t dir_id, uint64_t start);
  MergedDir(const MergedDir&) = delete;
  MergedDir& operator=(const MergedDir&) = delete;

  bool done() const { return rank_ >= total_; }
  uint64_t rank() const { return rank_; }
  // The entry at rank(); valid only while !done().
  const NameCell& cell() const { return *cursors_[min_].pos; }
  void Next();

 private:
  struct Cursor {
    const NameCell* pos = nullptr;
    const NameCell* end = nullptr;
  };
  // Points min_ at the cursor holding the next entry in merged order.
  void FindMin();

  // One cursor per store; up to kInline stay in place, more spill to the
  // heap, so a READDIR page over a few sites allocates nothing.
  static constexpr size_t kInline = 8;
  std::array<Cursor, kInline> inline_;
  std::vector<Cursor> spill_;
  std::span<Cursor> cursors_;
  size_t min_ = 0;
  uint64_t rank_ = 0;
  uint64_t total_ = 0;
};

// A READDIR page's reply budget for a request of `count` bytes.
inline uint32_t ReaddirBudget(uint32_t count) { return std::max<uint32_t>(count, 512); }

// What one entry with a name of `name_size` bytes costs against the budget:
// its XDR size, plus attributes and a handle for READDIRPLUS.
inline uint32_t ReaddirEntryCost(size_t name_size, bool plus) {
  return static_cast<uint32_t>(24 + name_size) +
         (plus ? static_cast<uint32_t>(kFattr3WireSize + FileHandle::kSize + 12) : 0);
}

// The most entries one page of `count` bytes can hold.
inline size_t ReaddirPageBound(uint32_t count, bool plus) {
  return ReaddirBudget(count) / ReaddirEntryCost(0, plus);
}

// One READDIR page of `dir_id` over `stores`, from rank `cookie`: entries in
// merged order while their ReaddirEntryCost fits the ReaddirBudget of
// `count` bytes. Calls emit(cell, cookie) for each entry, where `cookie`
// resumes after it. Returns eof: true if no entry was left out.
template <typename Emit>
bool ReaddirPage(std::span<const DirStore* const> stores, uint64_t dir_id, uint64_t cookie,
                 uint32_t count, bool plus, Emit&& emit) {
  const uint32_t budget = ReaddirBudget(count);
  uint32_t used = 0;
  for (MergedDir merged(stores, dir_id, cookie); !merged.done(); merged.Next()) {
    const NameCell& cell = merged.cell();
    const uint32_t entry_size = ReaddirEntryCost(cell.name.size(), plus);
    if (used + entry_size > budget) {
      return false;
    }
    used += entry_size;
    emit(cell, merged.rank() + 1);
  }
  return true;
}

}  // namespace slice

#endif  // SLICE_DIR_DIR_STORE_H_
