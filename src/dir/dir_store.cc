#include "src/dir/dir_store.h"

#include "src/common/md5.h"

namespace slice {
namespace {

bool NameBefore(const NameCell& cell, std::string_view name) { return cell.name < name; }

}  // namespace

uint64_t NameFingerprint(const FileHandle& parent, std::string_view name) {
  Md5 ctx;
  ctx.Update(parent.bytes());
  ctx.Update(name);
  return Md5Fingerprint64(ctx.Finish());
}

Status DirStore::InsertEntry(uint64_t parent_id, const std::string& name,
                             const FileHandle& child) {
  std::vector<NameCell>& table = tables_[parent_id];
  const auto it = std::lower_bound(table.begin(), table.end(), name, NameBefore);
  if (it != table.end() && it->name == name) {
    return Status(StatusCode::kAlreadyExists, "dir: entry exists");
  }
  table.insert(it, NameCell{name, child});
  ++entry_count_;
  return OkStatus();
}

Result<FileHandle> DirStore::FindEntry(uint64_t parent_id, const std::string& name) const {
  const std::span<const NameCell> table = Entries(parent_id);
  const auto it = std::lower_bound(table.begin(), table.end(), name, NameBefore);
  if (it == table.end() || it->name != name) {
    return Status(StatusCode::kNotFound, "dir: no entry");
  }
  return it->child;
}

Status DirStore::EraseEntry(uint64_t parent_id, const std::string& name) {
  const auto tit = tables_.find(parent_id);
  if (tit != tables_.end()) {
    std::vector<NameCell>& table = tit->second;
    const auto it = std::lower_bound(table.begin(), table.end(), name, NameBefore);
    if (it != table.end() && it->name == name) {
      table.erase(it);
      --entry_count_;
      if (table.empty()) {
        tables_.erase(tit);
      }
      return OkStatus();
    }
  }
  return Status(StatusCode::kNotFound, "dir: no entry");
}

std::span<const NameCell> DirStore::Entries(uint64_t dir_id) const {
  const auto it = tables_.find(dir_id);
  if (it == tables_.end()) {
    return {};
  }
  return it->second;
}

Status DirStore::InsertAttr(uint64_t fileid, const Fattr3& attr) {
  auto [it, inserted] = attrs_.emplace(fileid, AttrCell{attr, {}});
  if (!inserted) {
    return Status(StatusCode::kAlreadyExists, "dir: attr cell exists");
  }
  return OkStatus();
}

AttrCell* DirStore::FindAttr(uint64_t fileid) {
  auto it = attrs_.find(fileid);
  return it == attrs_.end() ? nullptr : &it->second;
}

const AttrCell* DirStore::FindAttr(uint64_t fileid) const {
  const auto it = attrs_.find(fileid);
  return it == attrs_.end() ? nullptr : &it->second;
}

Status DirStore::EraseAttr(uint64_t fileid) {
  if (attrs_.erase(fileid) == 0) {
    return Status(StatusCode::kNotFound, "dir: no attr cell");
  }
  return OkStatus();
}

void DirStore::Clear() {
  tables_.clear();
  entry_count_ = 0;
  attrs_.clear();
}

// --- merged order ---

MergedDir::MergedDir(std::span<const DirStore* const> stores, uint64_t dir_id,
                     uint64_t start) {
  if (stores.size() <= kInline) {
    cursors_ = std::span<Cursor>(inline_.data(), stores.size());
  } else {
    spill_.resize(stores.size());
    cursors_ = spill_;
  }
  size_t pivot = 0;
  size_t pivot_size = 0;
  for (size_t u = 0; u < stores.size(); ++u) {
    const std::span<const NameCell> table = stores[u]->Entries(dir_id);
    if (table.size() > pivot_size) {
      pivot = u;
      pivot_size = table.size();
    }
    cursors_[u] = {table.data(), table.data() + table.size()};
    total_ += table.size();
  }
  if (start >= total_) {
    rank_ = total_;
    return;
  }

  // With every cursor at its table's lower_bound of a name, the merge stands
  // at that name's first entry, whose rank is the sum of the offsets. For
  // the names of the largest table that rank rises with the index, so a
  // binary search finds the last one ranked at or before `start`; the walk
  // below covers the few ranks between it and `start`.
  const NameCell* const names = cursors_[pivot].pos;
  const auto seek = [&](std::string_view name, bool move) {
    uint64_t rank = 0;
    for (Cursor& c : cursors_) {
      const NameCell* at = std::lower_bound(c.pos, c.end, name, NameBefore);
      rank += static_cast<uint64_t>(at - c.pos);
      if (move) {
        c.pos = at;
      }
    }
    return rank;
  };
  size_t lo = 0;
  size_t hi = pivot_size;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (seek(names[mid].name, /*move=*/false) <= start) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo > 0) {
    rank_ = seek(names[lo - 1].name, /*move=*/true);
  }
  FindMin();
  while (rank_ < start) {
    Next();
  }
}

void MergedDir::Next() {
  ++cursors_[min_].pos;
  ++rank_;
  if (!done()) {
    FindMin();
  }
}

void MergedDir::FindMin() {
  min_ = cursors_.size();
  for (size_t u = 0; u < cursors_.size(); ++u) {
    const Cursor& c = cursors_[u];
    if (c.pos != c.end && (min_ == cursors_.size() || c.pos->name < cursors_[min_].pos->name)) {
      min_ = u;
    }
  }
}

}  // namespace slice
