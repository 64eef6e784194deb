#include "src/dir/dir_server.h"

#include <algorithm>
#include <cstdio>

#include "src/common/logging.h"
#include "src/mgmt/mgmt_proto.h"

namespace slice {

DirServer::DirServer(Network& net, EventQueue& queue, NetAddr addr, DirServerParams params,
                     const obs::Sinks& sinks)
    : RpcServerNode(net, queue, addr, kNfsPort, kNfsProgram, kNfsVersion, {}, sinks),
      params_(params),
      next_counter_(params.site == 0 ? kRootFileid + 1 : 1) {
  if (params_.backing_node.addr != 0) {
    wal_ = std::make_unique<WriteAheadLog>(host(), queue, params_.backing_node,
                                           params_.backing_object, WalParams{}, sinks);
  }
  if (params_.site == 0) {
    Fattr3 root = NewAttr(kRootFileid, FileType3::kDir);
    ApplyUpsertAttr(kRootFileid, root, "", /*log=*/true);
  }
  if (sinks.metrics != nullptr && sinks.metrics->enabled()) {
    RegisterDirInstruments(*sinks.metrics);
  }
}

FileHandle DirServer::RootHandle() const {
  return FileHandle::Make(params_.volume, kRootFileid, 1, FileType3::kDir, 1,
                          params_.volume_secret);
}

NfsTime DirServer::Now() const {
  return NfsTime{static_cast<uint32_t>(now() / kNanosPerSec),
                 static_cast<uint32_t>(now() % kNanosPerSec)};
}

FileHandle DirServer::MintHandle(uint64_t fileid, FileType3 type) const {
  const uint8_t replication = type == FileType3::kReg ? params_.default_replication : 1;
  return FileHandle::Make(params_.volume, fileid, 1, type, replication, params_.volume_secret);
}

Fattr3 DirServer::NewAttr(uint64_t fileid, FileType3 type) const {
  Fattr3 attr;
  attr.type = type;
  attr.mode = type == FileType3::kDir ? 0755 : 0644;
  attr.nlink = type == FileType3::kDir ? 2 : 1;
  attr.size = 0;
  attr.used = 0;
  attr.fsid = params_.volume;
  attr.fileid = fileid;
  attr.atime = attr.mtime = attr.ctime = Now();
  return attr;
}

// --- logged primitives ---

void DirServer::ApplyInsertEntry(uint64_t parent, const std::string& name,
                                 const FileHandle& child, bool log) {
  (void)store_.InsertEntry(parent, name, child);
  if (log && wal_) {
    wal_->Append(LogOp::kInsertEntry, InsertEntryRecord{parent, name, child});
  }
}

void DirServer::ApplyEraseEntry(uint64_t parent, const std::string& name, bool log) {
  (void)store_.EraseEntry(parent, name);
  if (log && wal_) {
    wal_->Append(LogOp::kEraseEntry, EraseEntryRecord{parent, name});
  }
}

void DirServer::ApplyUpsertAttr(uint64_t fileid, const Fattr3& attr, const std::string& symlink,
                                bool log) {
  AttrCell* cell = store_.FindAttr(fileid);
  if (cell == nullptr) {
    (void)store_.InsertAttr(fileid, attr);
    cell = store_.FindAttr(fileid);
  } else {
    cell->attr = attr;
  }
  if (!symlink.empty()) {
    cell->symlink_target = symlink;
  }
  if (log && wal_) {
    wal_->Append(LogOp::kUpsertAttr, UpsertAttrRecord{fileid, cell->attr, cell->symlink_target});
  }
}

void DirServer::ApplyEraseAttr(uint64_t fileid, bool log) {
  (void)store_.EraseAttr(fileid);
  if (log && wal_) {
    wal_->Append(LogOp::kEraseAttr, EraseAttrRecord{fileid});
  }
}

void DirServer::ReplayRecord(ByteSpan record, bool relog) {
  XdrDecoder dec(record);
  LogOp op{};
  XdrField(dec, op);
  if (!dec.ok()) {
    SLICE_WLOG << "dir: bad log record";
    return;
  }
  switch (op) {
    case LogOp::kInsertEntry:
      if (const auto r = XdrDecode<InsertEntryRecord>(dec); r.ok()) {
        ApplyInsertEntry(r->parent, std::string(r->name), r->child, /*log=*/relog);
      }
      break;
    case LogOp::kEraseEntry:
      if (const auto r = XdrDecode<EraseEntryRecord>(dec); r.ok()) {
        ApplyEraseEntry(r->parent, std::string(r->name), /*log=*/relog);
      }
      break;
    case LogOp::kUpsertAttr:
      if (const auto r = XdrDecode<UpsertAttrRecord>(dec); r.ok()) {
        ApplyUpsertAttr(r->fileid, r->attr, std::string(r->symlink), /*log=*/relog);
        if (SiteOfFileid(r->fileid) == params_.site) {
          const uint64_t counter = r->fileid & ((1ull << 48) - 1);
          next_counter_ = std::max(next_counter_, counter + 1);
        }
      }
      break;
    case LogOp::kEraseAttr:
      if (const auto r = XdrDecode<EraseAttrRecord>(dec); r.ok()) {
        ApplyEraseAttr(r->fileid, /*log=*/relog);
      }
      break;
  }
}

void DirServer::OnRestart() {
  if (!wal_) {
    return;  // nothing to recover from; state is simply lost
  }
  // The crash lost in-memory cells and any unflushed log tail.
  wal_->DiscardBuffered();
  store_.Clear();
  recovering_ = true;
  wal_->Replay([this](ByteSpan record) { ReplayRecord(record); },
               [this](Status st) {
                 if (!st.ok()) {
                   SLICE_ELOG << "dir: recovery replay failed: " << st.ToString();
                 }
                 recovering_ = false;
                 SLICE_ILOG << "dir site " << params_.site << " recovered "
                            << store_.entry_count() << " entries, " << store_.attr_count()
                            << " attr cells";
                 obs::LogEvent(eventlog(), addr(), queue().now(), obs::EventSev::kInfo,
                               obs::EventCat::kFailover, obs::EventCode::kWalReplay,
                               /*trace_id=*/0, st.ok() ? "recovered" : "failed",
                               {{"site", params_.site},
                                {"entries", static_cast<int64_t>(store_.entry_count())},
                                {"attrs", static_cast<int64_t>(store_.attr_count())}});
               });
}

// --- ensemble control-plane integration ---

void DirServer::SetMgmtView(uint64_t epoch, uint32_t my_physical, std::vector<uint32_t> slots) {
  if (epoch < mgmt_epoch_) {
    return;
  }
  mgmt_epoch_ = epoch;
  my_physical_ = my_physical;
  mgmt_slots_ = std::move(slots);
  misdirect_notified_.clear();
}

bool DirServer::MisroutedByFileid(uint64_t fileid) const {
  if (mgmt_slots_.empty()) {
    return false;
  }
  const uint32_t site = SiteOfFileid(fileid);
  return mgmt_slots_[site % mgmt_slots_.size()] != my_physical_;
}

bool DirServer::MisroutedNameOp(const FileHandle& dir, const std::string& name) const {
  if (mgmt_slots_.empty()) {
    return false;
  }
  if (params_.policy == NamePolicy::kNameHashing) {
    const uint64_t fp = NameFingerprint(dir, name);
    return mgmt_slots_[fp % mgmt_slots_.size()] != my_physical_;
  }
  return MisroutedByFileid(dir.fileid());
}

uint32_t DirServer::EntrySiteById(uint64_t parent_id, const std::string& name) const {
  if (params_.policy == NamePolicy::kNameHashing) {
    // Reconstruct the parent handle the client would present; directory
    // handles are deterministic (generation 1, unmirrored).
    const FileHandle parent = FileHandle::Make(params_.volume, parent_id, 1, FileType3::kDir,
                                               1, params_.volume_secret);
    return NameHashSite(NameFingerprint(parent, name), params_.num_sites);
  }
  return SiteOfFileid(parent_id);
}

void DirServer::AdoptSite(uint32_t site, Endpoint wal_node, FileHandle wal_object,
                          std::function<void(Status)> done) {
  if (site == params_.site || adopted_sites_.contains(site)) {
    if (done) {
      done(OkStatus());
    }
    return;
  }
  ++adopting_;
  SLICE_ILOG << "dir site " << params_.site << ": adopting site " << site;
  // A fresh reader over the dead server's log object; keep it alive until
  // the replay completes.
  auto wal = std::make_shared<WriteAheadLog>(host(), queue(), wal_node, wal_object);
  wal->Replay(
      [this](ByteSpan record) { ReplayRecord(record, /*relog=*/true); },
      [this, site, wal, done = std::move(done)](Status st) {
        --adopting_;
        if (st.ok()) {
          adopted_sites_.insert(site);
          SLICE_ILOG << "dir site " << params_.site << ": adopted site " << site << " ("
                     << store_.entry_count() << " entries now resident)";
        } else {
          SLICE_ELOG << "dir site " << params_.site << ": adoption of site " << site
                     << " failed: " << st.ToString();
        }
        obs::LogEvent(eventlog(), addr(), queue().now(),
                      st.ok() ? obs::EventSev::kInfo : obs::EventSev::kError,
                      obs::EventCat::kFailover, obs::EventCode::kAdoptDone, /*trace_id=*/0,
                      st.ok() ? "adopted" : "failed",
                      {{"site", site}, {"entries", static_cast<int64_t>(store_.entry_count())}});
        if (done) {
          done(st);
        }
      });
}

void DirServer::HandoffSite(uint32_t site, DirServer& target) {
  if (adopted_sites_.erase(site) == 0) {
    return;
  }
  obs::LogEvent(eventlog(), addr(), queue().now(), obs::EventSev::kInfo,
                obs::EventCat::kFailover, obs::EventCode::kHandoff, /*trace_id=*/0, nullptr,
                {{"site", site}, {"to", target.addr()}});
  // Drop the target's stale pre-crash copy first: mutations during the
  // outage — including deletions — exist only in the adopter's store/log,
  // so anything the rejoined server replayed from its own log is stale.
  std::vector<std::pair<uint64_t, NameCell>> stale_entries;
  target.store_.ForEachEntry([&](uint64_t dir_id, const NameCell& cell) {
    if (target.EntrySiteById(dir_id, cell.name) == site) {
      stale_entries.emplace_back(dir_id, cell);
    }
  });
  for (const auto& [dir_id, cell] : stale_entries) {
    target.ApplyEraseEntry(dir_id, cell.name, /*log=*/true);
  }
  std::vector<uint64_t> stale_attrs;
  target.store_.ForEachAttr([&](uint64_t fileid, const AttrCell& cell) {
    (void)cell;
    if (SiteOfFileid(fileid) == site) {
      stale_attrs.push_back(fileid);
    }
  });
  for (uint64_t fileid : stale_attrs) {
    target.ApplyEraseAttr(fileid, /*log=*/true);
  }

  std::vector<std::pair<uint64_t, NameCell>> entries;
  store_.ForEachEntry([&](uint64_t dir_id, const NameCell& cell) {
    if (EntrySiteById(dir_id, cell.name) == site) {
      entries.emplace_back(dir_id, cell);
    }
  });
  std::vector<std::pair<uint64_t, AttrCell>> attrs;
  store_.ForEachAttr([&](uint64_t fileid, const AttrCell& cell) {
    if (SiteOfFileid(fileid) == site) {
      attrs.emplace_back(fileid, cell);
    }
  });
  for (const auto& [dir_id, cell] : entries) {
    target.ApplyInsertEntry(dir_id, cell.name, cell.child, /*log=*/true);
    ApplyEraseEntry(dir_id, cell.name, /*log=*/true);
  }
  for (const auto& [fileid, cell] : attrs) {
    target.ApplyUpsertAttr(fileid, cell.attr, cell.symlink_target, /*log=*/true);
    ApplyEraseAttr(fileid, /*log=*/true);
  }
  SLICE_ILOG << "dir site " << params_.site << ": handed " << entries.size() << " entries, "
             << attrs.size() << " attr cells back to site " << site;
}

void DirServer::MigrateSlot(uint32_t slot, uint32_t num_slots, DirServer& target) {
  if (params_.policy != NamePolicy::kNameHashing || num_slots == 0 || &target == this) {
    return;
  }
  std::vector<std::pair<uint64_t, NameCell>> moved;
  store_.ForEachEntry([&](uint64_t dir_id, const NameCell& cell) {
    const FileHandle parent = FileHandle::Make(params_.volume, dir_id, 1, FileType3::kDir, 1,
                                               params_.volume_secret);
    if (NameFingerprint(parent, cell.name) % num_slots == slot) {
      moved.emplace_back(dir_id, cell);
    }
  });
  for (const auto& [dir_id, cell] : moved) {
    target.ApplyInsertEntry(dir_id, cell.name, cell.child, /*log=*/true);
    ApplyEraseEntry(dir_id, cell.name, /*log=*/true);
  }
  SLICE_ILOG << "dir site " << params_.site << ": migrated slot " << slot << " ("
             << moved.size() << " entries) to site " << target.params_.site;
}

// --- peer protocol ---

void DirServer::ChargePeer(ServiceCost& cost) {
  ++cross_site_ops_;
  cost.AddCpu(FromMicros(params_.peer_cpu_us));
  cost.MergeCompletion(now() + FromMicros(params_.peer_rtt_us));
}

Status DirServer::PeerInsertEntry(uint32_t site, uint64_t parent, const std::string& name,
                                  const FileHandle& child, ServiceCost& cost) {
  if (IsLocalSite(site)) {
    if (store_.FindEntry(parent, name).ok()) {
      return Status(StatusCode::kAlreadyExists, "entry exists");
    }
    ApplyInsertEntry(parent, name, child, /*log=*/true);
    return OkStatus();
  }
  ChargePeer(cost);
  DirServer& peer = Peer(site);
  if (peer.store_.FindEntry(parent, name).ok()) {
    return Status(StatusCode::kAlreadyExists, "entry exists");
  }
  peer.ApplyInsertEntry(parent, name, child, /*log=*/true);
  return OkStatus();
}

Status DirServer::PeerEraseEntry(uint32_t site, uint64_t parent, const std::string& name,
                                 ServiceCost& cost) {
  if (IsLocalSite(site)) {
    if (!store_.FindEntry(parent, name).ok()) {
      return Status(StatusCode::kNotFound, "no entry");
    }
    ApplyEraseEntry(parent, name, /*log=*/true);
    return OkStatus();
  }
  ChargePeer(cost);
  DirServer& peer = Peer(site);
  if (!peer.store_.FindEntry(parent, name).ok()) {
    return Status(StatusCode::kNotFound, "no entry");
  }
  peer.ApplyEraseEntry(parent, name, /*log=*/true);
  return OkStatus();
}

void DirServer::TouchDirAttr(uint64_t dir_id, int entry_delta, int nlink_delta,
                             ServiceCost& cost) {
  const uint32_t site = SiteOfFileid(dir_id);
  DirServer* owner = this;
  if (!IsLocalSite(site)) {
    ChargePeer(cost);
    owner = &Peer(site);
  }
  AttrCell* cell = owner->store_.FindAttr(dir_id);
  if (cell == nullptr) {
    return;
  }
  cell->attr.mtime = cell->attr.ctime = Now();
  cell->attr.size =
      static_cast<uint64_t>(std::max<int64_t>(0, static_cast<int64_t>(cell->attr.size) +
                                                     entry_delta));
  cell->attr.nlink =
      static_cast<uint32_t>(std::max<int64_t>(0, static_cast<int64_t>(cell->attr.nlink) +
                                                     nlink_delta));
  owner->ApplyUpsertAttr(dir_id, cell->attr, cell->symlink_target, /*log=*/true);
}

uint32_t DirServer::AdjustNlink(uint64_t fileid, int delta, ServiceCost& cost) {
  const uint32_t site = SiteOfFileid(fileid);
  DirServer* owner = this;
  if (!IsLocalSite(site)) {
    ChargePeer(cost);
    owner = &Peer(site);
  }
  AttrCell* cell = owner->store_.FindAttr(fileid);
  if (cell == nullptr) {
    return 0;
  }
  const int64_t nlink = std::max<int64_t>(0, static_cast<int64_t>(cell->attr.nlink) + delta);
  cell->attr.nlink = static_cast<uint32_t>(nlink);
  cell->attr.ctime = Now();
  if (nlink == 0) {
    owner->ApplyEraseAttr(fileid, /*log=*/true);
  } else {
    owner->ApplyUpsertAttr(fileid, cell->attr, cell->symlink_target, /*log=*/true);
  }
  return static_cast<uint32_t>(nlink);
}

std::span<const DirStore* const> DirServer::NameSpaceStores(ServiceCost& cost) {
  stores_.assign(1, &store_);
  if (params_.policy == NamePolicy::kNameHashing) {
    for (const DirServer* peer : peers_) {
      if (std::find(stores_.begin(), stores_.end(), &peer->store_) == stores_.end()) {
        ChargePeer(cost);
        stores_.push_back(&peer->store_);
      }
    }
  }
  return stores_;
}

std::optional<Fattr3> DirServer::GetAttrAnywhere(uint64_t fileid, ServiceCost& cost) {
  const uint32_t site = SiteOfFileid(fileid);
  const DirServer* owner = this;
  if (!IsLocalSite(site)) {
    ChargePeer(cost);
    owner = &Peer(site);
  }
  const AttrCell* cell = owner->store_.FindAttr(fileid);
  if (cell == nullptr) {
    return std::nullopt;
  }
  return cell->attr;
}

uint32_t DirServer::EntrySite(const FileHandle& parent, const std::string& name) const {
  if (params_.policy == NamePolicy::kNameHashing) {
    return NameHashSite(NameFingerprint(parent, name), params_.num_sites);
  }
  return SiteOfFileid(parent.fileid());
}

uint32_t DirServer::OwnerSiteForEntry(const FileHandle& parent, const std::string& name) const {
  const uint32_t site = EntrySite(parent, name);
  if (params_.policy != NamePolicy::kNameHashing || mgmt_slots_.empty() || peers_.empty()) {
    return site;
  }
  // A hotspot re-stripe can bind this name's logical slot to a different
  // physical server than the static fold; secondary names (a rename target)
  // must follow the installed view or the entry lands where lookups will
  // never route. When both mappings resolve to the same server, keep the
  // static site so the peer-charge accounting is unchanged.
  const uint64_t fp = NameFingerprint(parent, name);
  const uint32_t phys = mgmt_slots_[fp % mgmt_slots_.size()];
  if (phys < peers_.size() && peers_[phys] != peers_[site % peers_.size()]) {
    return phys;
  }
  return site;
}

// --- NFS handlers ---

void DirServer::HandleGetattr(const GetattrArgs& args, XdrEncoder& reply, ServiceCost& cost) {
  GetattrRes res;
  const AttrCell* cell = store_.FindAttr(args.object.fileid());
  if (cell == nullptr) {
    // Possibly misdirected (stale routing table) or genuinely stale handle.
    std::optional<Fattr3> remote = GetAttrAnywhere(args.object.fileid(), cost);
    if (remote.has_value()) {
      res.attributes = *remote;
    } else {
      res.status = Nfsstat3::kErrStale;
    }
  } else {
    res.attributes = cell->attr;
  }
  res.Encode(reply);
}

void DirServer::HandleSetattr(const SetattrArgs& args, XdrEncoder& reply, ServiceCost& cost) {
  SetattrRes res;
  const uint64_t fileid = args.object.fileid();
  const uint32_t site = SiteOfFileid(fileid);
  DirServer* owner = this;
  if (!IsLocalSite(site)) {
    ChargePeer(cost);
    owner = &Peer(site);
  }
  AttrCell* cell = owner->store_.FindAttr(fileid);
  if (cell == nullptr) {
    res.status = Nfsstat3::kErrStale;
    res.Encode(reply);
    return;
  }
  if (args.guard_ctime.has_value() && !(*args.guard_ctime == cell->attr.ctime)) {
    res.status = Nfsstat3::kErrNotSync;
    res.wcc.after = cell->attr;
    res.Encode(reply);
    return;
  }
  res.wcc.before = WccAttr{cell->attr.size, cell->attr.mtime, cell->attr.ctime};
  const Sattr3& set = args.new_attributes;
  if (set.mode) {
    cell->attr.mode = *set.mode;
  }
  if (set.uid) {
    cell->attr.uid = *set.uid;
  }
  if (set.gid) {
    cell->attr.gid = *set.gid;
  }
  if (set.size) {
    cell->attr.size = *set.size;
    cell->attr.used = *set.size;
  }
  if (set.atime) {
    cell->attr.atime = *set.atime;
  }
  if (set.mtime) {
    cell->attr.mtime = *set.mtime;
  }
  cell->attr.ctime = Now();
  owner->ApplyUpsertAttr(fileid, cell->attr, cell->symlink_target, /*log=*/true);
  res.wcc.after = cell->attr;
  res.Encode(reply);
}

void DirServer::HandleLookup(const DirOpArgs& args, XdrEncoder& reply, ServiceCost& cost) {
  LookupRes res;
  Result<FileHandle> child = store_.FindEntry(args.dir.fileid(), args.name);
  if (const AttrCell* dir_cell = store_.FindAttr(args.dir.fileid()); dir_cell != nullptr) {
    res.dir_attributes = dir_cell->attr;
  }
  if (!child.ok()) {
    res.status = Nfsstat3::kErrNoent;
    res.Encode(reply);
    return;
  }
  res.object = *child;
  res.obj_attributes = GetAttrAnywhere(child->fileid(), cost);
  res.Encode(reply);
}

void DirServer::HandleAccess(const AccessArgs& args, XdrEncoder& reply, ServiceCost& cost) {
  AccessRes res;
  res.obj_attributes = GetAttrAnywhere(args.object.fileid(), cost);
  if (!res.obj_attributes.has_value()) {
    res.status = Nfsstat3::kErrStale;
  } else {
    res.access = args.access;  // permissive: no uid/gid enforcement modeled
  }
  res.Encode(reply);
}

void DirServer::HandleReadlink(const GetattrArgs& args, XdrEncoder& reply, ServiceCost& cost) {
  (void)cost;
  ReadlinkRes res;
  const AttrCell* cell = store_.FindAttr(args.object.fileid());
  if (cell == nullptr || cell->attr.type != FileType3::kLnk) {
    res.status = cell == nullptr ? Nfsstat3::kErrStale : Nfsstat3::kErrInval;
  } else {
    res.symlink_attributes = cell->attr;
    res.target = cell->symlink_target;
  }
  res.Encode(reply);
}

void DirServer::HandleCreate(const CreateArgs& args, XdrEncoder& reply, ServiceCost& cost) {
  CreateRes res;
  Result<FileHandle> existing = store_.FindEntry(args.dir.fileid(), args.name);
  if (existing.ok()) {
    if (args.mode == CreateMode::kUnchecked) {
      res.object = *existing;
      res.obj_attributes = GetAttrAnywhere(existing->fileid(), cost);
    } else {
      res.status = Nfsstat3::kErrExist;
    }
    res.Encode(reply);
    return;
  }
  const uint64_t fileid = MintFileid();
  const FileHandle fh = MintHandle(fileid, FileType3::kReg);
  Fattr3 attr = NewAttr(fileid, FileType3::kReg);
  if (args.attributes.mode) {
    attr.mode = *args.attributes.mode;
  }
  if (args.attributes.size) {
    attr.size = *args.attributes.size;
  }
  ApplyUpsertAttr(fileid, attr, "", /*log=*/true);
  ApplyInsertEntry(args.dir.fileid(), args.name, fh, /*log=*/true);
  TouchDirAttr(args.dir.fileid(), +1, 0, cost);
  res.object = fh;
  res.obj_attributes = attr;
  if (const AttrCell* dir_cell = store_.FindAttr(args.dir.fileid()); dir_cell != nullptr) {
    res.dir_wcc.after = dir_cell->attr;
  }
  res.Encode(reply);
}

void DirServer::HandleMkdir(const MkdirArgs& args, XdrEncoder& reply, ServiceCost& cost) {
  CreateRes res;
  const uint32_t parent_site = SiteOfFileid(args.dir.fileid());

  // Duplicate check at the entry's owning site (the parent's site for mkdir
  // switching, ours for name hashing).
  const uint32_t entry_site =
      params_.policy == NamePolicy::kNameHashing ? params_.site : parent_site;

  const uint64_t fileid = MintFileid();
  const FileHandle fh = MintHandle(fileid, FileType3::kDir);
  Fattr3 attr = NewAttr(fileid, FileType3::kDir);
  if (args.attributes.mode) {
    attr.mode = *args.attributes.mode;
  }

  const Status inserted = PeerInsertEntry(entry_site, args.dir.fileid(), args.name, fh, cost);
  if (!inserted.ok()) {
    res.status = Nfsstat3::kErrExist;
    res.Encode(reply);
    return;
  }
  ApplyUpsertAttr(fileid, attr, "", /*log=*/true);
  TouchDirAttr(args.dir.fileid(), +1, +1, cost);
  res.object = fh;
  res.obj_attributes = attr;
  res.dir_wcc.after = GetAttrAnywhere(args.dir.fileid(), cost);
  res.Encode(reply);
}

void DirServer::HandleSymlink(const SymlinkArgs& args, XdrEncoder& reply, ServiceCost& cost) {
  CreateRes res;
  if (store_.FindEntry(args.dir.fileid(), args.name).ok()) {
    res.status = Nfsstat3::kErrExist;
    res.Encode(reply);
    return;
  }
  const uint64_t fileid = MintFileid();
  const FileHandle fh = MintHandle(fileid, FileType3::kLnk);
  Fattr3 attr = NewAttr(fileid, FileType3::kLnk);
  attr.size = args.target.size();
  ApplyUpsertAttr(fileid, attr, args.target, /*log=*/true);
  ApplyInsertEntry(args.dir.fileid(), args.name, fh, /*log=*/true);
  TouchDirAttr(args.dir.fileid(), +1, 0, cost);
  res.object = fh;
  res.obj_attributes = attr;
  res.Encode(reply);
}

void DirServer::HandleRemove(const DirOpArgs& args, bool rmdir, XdrEncoder& reply,
                             ServiceCost& cost) {
  RemoveRes res;
  Result<FileHandle> child = store_.FindEntry(args.dir.fileid(), args.name);
  if (!child.ok()) {
    res.status = Nfsstat3::kErrNoent;
    res.Encode(reply);
    return;
  }
  const bool is_dir = child->IsDir();
  if (rmdir && !is_dir) {
    res.status = Nfsstat3::kErrNotdir;
    res.Encode(reply);
    return;
  }
  if (!rmdir && is_dir) {
    res.status = Nfsstat3::kErrIsdir;
    res.Encode(reply);
    return;
  }

  if (rmdir) {
    // Empty check: under mkdir switching a directory's entries live at its
    // own site; under name hashing they are scattered across every site.
    size_t entries = 0;
    if (params_.policy == NamePolicy::kNameHashing) {
      for (const DirStore* store : NameSpaceStores(cost)) {
        entries += store->CountDir(child->fileid());
      }
    } else {
      const uint32_t dir_site = SiteOfFileid(child->fileid());
      if (IsLocalSite(dir_site)) {
        entries = store_.CountDir(child->fileid());
      } else {
        ChargePeer(cost);
        entries = Peer(dir_site).store_.CountDir(child->fileid());
      }
    }
    if (entries > 0) {
      res.status = Nfsstat3::kErrNotempty;
      res.Encode(reply);
      return;
    }
  }

  ApplyEraseEntry(args.dir.fileid(), args.name, /*log=*/true);
  if (rmdir) {
    const uint32_t dir_site = SiteOfFileid(child->fileid());
    DirServer* owner = this;
    if (!IsLocalSite(dir_site)) {
      ChargePeer(cost);
      owner = &Peer(dir_site);
    }
    owner->ApplyEraseAttr(child->fileid(), /*log=*/true);
    TouchDirAttr(args.dir.fileid(), -1, -1, cost);
  } else {
    AdjustNlink(child->fileid(), -1, cost);
    TouchDirAttr(args.dir.fileid(), -1, 0, cost);
  }
  if (const AttrCell* dir_cell = store_.FindAttr(args.dir.fileid()); dir_cell != nullptr) {
    res.dir_wcc.after = dir_cell->attr;
  }
  res.Encode(reply);
}

void DirServer::HandleRename(const RenameArgs& args, XdrEncoder& reply, ServiceCost& cost) {
  RenameRes res;
  Result<FileHandle> child = store_.FindEntry(args.from_dir.fileid(), args.from_name);
  if (!child.ok()) {
    res.status = Nfsstat3::kErrNoent;
    res.Encode(reply);
    return;
  }
  const bool is_dir = child->IsDir();
  const uint32_t target_site = OwnerSiteForEntry(args.to_dir, args.to_name);

  // If the target name exists, NFS semantics replace it (rejecting a
  // non-empty directory target).
  const DirStore* target_store =
      IsLocalSite(target_site) ? &store_ : &Peer(target_site).store_;
  Result<FileHandle> target = target_store->FindEntry(args.to_dir.fileid(), args.to_name);
  if (target.ok()) {
    if (target->IsDir()) {
      const uint32_t tsite = SiteOfFileid(target->fileid());
      size_t entries = 0;
      if (IsLocalSite(tsite)) {
        entries = store_.CountDir(target->fileid());
      } else {
        ChargePeer(cost);
        entries = Peer(tsite).store_.CountDir(target->fileid());
      }
      if (entries > 0) {
        res.status = Nfsstat3::kErrNotempty;
        res.Encode(reply);
        return;
      }
    }
    (void)PeerEraseEntry(target_site, args.to_dir.fileid(), args.to_name, cost);
    if (!target->IsDir()) {
      AdjustNlink(target->fileid(), -1, cost);
    }
  }

  ApplyEraseEntry(args.from_dir.fileid(), args.from_name, /*log=*/true);
  const Status inserted =
      PeerInsertEntry(target_site, args.to_dir.fileid(), args.to_name, *child, cost);
  if (!inserted.ok()) {
    // Roll back the erase (two-phase commit would prevent this window).
    ApplyInsertEntry(args.from_dir.fileid(), args.from_name, *child, /*log=*/true);
    res.status = Nfsstat3::kErrExist;
    res.Encode(reply);
    return;
  }

  const bool same_dir = args.from_dir.fileid() == args.to_dir.fileid();
  TouchDirAttr(args.from_dir.fileid(), -1, is_dir && !same_dir ? -1 : 0, cost);
  TouchDirAttr(args.to_dir.fileid(), +1, is_dir && !same_dir ? +1 : 0, cost);
  res.from_dir_wcc.after = GetAttrAnywhere(args.from_dir.fileid(), cost);
  res.to_dir_wcc.after = GetAttrAnywhere(args.to_dir.fileid(), cost);
  res.Encode(reply);
}

void DirServer::HandleLink(const LinkArgs& args, XdrEncoder& reply, ServiceCost& cost) {
  LinkRes res;
  const Status inserted =
      PeerInsertEntry(params_.site, args.dir.fileid(), args.name, args.file, cost);
  if (!inserted.ok()) {
    res.status = Nfsstat3::kErrExist;
    res.Encode(reply);
    return;
  }
  AdjustNlink(args.file.fileid(), +1, cost);
  TouchDirAttr(args.dir.fileid(), +1, 0, cost);
  res.file_attributes = GetAttrAnywhere(args.file.fileid(), cost);
  if (const AttrCell* dir_cell = store_.FindAttr(args.dir.fileid()); dir_cell != nullptr) {
    res.dir_wcc.after = dir_cell->attr;
  }
  res.Encode(reply);
}

void DirServer::HandleReaddir(const ReaddirArgs& args, XdrEncoder& reply, ServiceCost& cost) {
  ReaddirRes res;
  res.plus = args.plus;
  const uint64_t dir_id = args.dir.fileid();
  if (const AttrCell* cell = store_.FindAttr(dir_id); cell != nullptr) {
    res.dir_attributes = cell->attr;
  }

  // Under name hashing a directory's entries are scattered across every
  // site ("readdir operations span multiple sites", §3.2): the page comes
  // from a merge of each server's table, seeked to the cookie's rank.
  const uint32_t count = args.plus ? args.maxcount : args.count;
  res.entries.reserve(ReaddirPageBound(count, args.plus));
  res.eof = ReaddirPage(NameSpaceStores(cost), dir_id, args.cookie, count, args.plus,
                        [&](const NameCell& cell, uint64_t cookie) {
                          DirEntry entry;
                          entry.fileid = cell.child.fileid();
                          entry.name = cell.name;
                          entry.cookie = cookie;
                          if (args.plus) {
                            entry.handle = cell.child;
                            entry.attr = GetAttrAnywhere(cell.child.fileid(), cost);
                          }
                          res.entries.push_back(std::move(entry));
                        });
  res.cookieverf = 1;
  res.Encode(reply);
}

void DirServer::HandleFsstat(XdrEncoder& reply, ServiceCost& cost) {
  (void)cost;
  FsstatRes res;
  res.tbytes = 1ull << 42;
  res.fbytes = res.abytes = 1ull << 41;
  res.tfiles = 1ull << 24;
  res.ffiles = res.afiles = res.tfiles - store_.attr_count();
  if (const AttrCell* cell = store_.FindAttr(kRootFileid); cell != nullptr) {
    res.obj_attributes = cell->attr;
  }
  res.Encode(reply);
}

void DirServer::HandleFsinfo(const GetattrArgs& args, XdrEncoder& reply, ServiceCost& cost) {
  (void)cost;
  FsinfoRes res;
  if (const AttrCell* cell = store_.FindAttr(args.object.fileid()); cell != nullptr) {
    res.obj_attributes = cell->attr;
  }
  res.Encode(reply);
}

void DirServer::MisdirectReply(NfsProc proc, XdrEncoder& reply) {
  ++misdirects_answered_;
  EncodeNfsError(reply, proc, Nfsstat3::kErrJukebox);
  // Lazy table distribution: tell the client's µproxy its table is stale so
  // it fetches the current epoch from the manager (once per client+epoch).
  if (current_client_.addr != 0 &&
      misdirect_notified_.insert({current_client_.addr, mgmt_epoch_}).second) {
    SendPacket(Packet::MakeUdp(endpoint(), Endpoint{current_client_.addr, kMgmtClientPort},
                               EncodeMisdirectNotice(mgmt_epoch_)));
  }
}

void DirServer::DispatchCall(const RpcMessageView& call, const Endpoint& client,
                             ReplyFn done) {
  current_client_ = client;
  RpcServerNode::DispatchCall(call, client, std::move(done));
}

void DirServer::NoteSlotOp(const FileHandle& dir, std::string_view name, uint32_t tenant) {
  const uint32_t slot =
      static_cast<uint32_t>(NameFingerprint(dir, name) % kDefaultLogicalSlots);
  ++slot_ops_[slot];
  if (!slot_tenant_ops_.empty() && tenant >= 1 && tenant <= slot_tenants_) {
    ++slot_tenant_ops_[slot * slot_tenants_ + tenant - 1];
  }
}

void DirServer::RegisterDirInstruments(obs::Metrics& metrics) {
  obs::MetricsRegistry& reg = metrics.Registry(addr());
  reg.GetCounter("dir_local_ops")->SetProvider([this]() { return local_ops_; });
  reg.GetCounter("dir_cross_site_ops")->SetProvider([this]() { return cross_site_ops_; });
  reg.GetCounter("dir_misdirects")->SetProvider([this]() { return misdirects_answered_; });
  reg.GetGauge("dir_adopted_sites")->SetProvider(
      [this]() { return static_cast<int64_t>(adopted_sites_.size()); });
  // Name-space op mix: one counter per NFS procedure actually seen.
  for (size_t p = 0; p < kNfsProcCount; ++p) {
    std::string name = "dir_op_";
    name += NfsProcName(static_cast<NfsProc>(p));
    reg.GetCounter(name)->SetProvider([this, p]() { return proc_counts_[p]; });
  }
  if (wal_) {
    reg.GetCounter("dir_wal_bytes")->SetProvider([this]() { return wal_->bytes_logged(); });
    reg.GetCounter("dir_wal_records")->SetProvider(
        [this]() { return wal_->records_logged(); });
    reg.GetCounter("dir_wal_flushes")->SetProvider([this]() { return wal_->flushes(); });
  }
  // Per-slot heat map (opt-in; pinned goldens sum every registered counter).
  // The joint slot×tenant counters tell the tenant report which tenant heats
  // which slot, and give the manager's hotspot detector slot-grained demand.
  if (params_.slot_metrics) {
    for (uint32_t s = 0; s < kDefaultLogicalSlots; ++s) {
      char name[32];
      std::snprintf(name, sizeof(name), "dir_slot%02u_ops", s);
      reg.GetCounter(name)->SetProvider([this, s]() { return slot_ops_[s]; });
    }
    if (const uint32_t tenants = metrics.num_tenants(); tenants > 0) {
      slot_tenants_ = tenants;
      slot_tenant_ops_.assign(static_cast<size_t>(kDefaultLogicalSlots) * tenants, 0);
      for (uint32_t s = 0; s < kDefaultLogicalSlots; ++s) {
        for (uint32_t j = 0; j < tenants; ++j) {
          char name[40];
          std::snprintf(name, sizeof(name), "dir_slot%02u_tenant%u_ops", s, j + 1);
          reg.GetCounter(name)->SetProvider(
              [this, s, j]() { return slot_tenant_ops_[s * slot_tenants_ + j]; });
        }
      }
    }
  }
}

RpcAcceptStat DirServer::HandleCall(const RpcMessageView& call, XdrEncoder& reply,
                                    ServiceCost& cost) {
  obs::Profiler::Scope prof(profiler(), obs::ProfScope::kDirNameOp);
  const NfsProc proc = static_cast<NfsProc>(call.proc);
  cost.AddCpu(FromMicros(params_.op_cpu_us));
  ++local_ops_;
  if (call.proc < kNfsProcCount) {
    ++proc_counts_[call.proc];
  }

  if (recovering_ || adopting_ > 0) {
    EncodeNfsError(reply, proc, Nfsstat3::kErrJukebox);
    return RpcAcceptStat::kSuccess;
  }

  switch (proc) {
    case NfsProc::kNull:
      return RpcAcceptStat::kSuccess;
    case NfsProc::kGetattr:
      return Serve<GetattrArgs>(call, [&](const GetattrArgs& args) {
        if (MisroutedByFileid(args.object.fileid())) {
          MisdirectReply(proc, reply);
          return;
        }
        HandleGetattr(args, reply, cost);
      });
    case NfsProc::kSetattr:
      return Serve<SetattrArgs>(call, [&](const SetattrArgs& args) {
        if (MisroutedByFileid(args.object.fileid())) {
          MisdirectReply(proc, reply);
          return;
        }
        HandleSetattr(args, reply, cost);
      });
    case NfsProc::kLookup:
      return Serve<DirOpArgs>(call, [&](const DirOpArgs& args) {
        if (MisroutedNameOp(args.dir, args.name)) {
          MisdirectReply(proc, reply);
          return;
        }
        NoteSlotOp(args.dir, args.name, call.uid);
        HandleLookup(args, reply, cost);
      });
    case NfsProc::kAccess:
      return Serve<AccessArgs>(call, [&](const AccessArgs& args) {
        if (MisroutedByFileid(args.object.fileid())) {
          MisdirectReply(proc, reply);
          return;
        }
        HandleAccess(args, reply, cost);
      });
    case NfsProc::kReadlink:
      return Serve<GetattrArgs>(
          call, [&](const GetattrArgs& args) { HandleReadlink(args, reply, cost); });
    case NfsProc::kCreate:
      return Serve<CreateArgs>(call, [&](const CreateArgs& args) {
        if (MisroutedNameOp(args.dir, args.name)) {
          MisdirectReply(proc, reply);
          return;
        }
        NoteSlotOp(args.dir, args.name, call.uid);
        HandleCreate(args, reply, cost);
      });
    case NfsProc::kMkdir:
      return Serve<MkdirArgs>(call, [&](const MkdirArgs& args) {
        NoteSlotOp(args.dir, args.name, call.uid);
        HandleMkdir(args, reply, cost);
      });
    case NfsProc::kSymlink:
      return Serve<SymlinkArgs>(call, [&](const SymlinkArgs& args) {
        NoteSlotOp(args.dir, args.name, call.uid);
        HandleSymlink(args, reply, cost);
      });
    case NfsProc::kRemove:
    case NfsProc::kRmdir:
      return Serve<DirOpArgs>(call, [&](const DirOpArgs& args) {
        if (MisroutedNameOp(args.dir, args.name)) {
          MisdirectReply(proc, reply);
          return;
        }
        NoteSlotOp(args.dir, args.name, call.uid);
        HandleRemove(args, proc == NfsProc::kRmdir, reply, cost);
      });
    case NfsProc::kRename:
      return Serve<RenameArgs>(call, [&](const RenameArgs& args) {
        // A rename heats both name slots: the source entry is erased and the
        // target inserted, each on its fingerprint's owner.
        NoteSlotOp(args.from_dir, args.from_name, call.uid);
        NoteSlotOp(args.to_dir, args.to_name, call.uid);
        HandleRename(args, reply, cost);
      });
    case NfsProc::kLink:
      return Serve<LinkArgs>(call, [&](const LinkArgs& args) {
        NoteSlotOp(args.dir, args.name, call.uid);
        HandleLink(args, reply, cost);
      });
    case NfsProc::kReaddir:
    case NfsProc::kReaddirplus:
      return Serve<ReaddirArgs>(call, [&](const ReaddirArgs& args) {
        if (MisroutedByFileid(args.dir.fileid())) {
          MisdirectReply(proc, reply);
          return;
        }
        HandleReaddir(args, reply, cost);
      });
    case NfsProc::kFsstat:
      HandleFsstat(reply, cost);
      return RpcAcceptStat::kSuccess;
    case NfsProc::kFsinfo:
      return Serve<GetattrArgs>(
          call, [&](const GetattrArgs& args) { HandleFsinfo(args, reply, cost); });
    default:
      return RpcAcceptStat::kProcUnavail;
  }
}

}  // namespace slice
