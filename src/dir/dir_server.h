// Directory server: owns name entries and attribute cells with fixed
// placement, supporting both mkdir switching and name hashing (paper §3.2,
// §4.3). Cross-site operations (orphan mkdirs, cross-directory renames,
// link-count updates, scattered readdir) run over a peer-to-peer protocol.
//
// Peer calls execute as direct nested calls whose CPU and round-trip cost is
// charged to the simulation clock (see DESIGN.md, documented simplification);
// the client-visible path is always real packets.
//
// The server journals every mutation to a write-ahead log backed by the
// network storage array; Restart() recovers the full cell store by replay —
// the "dataless file manager" property of §2.3 (and goes beyond the paper's
// prototype, which left the recovery procedure unimplemented).
#ifndef SLICE_DIR_DIR_SERVER_H_
#define SLICE_DIR_DIR_SERVER_H_

#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "src/dir/dir_store.h"
#include "src/dir/wal.h"
#include "src/nfs/nfs_xdr.h"
#include "src/rpc/rpc_server.h"

namespace slice {

enum class NamePolicy : uint8_t { kMkdirSwitching = 0, kNameHashing = 1 };

// fileIDs embed the minting site in the top 16 bits — the "key placed in
// each newly minted file handle" that lets the µproxy and servers locate a
// cell's fixed placement from the handle alone.
inline uint32_t SiteOfFileid(uint64_t fileid) { return static_cast<uint32_t>(fileid >> 48); }
inline uint64_t MakeFileid(uint32_t site, uint64_t counter) {
  return (static_cast<uint64_t>(site) << 48) | counter;
}
constexpr uint64_t kRootFileid = 1;  // minted at site 0

// Logical routing-table size shared by µproxies and directory servers; name
// hashing maps a fingerprint to a logical slot first, then to a physical
// site, so both sides must agree on the slot count.
constexpr uint32_t kDefaultLogicalSlots = 64;

inline uint32_t NameHashSite(uint64_t fingerprint, uint32_t num_sites,
                             uint32_t logical_slots = kDefaultLogicalSlots) {
  return static_cast<uint32_t>((fingerprint % logical_slots) % num_sites);
}

struct DirServerParams {
  uint32_t site = 0;
  uint32_t num_sites = 1;
  uint32_t volume = 1;
  uint64_t volume_secret = 0;
  NamePolicy policy = NamePolicy::kMkdirSwitching;
  uint8_t default_replication = 1;
  double op_cpu_us = 150.0;   // local name-op CPU (saturation ~6000 ops/s w/ log)
  double peer_cpu_us = 60.0;  // extra CPU per cross-site leg
  double peer_rtt_us = 90.0;  // charged latency per peer round trip
  // WAL backing; if backing_node.addr == 0 logging is disabled.
  Endpoint backing_node;
  FileHandle backing_object;
  // Per-logical-slot op providers ("dir_slot07_ops", plus slot×tenant joint
  // counters when the metrics hub has tenants configured). Off by default:
  // pinned metrics goldens sum every registered counter, so the extra
  // providers must stay opt-in.
  bool slot_metrics = false;
};

class DirServer : public RpcServerNode {
 public:
  // Beyond the base server's observability (`sinks`), registers name-space
  // op-mix (per NFS procedure), misdirect and WAL instruments, and the WAL's
  // appends join the request's trace.
  DirServer(Network& net, EventQueue& queue, NetAddr addr, DirServerParams params,
            const obs::Sinks& sinks = {});

  // Write-ahead-log records, each appended behind its LogOp tag. An appended
  // record views the names it logs; a replayed one views the log.
  enum class LogOp : uint32_t {
    kInsertEntry = 1,
    kEraseEntry = 2,
    kUpsertAttr = 3,
    kEraseAttr = 4,
  };
  struct InsertEntryRecord {
    uint64_t parent = 0;
    std::string_view name;
    FileHandle child;

    template <class Io, class S>
    static void Xdr(Io& io, S& s) {
      XdrField(io, s.parent);
      XdrField(io, s.name, kNfsMaxName);
      XdrField(io, s.child);
    }
  };
  struct EraseEntryRecord {
    uint64_t parent = 0;
    std::string_view name;

    template <class Io, class S>
    static void Xdr(Io& io, S& s) {
      XdrField(io, s.parent);
      XdrField(io, s.name, kNfsMaxName);
    }
  };
  struct UpsertAttrRecord {
    uint64_t fileid = 0;
    Fattr3 attr;
    std::string_view symlink;

    template <class Io, class S>
    static void Xdr(Io& io, S& s) {
      XdrField(io, s.fileid);
      XdrField(io, s.attr);
      XdrField(io, s.symlink, kNfsMaxPath);
    }
  };
  struct EraseAttrRecord {
    uint64_t fileid = 0;

    template <class Io, class S>
    static void Xdr(Io& io, S& s) {
      XdrField(io, s.fileid);
    }
  };

  // Wires up the peer-protocol targets; peers[i] owns logical site i.
  void SetPeers(std::vector<DirServer*> peers) { peers_ = std::move(peers); }

  const DirStore& store() const { return store_; }
  uint64_t cross_site_ops() const { return cross_site_ops_; }
  uint64_t local_ops() const { return local_ops_; }
  bool recovering() const { return recovering_; }
  uint64_t log_bytes() const { return wal_ ? wal_->bytes_logged() : 0; }
  FileHandle RootHandle() const;

  // Flushes the WAL immediately (clean shutdown in tests).
  void FlushLog() {
    if (wal_) {
      wal_->Flush();
    }
  }

  // --- ensemble control-plane integration (src/mgmt) ---

  // Installs the manager's epoch-stamped view: slots[s] is the physical dir
  // index serving logical slot/site s, `my_physical` this server's index.
  // With a view installed, requests the view routes elsewhere are answered
  // kErrJukebox plus a misdirect notice to the client's µproxy control port
  // (lazy table distribution, paper §3.1).
  void SetMgmtView(uint64_t epoch, uint32_t my_physical, std::vector<uint32_t> slots);

  // Failover: replays the dead owner's WAL (an object in the storage array)
  // into this server's store — re-logging every record so the adopted state
  // survives this server's own crashes — then serves the site until
  // HandoffSite. Ops arriving mid-adoption get kErrJukebox; clients retry.
  void AdoptSite(uint32_t site, Endpoint wal_node, FileHandle wal_object,
                 std::function<void(Status)> done = nullptr);
  // Rebalance: moves the adopted site's cells back to the rejoined owner.
  // Both sides log each move, so the transfer survives either party's crash.
  void HandoffSite(uint32_t site, DirServer& target);

  // Hotspot re-stripe (name hashing only): moves the name entries of one
  // logical slot (fingerprint % num_slots == slot) to `target`, both sides
  // logged. Runs synchronously in the same sim instant as the table install
  // that rebinds the slot, so no request can observe the half-moved state.
  // Attribute cells stay put: they route by the creating site's low slots,
  // which a re-stripe never touches.
  void MigrateSlot(uint32_t slot, uint32_t num_slots, DirServer& target);

  // Holds client traffic (kErrJukebox) on a rejoined owner while the handoff
  // back to it is pending, so a fresh write can't land and then be clobbered
  // when the transfer drops stale site-owned cells.
  void BeginHandoffHold() { ++adopting_; }
  void EndHandoffHold() {
    if (adopting_ > 0) {
      --adopting_;
    }
  }

  bool adopting() const { return adopting_ > 0; }
  const std::set<uint32_t>& adopted_sites() const { return adopted_sites_; }
  uint64_t misdirects_answered() const { return misdirects_answered_; }
  uint32_t site() const { return params_.site; }
  uint64_t slot_ops(uint32_t slot) const {
    return slot < kDefaultLogicalSlots ? slot_ops_[slot] : 0;
  }

 protected:
  RpcAcceptStat HandleCall(const RpcMessageView& call, XdrEncoder& reply,
                           ServiceCost& cost) override;
  // Stashes the calling client so misdirect notices know where to go.
  void DispatchCall(const RpcMessageView& call, const Endpoint& client, ReplyFn done) override;
  void OnRestart() override;

 private:
  // Name-space op mix (per NFS procedure), misdirect, WAL and (opt-in)
  // per-slot instruments, on top of the base server's.
  void RegisterDirInstruments(obs::Metrics& metrics);

  // --- logged primitive mutations (replayed on recovery) ---
  void ApplyInsertEntry(uint64_t parent, const std::string& name, const FileHandle& child,
                        bool log);
  void ApplyEraseEntry(uint64_t parent, const std::string& name, bool log);
  void ApplyUpsertAttr(uint64_t fileid, const Fattr3& attr, const std::string& symlink,
                       bool log);
  void ApplyEraseAttr(uint64_t fileid, bool log);
  // `relog` re-journals each replayed record into this server's own WAL
  // (used when adopting a dead peer's log).
  void ReplayRecord(ByteSpan record, bool relog = false);

  // --- misdirect detection against the installed mgmt view ---
  bool MisroutedByFileid(uint64_t fileid) const;
  bool MisroutedNameOp(const FileHandle& dir, const std::string& name) const;
  void MisdirectReply(NfsProc proc, XdrEncoder& reply);
  // Entry-owning site recomputed from stored cell fields (handoff scan).
  uint32_t EntrySiteById(uint64_t parent_id, const std::string& name) const;

  // --- peer protocol (direct calls; caller charges PeerCost) ---
  DirServer& Peer(uint32_t site) { return *peers_[site]; }
  // A site is local if it is ours, or if failover remapped the (dead) owner
  // to us — the ensemble points peers_[site] at the adopter.
  bool IsLocalSite(uint32_t site) const {
    if (site == params_.site || peers_.empty()) {
      return true;
    }
    const DirServer* owner = peers_[site % peers_.size()];
    return owner == this || owner == nullptr;
  }
  void ChargePeer(ServiceCost& cost);

  Status PeerInsertEntry(uint32_t site, uint64_t parent, const std::string& name,
                         const FileHandle& child, ServiceCost& cost);
  Status PeerEraseEntry(uint32_t site, uint64_t parent, const std::string& name,
                        ServiceCost& cost);
  // Adjusts a directory's attrs after adding/removing an entry.
  void TouchDirAttr(uint64_t dir_id, int entry_delta, int nlink_delta, ServiceCost& cost);
  // Adjusts a file's link count; erases the cell when it drops to zero.
  // Returns the resulting nlink.
  uint32_t AdjustNlink(uint64_t fileid, int delta, ServiceCost& cost);
  std::optional<Fattr3> GetAttrAnywhere(uint64_t fileid, ServiceCost& cost);
  // The stores holding a share of a directory: this server's alone under
  // mkdir switching; under name hashing this server's first, then each
  // other server's once, charging one peer leg apiece (a third-party adopter
  // serves two sites but is visited once). Valid until the next call.
  std::span<const DirStore* const> NameSpaceStores(ServiceCost& cost);

  // Entry-owning site for (parent, name) under the configured policy.
  uint32_t EntrySite(const FileHandle& parent, const std::string& name) const;
  // Request-time owner for a secondary name (rename target): the static
  // EntrySite unless the installed mgmt view re-bound the name's slot to a
  // different server (hotspot override).
  uint32_t OwnerSiteForEntry(const FileHandle& parent, const std::string& name) const;

  NfsTime Now() const;
  uint64_t MintFileid() { return MakeFileid(params_.site, next_counter_++); }
  FileHandle MintHandle(uint64_t fileid, FileType3 type) const;
  Fattr3 NewAttr(uint64_t fileid, FileType3 type) const;

  // --- NFS procedure handlers ---
  void HandleGetattr(const GetattrArgs& args, XdrEncoder& reply, ServiceCost& cost);
  void HandleSetattr(const SetattrArgs& args, XdrEncoder& reply, ServiceCost& cost);
  void HandleLookup(const DirOpArgs& args, XdrEncoder& reply, ServiceCost& cost);
  void HandleAccess(const AccessArgs& args, XdrEncoder& reply, ServiceCost& cost);
  void HandleReadlink(const GetattrArgs& args, XdrEncoder& reply, ServiceCost& cost);
  void HandleCreate(const CreateArgs& args, XdrEncoder& reply, ServiceCost& cost);
  void HandleMkdir(const MkdirArgs& args, XdrEncoder& reply, ServiceCost& cost);
  void HandleSymlink(const SymlinkArgs& args, XdrEncoder& reply, ServiceCost& cost);
  void HandleRemove(const DirOpArgs& args, bool rmdir, XdrEncoder& reply, ServiceCost& cost);
  void HandleRename(const RenameArgs& args, XdrEncoder& reply, ServiceCost& cost);
  void HandleLink(const LinkArgs& args, XdrEncoder& reply, ServiceCost& cost);
  void HandleReaddir(const ReaddirArgs& args, XdrEncoder& reply, ServiceCost& cost);
  void HandleFsstat(XdrEncoder& reply, ServiceCost& cost);
  void HandleFsinfo(const GetattrArgs& args, XdrEncoder& reply, ServiceCost& cost);

  // Peer-visible internals used by the protocol above.
  friend class DirServerPeerAccess;

  DirServerParams params_;
  DirStore store_;
  std::vector<DirServer*> peers_;
  std::vector<const DirStore*> stores_;  // NameSpaceStores' result, reused
  std::unique_ptr<WriteAheadLog> wal_;
  uint64_t next_counter_;
  bool recovering_ = false;
  uint64_t cross_site_ops_ = 0;
  uint64_t local_ops_ = 0;
  // Op mix indexed by NfsProc (always maintained — one array increment).
  uint64_t proc_counts_[kNfsProcCount] = {};
  // Per-logical-slot name-op counts (always maintained — one array add) and
  // the slot×tenant joint counts. The joint vector is sized at construction
  // only when params_.slot_metrics is on and the hub has tenants; empty
  // otherwise, so the common path pays one empty() check.
  uint64_t slot_ops_[kDefaultLogicalSlots] = {};
  uint32_t slot_tenants_ = 0;
  std::vector<uint64_t> slot_tenant_ops_;  // index = slot * slot_tenants_ + tenant - 1
  void NoteSlotOp(const FileHandle& dir, std::string_view name, uint32_t tenant);

  // Control-plane view (empty slots = no manager; checks disabled).
  uint64_t mgmt_epoch_ = 0;
  uint32_t my_physical_ = 0;
  std::vector<uint32_t> mgmt_slots_;
  std::set<uint32_t> adopted_sites_;
  int adopting_ = 0;
  uint64_t misdirects_answered_ = 0;
  // One notice per (client, epoch) — the µproxy fetch is idempotent anyway.
  std::set<std::pair<NetAddr, uint64_t>> misdirect_notified_;
  Endpoint current_client_;
};

}  // namespace slice

#endif  // SLICE_DIR_DIR_SERVER_H_
