// Block-service coordinator (paper §2.2, §3.3.2, §4.2): preserves atomicity
// of file operations that span multiple storage sites — remove/truncate,
// consistent write commitment, and mirrored writes — via an intention log,
// and manages optional per-file block maps for dynamic I/O placement.
//
// Protocol: the µproxy logs an intention before a multi-site operation and
// clears it with a completion message afterwards. If the completion does not
// arrive within a time bound, the coordinator assumes the µproxy lost its
// soft state and re-executes the operation itself (every recovery action is
// idempotent). A restarted coordinator rebuilds its pending-intent table by
// scanning its own log, which — like every Slice manager — is backed by an
// object in the storage array.
#ifndef SLICE_COORD_COORDINATOR_H_
#define SLICE_COORD_COORDINATOR_H_

#include <map>
#include <memory>
#include <unordered_map>

#include "src/coord/coord_proto.h"
#include "src/dir/wal.h"
#include "src/nfs/nfs_client.h"
#include "src/rpc/rpc_server.h"

namespace slice {

struct CoordinatorParams {
  uint64_t volume_secret = 0;
  double op_cpu_us = 40.0;
  SimTime intent_timeout = FromSeconds(2);
  // Dynamic block maps assign this many storage sites round-robin.
  uint32_t num_storage_sites = 1;
  // Bulk striping unit; must match the µproxies' so degraded-region resync
  // reads the surviving replica from the right node.
  uint32_t stripe_unit = 32768;
  // WAL backing (intents + block maps); disabled when addr == 0.
  Endpoint backing_node;
  FileHandle backing_object;
};

class Coordinator : public RpcServerNode {
 public:
  // `storage_nodes` and `small_file_servers` are the recovery fan-out
  // targets for orphaned intentions.
  // Intent-log appends and recovery fan-outs join the requesting trace (its
  // internal clients and WAL see the tracer only of `sinks`).
  Coordinator(Network& net, EventQueue& queue, NetAddr addr, CoordinatorParams params,
              std::vector<Endpoint> storage_nodes, std::vector<Endpoint> small_file_servers,
              const obs::Sinks& sinks = {});

  // Write-ahead-log records, each appended behind its LogOp tag. kComplete
  // logs CompleteArgs; kDegraded and kRepaired log the region as
  // DegradedArgs.
  enum class LogOp : uint32_t {
    kIntent = 1,
    kComplete = 2,
    kMapAssign = 3,
    kDegraded = 4,
    kRepaired = 5,
  };
  struct IntentRecord {
    uint64_t intent_id = 0;
    LogIntentArgs args;

    template <class Io, class S>
    static void Xdr(Io& io, S& s) {
      XdrField(io, s.intent_id);
      XdrField(io, s.args);
    }
  };
  struct MapAssignRecord {
    uint64_t fileid = 0;
    uint64_t block = 0;
    uint32_t site = 0;

    template <class Io, class S>
    static void Xdr(Io& io, S& s) {
      XdrField(io, s.fileid);
      XdrField(io, s.block);
      XdrField(io, s.site);
    }
  };

  size_t pending_intents() const { return intents_.size(); }
  uint64_t recoveries_run() const { return recoveries_run_; }
  uint64_t maps_assigned() const { return maps_assigned_; }
  bool recovering() const { return recovering_; }

  // Degraded-region resync (mirrored-partner promotion, paper §3.3.1): while
  // a replica node is down, µproxies log the regions it missed; when the
  // ensemble manager reports the node back, RepairNode copies each region
  // from a surviving replica onto the rejoined node.
  void RepairNode(uint32_t node);
  size_t degraded_count(uint32_t node) const {
    const auto it = degraded_.find(node);
    return it == degraded_.end() ? 0 : it->second.size();
  }
  uint64_t repairs_run() const { return repairs_run_; }

  void FlushLog() {
    if (wal_) {
      wal_->Flush();
    }
  }

 protected:
  RpcAcceptStat HandleCall(const RpcMessageView& call, XdrEncoder& reply,
                           ServiceCost& cost) override;
  void OnRestart() override;

 private:
  struct Intent {
    IntentOp op;
    FileHandle file;
    uint64_t arg;
    SimTime logged_at;
  };

  uint64_t LogIntent(const LogIntentArgs& args, bool log);
  void Complete(uint64_t intent_id, bool log);
  void ArmProbe(uint64_t intent_id);
  // Executes the intent's recovery action against all storage sites.
  void RunRecovery(uint64_t intent_id);

  GetMapRes GetOrAssignMap(const GetMapArgs& args);
  void LogMapAssignment(uint64_t fileid, uint64_t block, uint32_t site);
  void ReplayRecord(ByteSpan record);

  struct DegradedRegion {
    FileHandle file;
    uint64_t offset;
    uint32_t count;
  };
  void LogDegraded(const DegradedArgs& args, bool log);
  void LogRepaired(uint32_t node, const DegradedRegion& region);
  void RepairRegion(uint32_t node, DegradedRegion region);

  CoordinatorParams params_;
  std::vector<Endpoint> storage_nodes_;
  std::vector<Endpoint> small_file_servers_;
  std::vector<std::unique_ptr<NfsClient>> node_clients_;  // storage then sfs
  std::unique_ptr<WriteAheadLog> wal_;
  std::unordered_map<uint64_t, Intent> intents_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> block_maps_;  // fileid -> site per block
  // Regions a dead replica missed, keyed by storage-node index (std::map for
  // deterministic repair order).
  std::map<uint32_t, std::vector<DegradedRegion>> degraded_;
  uint64_t next_intent_id_ = 1;
  uint64_t recoveries_run_ = 0;
  uint64_t maps_assigned_ = 0;
  uint64_t repairs_run_ = 0;
  bool recovering_ = false;
};

}  // namespace slice

#endif  // SLICE_COORD_COORDINATOR_H_
