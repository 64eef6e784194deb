#include "src/coord/coordinator.h"

#include "src/common/logging.h"

namespace slice {
namespace {

constexpr NetPort kCoordPort = 3049;

}  // namespace

Coordinator::Coordinator(Network& net, EventQueue& queue, NetAddr addr,
                         CoordinatorParams params, std::vector<Endpoint> storage_nodes,
                         std::vector<Endpoint> small_file_servers, const obs::Sinks& sinks)
    : RpcServerNode(net, queue, addr, kCoordPort, kCoordProgram, kCoordVersion, {}, sinks),
      params_(params),
      storage_nodes_(std::move(storage_nodes)),
      small_file_servers_(std::move(small_file_servers)) {
  for (const Endpoint& node : storage_nodes_) {
    node_clients_.push_back(
        std::make_unique<NfsClient>(host(), queue, node, RpcClientParams{}, sinks.TracerOnly()));
  }
  for (const Endpoint& node : small_file_servers_) {
    node_clients_.push_back(
        std::make_unique<NfsClient>(host(), queue, node, RpcClientParams{}, sinks.TracerOnly()));
  }
  if (params_.backing_node.addr != 0) {
    wal_ = std::make_unique<WriteAheadLog>(host(), queue, params_.backing_node,
                                           params_.backing_object, WalParams{}, sinks);
  }
}

uint64_t Coordinator::LogIntent(const LogIntentArgs& args, bool log) {
  const uint64_t id = next_intent_id_++;
  intents_[id] = Intent{args.op, args.file, args.arg, now()};
  if (log && wal_) {
    wal_->Append(LogOp::kIntent, IntentRecord{id, args});
  }
  ArmProbe(id);
  return id;
}

void Coordinator::Complete(uint64_t intent_id, bool log) {
  if (intents_.erase(intent_id) == 0) {
    return;
  }
  if (log && wal_) {
    wal_->Append(LogOp::kComplete, CompleteArgs{intent_id});
  }
}

void Coordinator::ArmProbe(uint64_t intent_id) {
  queue().ScheduleAfter(params_.intent_timeout, [this, intent_id]() {
    if (failed() || !intents_.contains(intent_id)) {
      return;
    }
    SLICE_ILOG << "coordinator: intent " << intent_id << " timed out; running recovery";
    RunRecovery(intent_id);
  });
}

void Coordinator::RunRecovery(uint64_t intent_id) {
  const auto it = intents_.find(intent_id);
  if (it == intents_.end()) {
    return;
  }
  const Intent intent = it->second;
  ++recoveries_run_;

  // Idempotent fan-out across every storage site (and small-file servers for
  // remove/truncate, which affect data below the threshold too).
  const bool include_sfs = intent.op == IntentOp::kRemove || intent.op == IntentOp::kTruncate;
  const size_t targets = storage_nodes_.size() +
                         (include_sfs ? small_file_servers_.size() : 0);
  auto pending = std::make_shared<size_t>(targets);
  auto finish = [this, intent_id, pending]() {
    if (--*pending == 0) {
      Complete(intent_id, /*log=*/true);
    }
  };

  for (size_t i = 0; i < node_clients_.size(); ++i) {
    const bool is_sfs = i >= storage_nodes_.size();
    if (is_sfs && !include_sfs) {
      continue;
    }
    NfsClient& client = *node_clients_[i];
    switch (intent.op) {
      case IntentOp::kRemove:
        client.Remove(intent.file, "",
                      [finish](Status, const RemoveRes&) { finish(); });
        break;
      case IntentOp::kTruncate: {
        SetattrArgs sargs;
        sargs.object = intent.file;
        sargs.new_attributes.size = intent.arg;
        client.Setattr(sargs, [finish](Status, const SetattrRes&) { finish(); });
        break;
      }
      case IntentOp::kCommit:
      case IntentOp::kMirrorWrite:
        client.Commit(intent.file, 0, 0,
                      [finish](Status, const CommitRes&) { finish(); });
        break;
    }
  }
  if (targets == 0) {
    Complete(intent_id, /*log=*/true);
  }
}

void Coordinator::LogDegraded(const DegradedArgs& args, bool log) {
  std::vector<DegradedRegion>& regions = degraded_[args.node];
  // Coalesce exact duplicates (client retransmissions of the same write).
  for (const DegradedRegion& r : regions) {
    if (r.file == args.file && r.offset == args.offset && r.count == args.count) {
      return;
    }
  }
  regions.push_back(DegradedRegion{args.file, args.offset, args.count});
  if (log && wal_) {
    wal_->Append(LogOp::kDegraded, args);
  }
}

void Coordinator::LogRepaired(uint32_t node, const DegradedRegion& region) {
  if (!wal_) {
    return;
  }
  wal_->Append(LogOp::kRepaired, DegradedArgs{region.file, region.offset, region.count, node});
}

void Coordinator::RepairNode(uint32_t node) {
  const auto it = degraded_.find(node);
  if (it == degraded_.end() || it->second.empty()) {
    return;
  }
  // Take ownership of the queue; regions that fail to copy are re-logged.
  std::vector<DegradedRegion> regions = std::move(it->second);
  degraded_.erase(it);
  SLICE_ILOG << "coordinator: resyncing " << regions.size()
             << " degraded regions onto node " << node;
  for (DegradedRegion& region : regions) {
    RepairRegion(node, std::move(region));
  }
}

void Coordinator::RepairRegion(uint32_t node, DegradedRegion region) {
  // Find a surviving replica: the mirror whose placement is not this node.
  const uint32_t num_nodes = static_cast<uint32_t>(storage_nodes_.size());
  const uint32_t replication =
      region.file.replication() == 0 ? 1 : region.file.replication();
  uint32_t source = node;
  for (uint32_t r = 0; r < replication; ++r) {
    const uint32_t site = StripeSiteFor(region.file, region.offset,
                                        params_.stripe_unit, num_nodes, r);
    if (site != node) {
      source = site;
      break;
    }
  }
  if (source == node || node >= node_clients_.size()) {
    // Unrepairable (no surviving replica) — drop rather than loop forever.
    LogRepaired(node, region);
    return;
  }
  NfsClient& src_client = *node_clients_[source];
  src_client.Read(
      region.file, region.offset, region.count,
      [this, node, region](Status st, const ReadResView& res) {
        if (failed()) {
          return;
        }
        if (!st.ok() || res.status != Nfsstat3::kOk) {
          LogDegraded(DegradedArgs{region.file, region.offset, region.count, node},
                      /*log=*/true);
          return;
        }
        node_clients_[node]->Write(
            region.file, region.offset, res.data, StableHow::kFileSync,
            [this, node, region](Status wst, const WriteRes& wres) {
              if (failed()) {
                return;
              }
              if (!wst.ok() || wres.status != Nfsstat3::kOk) {
                LogDegraded(
                    DegradedArgs{region.file, region.offset, region.count, node},
                    /*log=*/true);
                return;
              }
              ++repairs_run_;
              LogRepaired(node, region);
            });
      });
}

GetMapRes Coordinator::GetOrAssignMap(const GetMapArgs& args) {
  GetMapRes res;
  res.first_block = args.first_block;
  std::vector<uint32_t>& map = block_maps_[args.file.fileid()];
  const uint64_t end = args.first_block + args.count;
  if (args.allocate && map.size() < end) {
    const size_t base = Fnv1a64(args.file.bytes()) % params_.num_storage_sites;
    for (uint64_t b = map.size(); b < end; ++b) {
      const uint32_t site = static_cast<uint32_t>((base + b) % params_.num_storage_sites);
      map.push_back(site);
      ++maps_assigned_;
      LogMapAssignment(args.file.fileid(), b, site);
    }
  }
  for (uint64_t b = args.first_block; b < end; ++b) {
    res.sites.push_back(b < map.size() ? map[b] : kUnmappedBlock);
  }
  return res;
}

void Coordinator::LogMapAssignment(uint64_t fileid, uint64_t block, uint32_t site) {
  if (!wal_) {
    return;
  }
  wal_->Append(LogOp::kMapAssign, MapAssignRecord{fileid, block, site});
}

void Coordinator::ReplayRecord(ByteSpan record) {
  XdrDecoder dec(record);
  LogOp op{};
  XdrField(dec, op);
  if (!dec.ok()) {
    return;
  }
  switch (op) {
    case LogOp::kIntent:
      if (const auto r = XdrDecode<IntentRecord>(dec); r.ok()) {
        intents_[r->intent_id] = Intent{r->args.op, r->args.file, r->args.arg, now()};
        next_intent_id_ = std::max(next_intent_id_, r->intent_id + 1);
      }
      break;
    case LogOp::kComplete:
      if (const auto r = XdrDecode<CompleteArgs>(dec); r.ok()) {
        intents_.erase(r->intent_id);
        next_intent_id_ = std::max(next_intent_id_, r->intent_id + 1);
      }
      break;
    case LogOp::kMapAssign:
      if (const auto r = XdrDecode<MapAssignRecord>(dec); r.ok()) {
        std::vector<uint32_t>& map = block_maps_[r->fileid];
        if (map.size() <= r->block) {
          map.resize(r->block + 1, kUnmappedBlock);
        }
        map[r->block] = r->site;
      }
      break;
    case LogOp::kDegraded:
      if (const auto r = XdrDecode<DegradedArgs>(dec); r.ok()) {
        LogDegraded(*r, /*log=*/false);
      }
      break;
    case LogOp::kRepaired:
      if (const auto r = XdrDecode<DegradedArgs>(dec); r.ok()) {
        std::vector<DegradedRegion>& regions = degraded_[r->node];
        std::erase_if(regions, [&](const DegradedRegion& region) {
          return region.file == r->file && region.offset == r->offset && region.count == r->count;
        });
        if (regions.empty()) {
          degraded_.erase(r->node);
        }
      }
      break;
  }
}

void Coordinator::OnRestart() {
  if (!wal_) {
    return;
  }
  wal_->DiscardBuffered();
  intents_.clear();
  block_maps_.clear();
  degraded_.clear();
  recovering_ = true;
  wal_->Replay([this](ByteSpan record) { ReplayRecord(record); },
               [this](Status st) {
                 if (!st.ok()) {
                   SLICE_ELOG << "coordinator: replay failed: " << st.ToString();
                 }
                 recovering_ = false;
                 SLICE_ILOG << "coordinator recovered; " << intents_.size()
                            << " in-flight intents";
                 // Operations that were in flight at the crash are finished
                 // (or effectively aborted) now.
                 std::vector<uint64_t> pending;
                 pending.reserve(intents_.size());
                 for (const auto& [id, intent] : intents_) {
                   (void)intent;
                   pending.push_back(id);
                 }
                 for (uint64_t id : pending) {
                   RunRecovery(id);
                 }
               });
}

RpcAcceptStat Coordinator::HandleCall(const RpcMessageView& call, XdrEncoder& reply,
                                      ServiceCost& cost) {
  cost.AddCpu(FromMicros(params_.op_cpu_us));
  switch (static_cast<CoordProc>(call.proc)) {
    case CoordProc::kNull:
      return RpcAcceptStat::kSuccess;
    case CoordProc::kLogIntent:
      return Serve<LogIntentArgs>(call, [&](const LogIntentArgs& args) {
        LogIntentRes res;
        res.intent_id = LogIntent(args, /*log=*/true);
        res.Encode(reply);
      });
    case CoordProc::kComplete:
      return Serve<CompleteArgs>(call, [&](const CompleteArgs& args) {
        Complete(args.intent_id, /*log=*/true);
        CompleteRes res;
        res.Encode(reply);
      });
    case CoordProc::kGetMap:
      return Serve<GetMapArgs>(call, [&](const GetMapArgs& args) {
        GetMapRes res = GetOrAssignMap(args);
        res.Encode(reply);
      });
    case CoordProc::kLogDegraded:
      return Serve<DegradedArgs>(call, [&](const DegradedArgs& args) {
        LogDegraded(args, /*log=*/true);
        DegradedRes res;
        res.Encode(reply);
      });
    default:
      return RpcAcceptStat::kProcUnavail;
  }
}

}  // namespace slice
