#include "src/chaos/chaos_engine.h"

#include <algorithm>

#include "src/common/logging.h"

namespace slice::chaos {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kLoss:
      return "loss";
    case FaultKind::kBurstLoss:
      return "burst_loss";
    case FaultKind::kGrayDisk:
      return "gray_disk";
    case FaultKind::kGrayNic:
      return "gray_nic";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kClockSkew:
      return "clock_skew";
  }
  return "?";
}

namespace {
EventQueue& CheckedQueue(const ChaosHooks& hooks) {
  SLICE_CHECK(hooks.queue != nullptr);
  SLICE_CHECK(hooks.net != nullptr);
  return *hooks.queue;
}
}  // namespace

ChaosEngine::ChaosEngine(ChaosHooks hooks, ChaosConfig config)
    : hooks_(std::move(hooks)), config_(std::move(config)), owner_(CheckedQueue(hooks_)) {}

void ChaosEngine::Arm() {
  for (size_t i = 0; i < config_.faults.size(); ++i) {
    const FaultSpec& spec = config_.faults[i];
    hooks_.queue->ScheduleBackgroundAt(spec.at, [this, i] { Apply(i); }, owner_.id());
    if (spec.duration > 0) {
      hooks_.queue->ScheduleBackgroundAt(spec.at + spec.duration, [this, i] { Heal(i); },
                                         owner_.id());
    }
  }
}

void ChaosEngine::LogFault(const FaultSpec& spec, size_t fault_index, bool inject) {
  const auto target0 = static_cast<int64_t>(
      spec.targets.empty() ? 0 : NodeId(spec.targets[0].cls, spec.targets[0].index));
  obs::LogEvent(hooks_.log, kChaosControllerAddr, hooks_.queue->now(),
                inject ? obs::EventSev::kWarn : obs::EventSev::kInfo, obs::EventCat::kChaos,
                inject ? obs::EventCode::kFaultInject : obs::EventCode::kFaultClear,
                /*trace_id=*/0, FaultKindName(spec.kind),
                {{"fault", static_cast<int64_t>(fault_index)},
                 {"targets", static_cast<int64_t>(spec.targets.size())},
                 {"target0", target0}});
}

void ChaosEngine::ForEachShapedLink(const FaultSpec& spec,
                                    const std::function<void(uint32_t, uint32_t)>& fn) {
  // Empty target list = every directed link in the ensemble.
  if (spec.targets.empty()) {
    for (uint32_t a : hooks_.all_hosts) {
      for (uint32_t b : hooks_.all_hosts) {
        if (a != b) {
          fn(a, b);
        }
      }
    }
    return;
  }
  std::vector<uint32_t> target_addrs;
  target_addrs.reserve(spec.targets.size());
  for (const NodeRef& ref : spec.targets) {
    const uint32_t addr = hooks_.addr_of ? hooks_.addr_of(ref.cls, ref.index) : 0;
    if (addr != 0) {
      target_addrs.push_back(addr);
    }
  }
  auto is_target = [&](uint32_t addr) {
    return std::find(target_addrs.begin(), target_addrs.end(), addr) != target_addrs.end();
  };
  for (uint32_t t : target_addrs) {
    for (uint32_t other : hooks_.all_hosts) {
      if (other == t || is_target(other)) {
        continue;  // faults never sever targets from each other
      }
      fn(other, t);  // toward the target: always shaped
      if (!spec.asymmetric) {
        fn(t, other);
      }
    }
  }
}

void ChaosEngine::Apply(size_t fault_index) {
  const FaultSpec& spec = config_.faults[fault_index];
  ++injections_;
  LogFault(spec, fault_index, /*inject=*/true);
  switch (spec.kind) {
    case FaultKind::kPartition: {
      LinkShape shape;
      shape.blocked = true;
      ForEachShapedLink(spec, [this, &shape](uint32_t src, uint32_t dst) {
        hooks_.net->SetLinkShape(src, dst, shape);
      });
      return;
    }
    case FaultKind::kLoss: {
      LinkShape shape;
      shape.loss = spec.rate;
      ForEachShapedLink(spec, [this, &shape](uint32_t src, uint32_t dst) {
        hooks_.net->SetLinkShape(src, dst, shape);
      });
      return;
    }
    case FaultKind::kBurstLoss: {
      LinkShape shape;
      shape.burst_loss = spec.rate;
      shape.p_enter = spec.p_enter;
      shape.p_exit = spec.p_exit;
      ForEachShapedLink(spec, [this, &shape](uint32_t src, uint32_t dst) {
        hooks_.net->SetLinkShape(src, dst, shape);
      });
      return;
    }
    case FaultKind::kGrayDisk:
      for (const NodeRef& ref : spec.targets) {
        if (ref.cls == NodeClass::kStorage && hooks_.set_storage_disk_multiplier) {
          hooks_.set_storage_disk_multiplier(ref.index, spec.multiplier);
        }
      }
      return;
    case FaultKind::kGrayNic:
      for (const NodeRef& ref : spec.targets) {
        const uint32_t addr = hooks_.addr_of ? hooks_.addr_of(ref.cls, ref.index) : 0;
        if (addr != 0) {
          hooks_.net->SetHostExtraDelay(addr, spec.extra_latency);
        }
      }
      return;
    case FaultKind::kCrash:
      for (const NodeRef& ref : spec.targets) {
        if (hooks_.fail_node) {
          hooks_.fail_node(ref.cls, ref.index);
        }
      }
      return;
    case FaultKind::kClockSkew:
      for (const NodeRef& ref : spec.targets) {
        if (hooks_.set_heartbeat_scale) {
          hooks_.set_heartbeat_scale(ref.cls, ref.index, spec.multiplier);
        }
      }
      return;
  }
}

void ChaosEngine::Heal(size_t fault_index) {
  const FaultSpec& spec = config_.faults[fault_index];
  ++clears_;
  LogFault(spec, fault_index, /*inject=*/false);
  switch (spec.kind) {
    case FaultKind::kPartition:
    case FaultKind::kLoss:
    case FaultKind::kBurstLoss:
      ForEachShapedLink(spec, [this](uint32_t src, uint32_t dst) {
        hooks_.net->ClearLinkShape(src, dst);
      });
      return;
    case FaultKind::kGrayDisk:
      for (const NodeRef& ref : spec.targets) {
        if (ref.cls == NodeClass::kStorage && hooks_.set_storage_disk_multiplier) {
          hooks_.set_storage_disk_multiplier(ref.index, 1.0);
        }
      }
      return;
    case FaultKind::kGrayNic:
      for (const NodeRef& ref : spec.targets) {
        const uint32_t addr = hooks_.addr_of ? hooks_.addr_of(ref.cls, ref.index) : 0;
        if (addr != 0) {
          hooks_.net->SetHostExtraDelay(addr, 0);
        }
      }
      return;
    case FaultKind::kCrash:
      for (const NodeRef& ref : spec.targets) {
        if (hooks_.restart_node) {
          hooks_.restart_node(ref.cls, ref.index);
        }
      }
      return;
    case FaultKind::kClockSkew:
      for (const NodeRef& ref : spec.targets) {
        if (hooks_.set_heartbeat_scale) {
          hooks_.set_heartbeat_scale(ref.cls, ref.index, 1.0);
        }
      }
      return;
  }
}

}  // namespace slice::chaos
