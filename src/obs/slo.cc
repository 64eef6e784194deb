#include "src/obs/slo.h"

#include <cstdio>

namespace slice::obs {

int64_t SloEngine::BurnMilli(const TenantState& st, uint32_t windows) const {
  if (st.ring.size() < 2) {
    return 0;  // need at least two snapshots for a delta
  }
  const size_t newest = st.ring.size() - 1;
  const size_t back = windows < newest ? windows : newest;  // partial: oldest available
  const Snap& cur = st.ring.at(newest);
  const Snap& old = st.ring.at(newest - back);
  const uint64_t ops = cur.ops - old.ops;
  const uint64_t bad = cur.bad - old.bad;
  if (ops < params_.min_ops || bad == 0) {
    return 0;
  }
  // burn = (bad/ops) / (budget_ppm/1e6); in milli-burns: bad*1e9/(ops*ppm).
  return static_cast<int64_t>(bad * 1000000000ULL /
                              (ops * static_cast<uint64_t>(params_.error_budget_ppm)));
}

void SloEngine::OnScrape(SimTime now) {
  if (!params_.enabled) {
    return;
  }
  for (const TenantInstruments& ti : metrics_.tenants()) {
    TenantState& st = state_.try_emplace(ti.tenant, params_.slow_windows + 1).first->second;
    st.ring.Push(Snap{ti.TotalOps(), ti.bad_ops.Value()});

    st.fast_milli = BurnMilli(st, params_.fast_windows);
    st.slow_milli = BurnMilli(st, params_.slow_windows);

    if (!st.raised) {
      if (st.fast_milli >= params_.burn_threshold_milli &&
          st.slow_milli >= params_.burn_threshold_milli) {
        if (++st.above >= params_.raise_streak) {
          st.raised = true;
          st.above = 0;
          st.below = 0;
          EmitEdge(now, ti.tenant, st, ti.exemplars.Worst().trace_id);
        }
      } else {
        st.above = 0;
      }
    } else {
      if (st.fast_milli < params_.burn_threshold_milli) {
        if (++st.below >= params_.clear_streak) {
          st.raised = false;
          st.above = 0;
          st.below = 0;
          EmitEdge(now, ti.tenant, st, ti.exemplars.Worst().trace_id);
        }
      } else {
        st.below = 0;
      }
    }
  }
}

void SloEngine::EmitEdge(SimTime now, uint32_t tenant, const TenantState& st,
                         uint64_t trace_id) {
  alerts_.push_back(
      SloAlert{now, tenant, st.raised, st.fast_milli, st.slow_milli, trace_id});
  char detail[kEventDetailCap];
  std::snprintf(detail, sizeof(detail), "tenant%u", tenant);
  LogEvent(eventlog_, kSloHost, now, st.raised ? EventSev::kError : EventSev::kInfo,
           EventCat::kAlert, st.raised ? EventCode::kSloBurn : EventCode::kSloOk, trace_id,
           detail,
           {{"tenant", static_cast<int64_t>(tenant)},
            {"fast", st.fast_milli},
            {"slow", st.slow_milli}});
}

size_t SloEngine::active_burns() const {
  size_t n = 0;
  for (const auto& [tenant, st] : state_) {
    n += st.raised ? 1 : 0;
  }
  return n;
}

bool SloEngine::burning(uint32_t tenant) const {
  const auto it = state_.find(tenant);
  return it != state_.end() && it->second.raised;
}

int64_t SloEngine::fast_burn_milli(uint32_t tenant) const {
  const auto it = state_.find(tenant);
  return it == state_.end() ? 0 : it->second.fast_milli;
}

int64_t SloEngine::slow_burn_milli(uint32_t tenant) const {
  const auto it = state_.find(tenant);
  return it == state_.end() ? 0 : it->second.slow_milli;
}

}  // namespace slice::obs
