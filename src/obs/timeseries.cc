#include "src/obs/timeseries.h"

namespace slice::obs {

void Scraper::Start() {
  if (started_ || !metrics_.enabled()) {
    return;
  }
  started_ = true;
  ScheduleNext();
}

void Scraper::ScheduleNext() {
  const SimTime interval = metrics_.params().scrape_interval;
  // Next exact multiple of the interval strictly after now: scrapes are
  // window-aligned regardless of when the scraper was started.
  const SimTime next = (queue_.now() / interval + 1) * interval;
  auto scrape = [this] {
    ScrapeOnce();
    ScheduleNext();
  };
  queue_.ScheduleBackgroundAt(next, scrape, owner_.id());
}

void Scraper::ScrapeOnce() {
  const SimTime now = queue_.now();
  const size_t capacity = metrics_.params().series_capacity;
  for (const auto& [host, reg] : metrics_.registries()) {
    auto& host_series = series_[host];
    auto push = [&](const std::string& name, int64_t value) {
      auto it = host_series.find(name);
      if (it == host_series.end()) {
        it = host_series.emplace(name, TimeSeries(capacity)).first;
      }
      it->second.Push(Sample{now, value});
    };
    for (const auto& [name, counter] : reg.counters()) {
      push(name, static_cast<int64_t>(counter->Value()));
    }
    for (const auto& [name, gauge] : reg.gauges()) {
      push(name, gauge->Value());
    }
    for (const auto& [name, histogram] : reg.histograms()) {
      push(name, static_cast<int64_t>(histogram->stats().count()));
    }
  }
  for (const TenantInstruments& ti : metrics_.tenants()) {
    auto& ts = tenant_series_[ti.tenant];
    auto push = [&](const std::string& name, int64_t value) {
      auto it = ts.find(name);
      if (it == ts.end()) {
        it = ts.emplace(name, TimeSeries(capacity)).first;
      }
      it->second.Push(Sample{now, value});
    };
    for (size_t i = 0; i < kTenantOpClassCount; ++i) {
      const std::string cls = TenantOpClassName(static_cast<TenantOpClass>(i));
      push("ops_" + cls, static_cast<int64_t>(ti.ops[i].Value()));
      push("bytes_" + cls, static_cast<int64_t>(ti.bytes[i].Value()));
    }
    push("errors", static_cast<int64_t>(ti.errors.Value()));
    push("bad_ops", static_cast<int64_t>(ti.bad_ops.Value()));
  }
  ++scrapes_;
  EvaluateRules(now);
  if (scrape_hook_) {
    scrape_hook_(now);
  }
}

int64_t Scraper::SampleMetric(const MetricsRegistry& reg, std::string_view name,
                              bool* found) const {
  if (const Counter* counter = reg.FindCounter(name); counter != nullptr) {
    *found = true;
    return static_cast<int64_t>(counter->Value());
  }
  if (const Gauge* gauge = reg.FindGauge(name); gauge != nullptr) {
    *found = true;
    return gauge->Value();
  }
  *found = false;
  return 0;
}

void Scraper::EvaluateRules(SimTime now) {
  for (size_t r = 0; r < rules_.size(); ++r) {
    const WatchdogRule& rule = rules_[r];
    for (const auto& [host, reg] : metrics_.registries()) {
      bool found = false;
      const int64_t value = SampleMetric(reg, rule.metric, &found);
      if (!found) {
        continue;
      }
      RuleState& st = state_[{r, host}];
      int64_t sample = value;
      if (rule.mode == WatchdogMode::kDelta) {
        if (!st.has_prev) {
          // First observation establishes the window baseline.
          st.prev = value;
          st.has_prev = true;
          continue;
        }
        sample = value - st.prev;
        st.prev = value;
      }
      if (!st.raised) {
        if (sample >= rule.raise_threshold) {
          if (++st.above >= rule.raise_streak) {
            st.raised = true;
            st.above = 0;
            st.below = 0;
            EmitAlert(Alert{now, rule.name, host, sample, /*raise=*/true});
          }
        } else {
          st.above = 0;
        }
      } else {
        if (sample <= rule.clear_threshold) {
          if (++st.below >= rule.clear_streak) {
            st.raised = false;
            st.above = 0;
            st.below = 0;
            EmitAlert(Alert{now, rule.name, host, sample, /*raise=*/false});
          }
        } else {
          st.below = 0;
        }
      }
    }
  }
}

void Scraper::EmitAlert(const Alert& alert) {
  alerts_.push_back(alert);
  LogEvent(eventlog_, alert.host, alert.at, alert.raise ? EventSev::kError : EventSev::kInfo,
           EventCat::kAlert, alert.raise ? EventCode::kAlertRaise : EventCode::kAlertClear,
           /*trace_id=*/0, alert.rule.c_str(), {{"value", alert.value}});
  if (alert_hook_) {
    alert_hook_(alert);
  }
}

size_t Scraper::active_alerts() const {
  size_t n = 0;
  for (const auto& [key, st] : state_) {
    n += st.raised ? 1 : 0;
  }
  return n;
}

}  // namespace slice::obs
