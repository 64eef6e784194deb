#include "src/obs/eventlog.h"

#include <algorithm>

#include "src/obs/json.h"

namespace slice::obs {

const char* EventSevName(EventSev sev) {
  switch (sev) {
    case EventSev::kDebug:
      return "debug";
    case EventSev::kInfo:
      return "info";
    case EventSev::kWarn:
      return "warn";
    case EventSev::kError:
      return "error";
  }
  return "?";
}

const char* EventCatName(EventCat cat) {
  switch (cat) {
    case EventCat::kRoute:
      return "route";
    case EventCat::kCache:
      return "cache";
    case EventCat::kMgmt:
      return "mgmt";
    case EventCat::kFailover:
      return "failover";
    case EventCat::kRpc:
      return "rpc";
    case EventCat::kNet:
      return "net";
    case EventCat::kAlert:
      return "alert";
    case EventCat::kChaos:
      return "chaos";
  }
  return "?";
}

const char* EventCodeName(EventCode code) {
  switch (code) {
#define SLICE_EVENT_CODE_NAME(sym, value, name) \
  case EventCode::sym:                          \
    return name;
    SLICE_EVENT_CODES(SLICE_EVENT_CODE_NAME)
#undef SLICE_EVENT_CODE_NAME
  }
  return "?";
}

std::string EventCodeTableJson() {
  JsonWriter w;
  w.BeginObject().Key("event_codes").BeginArray();
#define SLICE_EVENT_CODE_JSON(sym, value, name) \
  w.BeginObject().Key("code").UInt(value).Key("name").String(name).EndObject();
  SLICE_EVENT_CODES(SLICE_EVENT_CODE_JSON)
#undef SLICE_EVENT_CODE_JSON
  w.EndArray().EndObject();
  return w.Take() + "\n";
}

void EventLog::Record(uint32_t host, SimTime at, EventSev sev, EventCat cat, EventCode code,
                      uint64_t trace_id, const char* detail, std::initializer_list<Kv> args) {
  if (!params_.enabled || sev < params_.min_severity) {
    return;
  }
  Event event;
  event.at = at;
  event.seq = next_seq_++;
  event.trace_id = trace_id;
  event.host = host;
  event.sev = sev;
  event.cat = cat;
  event.code = code;
  event.set_detail(detail);
  for (const Kv& kv : args) {
    if (event.nargs == kEventMaxArgs) {
      break;
    }
    EventArg& arg = event.args[event.nargs++];
    std::strncpy(arg.key, kv.key, kEventArgKeyCap - 1);
    arg.key[kEventArgKeyCap - 1] = '\0';
    arg.value = kv.value;
  }
  auto it = rings_.find(host);
  if (it == rings_.end()) {
    it = rings_.emplace(host, EventRing(params_.ring_capacity)).first;
  }
  it->second.Push(event);
  ++recorded_;
}

std::vector<Event> EventLog::Collect() const {
  std::vector<Event> out;
  size_t total = 0;
  for (const auto& [host, ring] : rings_) {
    total += ring.size();
  }
  out.reserve(total);
  for (const auto& [host, ring] : rings_) {
    ring.CopyTo(out);
  }
  // Per-host runs are already seq-ordered (rings evict oldest-first), so a
  // stable sort on (at, seq) yields the global causal order.
  std::stable_sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    if (a.at != b.at) {
      return a.at < b.at;
    }
    return a.seq < b.seq;
  });
  return out;
}

uint64_t EventLog::total_evicted() const {
  uint64_t total = 0;
  for (const auto& [host, ring] : rings_) {
    total += ring.overwritten();
  }
  return total;
}

}  // namespace slice::obs
