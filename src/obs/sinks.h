// The one wiring path from the observability pillars to the components.
//
// A Sinks is a flat handle on the four pillars — traces, metrics, the event
// log and the profiler — with null meaning "off". The ensemble builds one
// after it creates the pillars and passes it to every component constructor
// (a defaulted trailing argument, so stand-alone construction in tests sees
// every pillar off). Each component caches the pointers it uses, registers
// its instruments and looks up its profiler ledger once, in its constructor;
// hot paths then pay one null branch per pillar, as before.
//
// Which component sees which pillar:
//   * the network, every RPC server node (dir, small-file, storage,
//     coordinator, manager) and every µproxy: all four;
//   * the µproxy's own RpcClient: the tracer and the event log;
//   * the internal clients of the small-file servers and coordinators, and
//     every write-ahead log: the tracer only (TracerOnly), so their calls
//     join the requesting trace without adding events or instruments;
//   * heartbeat agents: metrics only; the scraper and the SLO engine: the
//     event log (they already hold the metrics hub they read).
#ifndef SLICE_OBS_SINKS_H_
#define SLICE_OBS_SINKS_H_

namespace slice::obs {

class EventLog;
class Metrics;
class Profiler;
class Tracer;

struct Sinks {
  Tracer* tracer = nullptr;
  Metrics* metrics = nullptr;
  EventLog* eventlog = nullptr;
  Profiler* profiler = nullptr;

  Sinks TracerOnly() const { return Sinks{.tracer = tracer}; }
};

}  // namespace slice::obs

#endif  // SLICE_OBS_SINKS_H_
