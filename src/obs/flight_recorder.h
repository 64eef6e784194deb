// Black-box flight recorder: canonical JSON dump of the structured event
// log (obs/eventlog.h) merged across hosts in sim-time order, together with
// the current metrics snapshot and the trace ids of requests still in
// flight at dump time.
//
// Dumps are byte-identical across same-seed runs (integer-only rendering,
// ordered maps, stable merge), hashed with the same FNV-1a convention as
// TraceContentHash / MetricsContentHash. tools/slice_inspect.py consumes
// this format offline.
#ifndef SLICE_OBS_FLIGHT_RECORDER_H_
#define SLICE_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/eventlog.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/slo.h"
#include "src/obs/timeseries.h"

namespace slice::obs {

// Renders the flight dump. `metrics`/`scraper`/`slo`/`inflight`/`profiler`
// are optional (null / empty => the corresponding section is omitted or
// empty). `reason` tags why the dump was cut ("teardown", "alert:<rule>",
// "manual", ...); `at` is the sim time of the dump. The profile section
// carries wall-clock values, so profiled dumps are not hash-pinned — pin
// Profiler::ProfileSimHash instead.
std::string ExportFlightJson(const EventLog& log, SimTime at, const char* reason,
                             const std::vector<uint64_t>& inflight_traces = {},
                             const Metrics* metrics = nullptr, const Scraper* scraper = nullptr,
                             const SloEngine* slo = nullptr, const Profiler* profiler = nullptr);

// FNV-1a over the canonical dump bytes (same convention as the trace and
// metrics content hashes).
uint64_t FlightContentHash(std::string_view canonical_json);

}  // namespace slice::obs

#endif  // SLICE_OBS_FLIGHT_RECORDER_H_
