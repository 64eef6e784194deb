// Trace tour: run a few NFS operations through the interposed µproxy with
// end-to-end tracing enabled, then look at where each operation's latency
// actually went.
//
//   $ ./trace_tour
//
// Every request gets a trace id minted at the µproxy; the span context rides
// a trailer on each packet, so every hop — route decision, wire legs, server
// CPU, disk — records into the same trace. The critical-path analyzer then
// breaks mean latency down per opclass, and the full span set exports as
// chrome://tracing JSON (open trace_tour.json in a Chromium browser at
// chrome://tracing, or in Perfetto).
#include <cstdio>

#include "src/obs/critical_path.h"
#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/slice/ensemble.h"
#include "src/slice/volume_client.h"

using namespace slice;

int main() {
  // 1. Same ensemble as the quickstart, with tracing switched on.
  EventQueue queue;
  EnsembleConfig config;
  config.num_dir_servers = 2;
  config.num_small_file_servers = 2;
  config.num_storage_nodes = 4;
  config.num_coordinators = 1;
  config.trace.enabled = true;
  Ensemble ensemble(queue, config);

  VolumeClient volume(ensemble.client_host(0), queue, ensemble.virtual_server(),
                      ensemble.root());

  // 2. A small mixed workload: directory ops, a small file, a striped file.
  SLICE_CHECK(volume.MkdirAll("/traced/run").ok());
  Bytes note(2000, 'n');
  SLICE_CHECK(volume.WriteFile("/traced/run/NOTES.md", note).ok());
  Bytes big(256 << 10);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 7);
  }
  SLICE_CHECK(volume.WriteFile("/traced/run/dataset.bin", big).ok());
  SLICE_CHECK(volume.ReadFile("/traced/run/NOTES.md").value() == note);
  SLICE_CHECK(volume.ReadFile("/traced/run/dataset.bin").value() == big);
  SLICE_CHECK(volume.Stat("/traced/run/dataset.bin").ok());

  // 3. Where did the time go? Per opclass: wire vs queue vs cpu vs disk.
  const obs::CriticalPathReport report = ensemble.AnalyzeCriticalPath();
  std::printf("%llu operations traced end to end\n\n",
              static_cast<unsigned long long>(report.traces_analyzed));
  std::printf("%s", obs::CriticalPath::Format(report).c_str());

  // 4. Export the raw spans for interactive viewing.
  const std::string json = ensemble.ExportTraceJson();
  if (!obs::WriteArtifact("trace_tour.json", json)) {
    return 1;
  }
  std::printf(
      "\n%llu spans (%llu evicted) written to trace_tour.json — load it in\n"
      "chrome://tracing to walk any single request hop by hop.\n",
      static_cast<unsigned long long>(ensemble.tracer()->total_recorded()),
      static_cast<unsigned long long>(ensemble.tracer()->total_evicted()));
  return 0;
}
