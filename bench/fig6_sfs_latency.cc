// Figure 6 reproduction: SPECsfs97-style mean latency vs delivered
// throughput.
//
//   paper: latency stays low until saturation, with visible jumps where the
//   ensemble's small-file-server cache (1GB across two servers) overflows as
//   the self-scaling file set grows; the EMC Celerra 506 comparison point
//   had lower latency in the nearest-equivalent configuration, but Slice
//   kept scaling by adding nodes.
//
// We sweep offered load (the file set grows with it, like SPECsfs) and print
// (delivered IOPS, mean ms) series for the baseline and Slice-N.
//
// Flags:
//   --smoke           small sweep (2 loads, NFS + Slice-2) for CI; the
//                     resulting BENCH_fig6.json is checked against
//                     bench/golden/fig6_smoke_golden.json
//   --trace           re-run one representative Slice point with end-to-end
//                     tracing enabled, print the critical-path breakdown
//                     behind its mean latency (wire vs queue vs cpu vs disk
//                     per opclass), and write the chrome://tracing JSON to
//                     fig6_trace.json
//   --flight-dump <path>  re-run one Slice point with the event log on and
//                     write the flight-recorder dump to <path>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/sfs_harness.h"
#include "src/obs/json.h"

namespace slice {
namespace {

// Each step returns false when its artifact could not be written.
bool RunFig6(bool smoke) {
  std::printf("Figure 6: SFS97-like mean latency (ms) vs delivered throughput (IOPS)\n\n");
  const std::vector<double> offered_loads =
      smoke ? std::vector<double>{400, 800}
            : std::vector<double>{400, 800, 1600, 3200, 6400, 9600, 12800};

  struct BenchLine {
    const char* name;
    std::vector<SfsPoint> points;
  };
  std::vector<BenchLine> lines;
  auto run_line = [&](const char* name, auto&& runner) {
    BenchLine line{name, {}};
    std::printf("%-10s", name);
    for (double offered : offered_loads) {
      const SfsPoint point = runner(offered);
      line.points.push_back(point);
      std::printf("  (%5.0f, %5.1fms)", point.delivered, point.latency_ms);
      std::fflush(stdout);
    }
    std::printf("\n");
    lines.push_back(std::move(line));
  };

  std::printf(smoke ? "%-10s  (delivered IOPS, mean latency) per offered point [%.0f, %.0f]\n"
                    : "%-10s  (delivered IOPS, mean latency) per offered point [%.0f..%.0f]\n",
              "line", offered_loads.front(), offered_loads.back());
  run_line("NFS", [](double o) { return RunBaselinePoint(o); });
  if (smoke) {
    run_line("Slice-2", [](double o) { return RunSlicePoint(2, o).point; });
  } else {
    run_line("Slice-1", [](double o) { return RunSlicePoint(1, o).point; });
    run_line("Slice-2", [](double o) { return RunSlicePoint(2, o).point; });
    run_line("Slice-4", [](double o) { return RunSlicePoint(4, o).point; });
    run_line("Slice-8", [](double o) { return RunSlicePoint(8, o).point; });
  }

  std::printf(
      "\nshape checks (paper): latency low and flat until each line approaches its\n"
      "saturation point, then climbs steeply; latency jumps appear as the growing\n"
      "file set overflows the small-file-server caches; larger Slice\n"
      "configurations sustain acceptable latency to higher IOPS.\n");

  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("fig6");
  w.Key("smoke").Int(smoke ? 1 : 0);
  w.Key("offered").BeginArray();
  for (double offered : offered_loads) {
    w.Fixed(offered, 0);
  }
  w.EndArray();
  w.Key("lines").BeginArray();
  for (const BenchLine& line : lines) {
    w.BeginObject();
    w.Key("name").String(line.name);
    w.Key("points").BeginArray();
    for (const SfsPoint& point : line.points) {
      w.BeginObject();
      w.Key("offered").Fixed(point.offered, 0);
      w.Key("delivered_iops").Fixed(point.delivered, 1);
      w.Key("mean_ms").Fixed(point.latency_ms, 3);
      w.Key("p50_ms").Fixed(point.p50_ms, 3);
      w.Key("p95_ms").Fixed(point.p95_ms, 3);
      w.Key("p99_ms").Fixed(point.p99_ms, 3);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  if (!obs::WriteArtifact("BENCH_fig6.json", w.str() + "\n")) {
    return false;
  }
  std::printf("wrote BENCH_fig6.json\n");
  return true;
}

bool RunFig6Trace() {
  std::printf("\n--trace: Slice-4 @ 1600 ops/s with end-to-end tracing enabled\n\n");
  const SliceRun run = RunSlicePoint(4, 1600, {.trace = true});
  std::printf("delivered %.0f IOPS, mean %.1f ms; %llu ops traced\n\n", run.point.delivered,
              run.point.latency_ms,
              static_cast<unsigned long long>(run.critical_path.traces_analyzed));
  std::printf("%s", obs::CriticalPath::Format(run.critical_path).c_str());
  if (!obs::WriteArtifact("fig6_trace.json", run.trace_json)) {
    return false;
  }
  std::printf("\nfull trace written to fig6_trace.json (load in chrome://tracing)\n");
  return true;
}

bool RunFig6Flight(bool smoke, const char* path) {
  const size_t nodes = smoke ? 2 : 4;
  const double offered = smoke ? 800 : 1600;
  std::printf("\n--flight-dump: Slice-%zu @ %.0f ops/s with the event log enabled\n", nodes,
              offered);
  const SliceRun run = RunSlicePoint(nodes, offered, {.metrics = true, .eventlog = true});
  if (!obs::WriteArtifact(path, run.flight_json)) {
    return false;
  }
  std::printf("flight dump written to %s (hash %016llx)\n", path,
              static_cast<unsigned long long>(obs::FlightContentHash(run.flight_json)));
  return true;
}

}  // namespace
}  // namespace slice

int main(int argc, char** argv) {
  bool trace = false;
  bool smoke = false;
  const char* flight_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--flight-dump") == 0 && i + 1 < argc) {
      flight_path = argv[++i];
    }
  }
  if (!slice::RunFig6(smoke) || (trace && !slice::RunFig6Trace()) ||
      (flight_path != nullptr && !slice::RunFig6Flight(smoke, flight_path))) {
    return 1;
  }
  return 0;
}
