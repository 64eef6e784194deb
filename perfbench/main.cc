// Wall-clock cost of the Slice simulator per simulated NFS op.
//
//   slice_perfbench --workload sfs_peak|bulk_stream|dir_churn --seed N
//                   --seconds S --trace 0|1 [--spans PATH]
//
// A run repeats one seed's workload on a fresh ensemble until S wall seconds
// have passed, at least three times untraced; with --trace 1 traced
// repetitions alternate with them, at least two. Every repetition
// simulates exactly the same thing, which the digest of its simulated results
// proves: a run fails unless all its digests, traced ones included, agree.
// End-to-end metrics are medians over untraced repetitions; per-layer metrics
// come from the traced ones. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/host_speed.h"
#include "perfbench/span_trace.h"
#include "perfbench/workloads.h"
#include "src/common/hash.h"
#include "src/slice/ensemble.h"

namespace perfbench {
namespace {

// Simulator counters, read through public getters around the measured phase.
enum Counter : size_t {
  kEvents,
  kPkts,
  kBytes,
  kDropped,
  kServed,
  kDuplicates,
  kDirCross,
  kDirLocal,
  kStorageHits,
  kStorageMisses,
  kDiskIos,
  kSfsHits,
  kSfsMisses,
  kSfsFetches,
  kNumCounters
};
using Counters = std::array<uint64_t, kNumCounters>;

// Every RPC server node in a fixed order: dir, small-file, storage, coordinator.
std::vector<slice::RpcServerNode*> Servers(slice::Ensemble& ensemble) {
  std::vector<slice::RpcServerNode*> out;
  for (size_t i = 0; i < ensemble.num_dir_servers(); ++i) {
    out.push_back(&ensemble.dir_server(i));
  }
  for (size_t i = 0; i < ensemble.num_small_file_servers(); ++i) {
    out.push_back(&ensemble.small_file_server(i));
  }
  for (size_t i = 0; i < ensemble.num_storage_nodes(); ++i) {
    out.push_back(&ensemble.storage_node(i));
  }
  for (size_t i = 0; i < ensemble.num_coordinators(); ++i) {
    out.push_back(&ensemble.coordinator(i));
  }
  return out;
}

Counters ReadCounters(slice::Ensemble& ensemble) {
  Counters c{};
  c[kEvents] = ensemble.queue().executed();
  c[kPkts] = ensemble.network().packets_sent();
  c[kBytes] = ensemble.network().bytes_sent();
  c[kDropped] = ensemble.network().packets_dropped();
  for (slice::RpcServerNode* node : Servers(ensemble)) {
    c[kServed] += node->requests_served();
    c[kDuplicates] += node->duplicates_answered();
  }
  for (size_t i = 0; i < ensemble.num_dir_servers(); ++i) {
    c[kDirCross] += ensemble.dir_server(i).cross_site_ops();
    c[kDirLocal] += ensemble.dir_server(i).local_ops();
  }
  for (size_t i = 0; i < ensemble.num_storage_nodes(); ++i) {
    const slice::StorageNode& node = ensemble.storage_node(i);
    c[kStorageHits] += node.cache().hits();
    c[kStorageMisses] += node.cache().misses();
    c[kDiskIos] += node.disks().TotalIos();
  }
  for (size_t i = 0; i < ensemble.num_small_file_servers(); ++i) {
    const slice::SmallFileServer& server = ensemble.small_file_server(i);
    c[kSfsHits] += server.cache().hits();
    c[kSfsMisses] += server.cache().misses();
    c[kSfsFetches] += server.backing_fetches();
  }
  return c;
}

// The simulated results of one repetition as text; its FNV-1a hash is the
// digest. Equal digests mean equal simulations, so a change that moves the
// digest changes what is simulated.
std::string DigestText(const WorkloadResult& work, slice::Ensemble& ensemble) {
  std::string text = "ops=" + std::to_string(work.completed) +
                     " failed=" + std::to_string(work.failed) +
                     " p50_ns=" + std::to_string(work.p50) + " p99_ns=" + std::to_string(work.p99) +
                     " events=" + std::to_string(ensemble.queue().executed()) +
                     " sim_ns=" + std::to_string(ensemble.queue().now()) +
                     " pkts=" + std::to_string(ensemble.network().packets_sent()) +
                     " bytes=" + std::to_string(ensemble.network().bytes_sent()) +
                     " drops=" + std::to_string(ensemble.network().packets_dropped()) + " served=";
  const char* sep = "";
  for (slice::RpcServerNode* node : Servers(ensemble)) {
    text += sep + std::to_string(node->requests_served());
    sep = ",";
  }
  return text;
}

struct Rep {
  // Wall times divided by the host slowdown timed around them (host_speed.h).
  double setup_s = 0;
  double measure_s = 0;
  double measure_wall_s = 0;
  double measure_slowdown = 1;
  uint64_t allocs = 0;
  WorkloadResult work;
  Counters delta{};
  std::string digest_text;
  uint64_t digest = 0;
  LayerTotals layers;
  std::string error;  // empty when setup and verification passed

  double ops() const { return static_cast<double>(work.completed); }
};

Rep RunRep(std::string_view workload, uint64_t seed, bool traced, const char* spans_path) {
  Rep rep;
  std::unique_ptr<Workload> work = MakeWorkload(workload, seed);
  const double slowdown0 = HostSlowdown();
  const uint64_t t0 = WallNs();
  slice::EventQueue queue;
  auto ensemble = std::make_unique<slice::Ensemble>(queue, work->Config());
  rep.error = work->Setup(*ensemble);
  const uint64_t t1 = WallNs();
  const double slowdown1 = HostSlowdown();
  rep.setup_s = static_cast<double>(t1 - t0) / 1e9 / ((slowdown0 + slowdown1) / 2);
  if (!rep.error.empty()) {
    work.reset();  // its clients live on the ensemble's hosts
    return rep;
  }

  const Counters before = ReadCounters(*ensemble);
  std::unique_ptr<SpanTrace> trace;
  std::vector<std::unique_ptr<slice::PacketTap>> taps;
  if (traced) {
    trace = std::make_unique<SpanTrace>(queue);
    slice::Network& net = ensemble->network();
    for (size_t i = 0; i < ensemble->num_dir_servers(); ++i) {
      taps.push_back(std::make_unique<ServerTap>(net, *trace, ensemble->dir_server(i).addr(), kDir));
    }
    for (size_t i = 0; i < ensemble->num_small_file_servers(); ++i) {
      taps.push_back(
          std::make_unique<ServerTap>(net, *trace, ensemble->small_file_server(i).addr(), kSfs));
    }
    for (size_t i = 0; i < ensemble->num_storage_nodes(); ++i) {
      taps.push_back(
          std::make_unique<ServerTap>(net, *trace, ensemble->storage_node(i).addr(), kStorage));
    }
    for (size_t i = 0; i < ensemble->num_coordinators(); ++i) {
      taps.push_back(
          std::make_unique<ServerTap>(net, *trace, ensemble->coordinator(i).addr(), kCoord));
    }
    for (size_t i = 0; i < ensemble->num_clients(); ++i) {
      taps.push_back(std::make_unique<CoreTap>(net, *trace, ensemble->client_host(i).addr(),
                                               ensemble->uproxy(i)));
    }
  }

  const uint64_t allocs0 = AllocCount();
  const uint64_t m0 = WallNs();
  rep.work = work->Measure(*ensemble);
  const uint64_t m1 = WallNs();
  rep.allocs = AllocCount() - allocs0;
  rep.measure_slowdown = (slowdown1 + HostSlowdown()) / 2;
  rep.measure_wall_s = static_cast<double>(m1 - m0) / 1e9;
  rep.measure_s = rep.measure_wall_s / rep.measure_slowdown;

  if (traced) {
    trace->Stop();
    taps.clear();
    rep.layers = trace->Summarize();
    if (spans_path != nullptr && !trace->WriteTsv(spans_path)) {
      rep.error = std::string("cannot write spans to ") + spans_path;
    }
    trace.reset();
  }
  const Counters after = ReadCounters(*ensemble);
  for (size_t i = 0; i < kNumCounters; ++i) {
    rep.delta[i] = after[i] - before[i];
  }
  rep.digest_text = DigestText(rep.work, *ensemble);
  rep.digest = slice::Fnv1a64(rep.digest_text);
  if (rep.error.empty()) {
    rep.error = work->Verify(*ensemble);
  }
  if (rep.error.empty() && rep.work.completed == 0) {
    rep.error = "no op completed";
  }
  work.reset();
  ensemble.reset();
  return rep;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

template <typename F>
double MedianOf(const std::vector<Rep>& reps, F f) {
  std::vector<double> v;
  for (const Rep& rep : reps) {
    v.push_back(f(rep));
  }
  return Median(std::move(v));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<Metric> EndToEnd(const std::vector<Rep>& plain, double first_rep_rss_mb) {
  return {
      {"ops_per_s", MedianOf(plain, [](const Rep& r) { return r.ops() / r.measure_s; }), "1/s"},
      {"setup_s", MedianOf(plain, [](const Rep& r) { return r.setup_s; }), "s"},
      {"allocs_per_op",
       MedianOf(plain, [](const Rep& r) { return Ratio(static_cast<double>(r.allocs), r.ops()); }),
       "count"},
      {"peak_rss_mb", first_rep_rss_mb, "MB"},
  };
}

// Per-layer metrics, summed over the traced repetitions (each simulates the
// same ops, so sums over ops are per-op averages). Times are host-normalized
// like the end-to-end ones.
std::vector<Metric> PerLayer(const std::vector<Rep>& plain, const std::vector<Rep>& traced) {
  LayerTotals t;
  std::array<double, kNumLayers> self_ns{};
  double dispatch_ns = 0;
  double other_ns = 0;
  double measure_ns = 0;
  Counters d{};
  double ops = 0;
  for (const Rep& rep : traced) {
    const LayerTotals& l = rep.layers;
    const double scale = 1.0 / rep.measure_slowdown;
    for (size_t i = 0; i < kNumLayers; ++i) {
      self_ns[i] += static_cast<double>(l.self_ns[i]) * scale;
      t.self_allocs[i] += l.self_allocs[i];
      t.calls[i] += l.calls[i];
    }
    t.core_pkts += l.core_pkts;
    t.dispatches += l.dispatches;
    t.depth_sum += l.depth_sum;
    t.other_allocs += l.other_allocs;
    dispatch_ns += static_cast<double>(l.dispatch_ns) * scale;
    other_ns += static_cast<double>(l.other_ns) * scale;
    measure_ns += rep.measure_s * 1e9;
    for (size_t i = 0; i < kNumCounters; ++i) {
      d[i] += rep.delta[i];
    }
    ops += rep.ops();
  }
  const auto per_op = [ops](double x) { return Ratio(x, ops); };
  const auto pct = [](double part, double whole) { return 100.0 * Ratio(part, whole); };
  const auto ns = [&](Layer l) { return per_op(self_ns[l]); };
  const auto allocs = [&](Layer l) { return per_op(static_cast<double>(t.self_allocs[l])); };
  const auto calls = [&](Layer l) { return per_op(static_cast<double>(t.calls[l])); };
  const auto count = [&](Counter c) { return static_cast<double>(d[c]); };

  const double loop_ns = measure_ns - dispatch_ns;
  double covered = loop_ns + other_ns;
  for (const double layer_ns : self_ns) {
    covered += layer_ns;
  }
  const double plain_rate = MedianOf(plain, [](const Rep& r) { return r.ops() / r.measure_s; });
  const double traced_rate = MedianOf(traced, [](const Rep& r) { return r.ops() / r.measure_s; });
  return {
      {"sim.loop_ns_per_op", per_op(loop_ns), "ns"},
      {"sim.events_per_op", per_op(count(kEvents)), "count"},
      {"sim.heap_depth_mean", Ratio(static_cast<double>(t.depth_sum), static_cast<double>(t.dispatches)), "count"},
      {"dir.ns_per_op", ns(kDir), "ns"},
      {"dir.calls_per_op", calls(kDir), "count"},
      {"dir.allocs_per_op", allocs(kDir), "count"},
      {"dir.cross_site_pct", pct(count(kDirCross), count(kDirCross) + count(kDirLocal)), "%"},
      {"storage.ns_per_op", ns(kStorage), "ns"},
      {"storage.calls_per_op", calls(kStorage), "count"},
      {"storage.allocs_per_op", allocs(kStorage), "count"},
      {"storage.cache_hit_pct", pct(count(kStorageHits), count(kStorageHits) + count(kStorageMisses)), "%"},
      {"storage.disk_ios_per_op", per_op(count(kDiskIos)), "count"},
      {"sfs.ns_per_op", ns(kSfs), "ns"},
      {"sfs.calls_per_op", calls(kSfs), "count"},
      {"sfs.allocs_per_op", allocs(kSfs), "count"},
      {"sfs.cache_hit_pct", pct(count(kSfsHits), count(kSfsHits) + count(kSfsMisses)), "%"},
      {"sfs.backing_fetches_per_op", per_op(count(kSfsFetches)), "count"},
      {"core.ns_per_op", ns(kCore), "ns"},
      {"core.pkts_per_op", per_op(static_cast<double>(t.core_pkts)), "count"},
      {"core.allocs_per_op", allocs(kCore), "count"},
      {"coord.ns_per_op", ns(kCoord), "ns"},
      {"coord.calls_per_op", calls(kCoord), "count"},
      {"net.tx_ns_per_op", ns(kNet), "ns"},
      {"net.pkts_per_op", per_op(count(kPkts)), "count"},
      {"net.bytes_per_op", per_op(count(kBytes)), "B"},
      {"net.drop_pct", pct(count(kDropped), count(kPkts)), "%"},
      {"rpc.dup_pct", pct(count(kDuplicates), count(kServed)), "%"},
      {"other.ns_per_op", per_op(other_ns), "ns"},
      {"other.allocs_per_op", per_op(static_cast<double>(t.other_allocs)), "count"},
      {"trace.coverage_pct", pct(covered, measure_ns), "%"},
      {"trace.overhead_pct", 100.0 * (Ratio(plain_rate, traced_rate) - 1.0), "%"},
  };
}

const Metric& Find(const std::vector<Metric>& metrics, std::string_view name) {
  return *std::find_if(metrics.begin(), metrics.end(),
                       [name](const Metric& m) { return m.name == name; });
}

void PrintLayerTable(const std::vector<Metric>& m) {
  struct Row {
    const char* layer;
    const char* ns;
    const char* allocs;
  };
  static constexpr Row kRows[] = {
      {"sim.loop", "sim.loop_ns_per_op", nullptr},
      {"dir", "dir.ns_per_op", "dir.allocs_per_op"},
      {"storage", "storage.ns_per_op", "storage.allocs_per_op"},
      {"sfs", "sfs.ns_per_op", "sfs.allocs_per_op"},
      {"core", "core.ns_per_op", "core.allocs_per_op"},
      {"coord", "coord.ns_per_op", nullptr},
      {"net", "net.tx_ns_per_op", nullptr},
      {"other", "other.ns_per_op", "other.allocs_per_op"},
  };
  double total = 0;
  for (const Row& row : kRows) {
    total += Find(m, row.ns).value;
  }
  std::printf("\n%-10s %12s %8s %12s\n", "layer", "ns/op", "share", "allocs/op");
  for (const Row& row : kRows) {
    const double ns = Find(m, row.ns).value;
    std::printf("%-10s %12.1f %7.1f%% ", row.layer, ns, 100.0 * Ratio(ns, total));
    if (row.allocs != nullptr) {
      std::printf("%12.2f", Find(m, row.allocs).value);
    } else {
      std::printf("%12s", "-");
    }
    std::printf("%s\n", std::strcmp(row.layer, "other") == 0
                            ? "   <- only in-program spans can split this (net flights, rpc "
                              "client and NFS reply decode, workload generator, disk/timer "
                              "closures)"
                            : "");
  }
  std::printf("%-10s %12.1f   coverage %.2f%%, tracing overhead %.1f%%\n", "total", total,
              Find(m, "trace.coverage_pct").value, Find(m, "trace.overhead_pct").value);
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const Metric& m : metrics) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", sep, m.name.c_str(), m.value,
                m.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: slice_perfbench --workload sfs_peak|bulk_stream|dir_churn --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  const char* spans_path = nullptr;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || MakeWorkload(workload, seed) == nullptr || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }

  std::printf("slice_perfbench: workload %s, seed %llu, %.0f s, trace %d\n", workload.c_str(),
              static_cast<unsigned long long>(seed), seconds, trace);
  const uint64_t start = WallNs();
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  std::string error;
  // Peak memory is taken after the first (untraced) repetition: later ones
  // reuse heap the allocator kept, so the process-wide peak would grow with
  // the number of repetitions that fit in the run.
  double first_rep_rss_mb = 0;
  for (size_t i = 0;; ++i) {
    const bool traced_rep = trace == 1 && i % 2 == 1;
    Rep rep = RunRep(workload, seed, traced_rep, traced_rep ? spans_path : nullptr);
    if (i == 0) {
      first_rep_rss_mb = PeakRssMb();
    }
    std::printf("rep %zu%s: setup %.3f s, measured %.3f s (wall %.3f s, host slowdown %.3f), "
                "%llu ops, %llu failed, %.0f ops/s, %.2f allocs/op, digest %016llx\n",
                i + 1, traced_rep ? " (traced)" : "", rep.setup_s, rep.measure_s,
                rep.measure_wall_s, rep.measure_slowdown,
                static_cast<unsigned long long>(rep.work.completed),
                static_cast<unsigned long long>(rep.work.failed),
                Ratio(rep.ops(), rep.measure_s), Ratio(static_cast<double>(rep.allocs), rep.ops()),
                static_cast<unsigned long long>(rep.digest));
    std::fflush(stdout);
    if (!rep.error.empty()) {
      error = rep.error;
      break;
    }
    if (!plain.empty() && rep.digest != plain.front().digest) {
      error = "repetition " + std::to_string(i + 1) + " simulated something else: " +
              rep.digest_text + " vs " + plain.front().digest_text;
      break;
    }
    (traced_rep ? traced : plain).push_back(std::move(rep));
    const bool enough = plain.size() >= 3 && (trace == 0 || traced.size() >= 2);
    if (enough && static_cast<double>(WallNs() - start) >= seconds * 1e9) {
      break;
    }
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const std::vector<Rep>* reps : {&plain, &traced}) {
    for (const Rep& rep : *reps) {
      attempted += rep.work.completed + rep.work.failed;
      failed += rep.work.failed;
    }
  }
  if (error.empty() && failed > 0) {
    error = std::to_string(failed) + " ops failed";
  }
  if (!error.empty() || plain.empty()) {
    std::printf("FAILED: %s\n", error.c_str());
    PrintJson(false, std::max<uint64_t>(attempted, 1), failed, {});
    return 1;
  }

  const Rep& first = plain.front();
  std::printf("\ndigest %016llx: %s\n", static_cast<unsigned long long>(first.digest),
              first.digest_text.c_str());
  std::printf("failed_op_pct %.4f %% (%llu of %llu ops)\n",
              100.0 * Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));
  if (first.work.by_class.empty()) {
    std::printf("by op class: this generator reports totals only\n");
  } else {
    std::printf("by op class (one repetition):");
    for (const auto& [cls, tally] : first.work.by_class) {
      std::printf(" %s %llu/%llu failed", cls.c_str(), static_cast<unsigned long long>(tally.failed),
                  static_cast<unsigned long long>(tally.attempted));
    }
    std::printf("\n");
  }
  const std::vector<Metric> e2e = EndToEnd(plain, first_rep_rss_mb);
  std::printf("end to end (median of %zu untraced repetitions):", plain.size());
  for (const Metric& m : e2e) {
    std::printf(" %s %.4g %s;", m.name.c_str(), m.value, m.unit);
  }
  std::printf("\n");
  if (trace == 0) {
    PrintJson(true, attempted, failed, e2e);
    return 0;
  }

  const std::vector<Metric> layers = PerLayer(plain, traced);
  PrintLayerTable(layers);
  uint64_t stray = 0;
  uint64_t server_pkts = 0;
  uint64_t batched_pkts = 0;
  for (const Rep& rep : traced) {
    stray += rep.layers.stray_spans;
    server_pkts += rep.layers.server_pkts;
    batched_pkts += rep.layers.server_batched_pkts;
  }
  // A tapped server host gets same-instant deliveries gathered into one
  // batch where an untapped one gets them singly (span_trace.h). The traced
  // run stands for the untraced one only while such batches stay rare.
  const double batched_pct =
      100.0 * Ratio(static_cast<double>(batched_pkts), static_cast<double>(server_pkts));
  std::printf("server deliveries in same-instant batches: %llu of %llu packets (%.4f%%)\n",
              static_cast<unsigned long long>(batched_pkts),
              static_cast<unsigned long long>(server_pkts), batched_pct);
  const double coverage = Find(layers, "trace.coverage_pct").value;
  // Coverage is an accounting identity over the spans; anything beyond
  // rounding means a span escaped its dispatch or nested wrongly.
  const bool covered = stray == 0 && coverage > 99.99 && coverage < 100.01;
  if (!covered) {
    std::printf("FAILED: trace coverage %.4f%% with %llu spans outside any dispatch\n", coverage,
                static_cast<unsigned long long>(stray));
  }
  const bool unbatched = batched_pct <= 0.1;
  if (!unbatched) {
    std::printf("FAILED: more than 0.1%% of server deliveries arrived batched\n");
  }
  PrintJson(covered && unbatched, attempted, failed, layers);
  return covered && unbatched ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
