// Metrics tour: run a small workload with the ensemble-wide metrics plane
// switched on, print the Prometheus text exposition every component's
// instruments roll up into, then slow the disks down until the disk-backlog
// watchdog fires and show the structured alert stream.
//
//   $ ./metrics_tour
//
// Every host owns a registry of typed instruments (counters, gauges,
// log-scale histograms); most are provider-backed, polled only at scrape
// time, so the request path pays nothing for them. A sim-time scraper
// samples everything into bounded time series on exact 100ms boundaries and
// evaluates saturation watchdogs with hysteresis. The canonical JSON
// snapshot (metrics_tour.json) is byte-identical across same-seed runs.
#include <cstdio>

#include "src/obs/json.h"
#include "src/obs/metrics_export.h"
#include "src/slice/ensemble.h"
#include "src/slice/volume_client.h"
#include "src/workload/seqio.h"

using namespace slice;

int main() {
  // 1. A healthy ensemble with metrics on: mixed small/large workload.
  {
    EventQueue queue;
    EnsembleConfig config;
    config.num_dir_servers = 2;
    config.num_small_file_servers = 2;
    config.num_storage_nodes = 4;
    config.num_coordinators = 1;
    config.metrics.enabled = true;
    Ensemble ensemble(queue, config);

    VolumeClient volume(ensemble.client_host(0), queue, ensemble.virtual_server(),
                        ensemble.root());
    SLICE_CHECK(volume.MkdirAll("/metered/run").ok());
    Bytes note(2000, 'n');
    SLICE_CHECK(volume.WriteFile("/metered/run/NOTES.md", note).ok());
    Bytes big(256 << 10);
    for (size_t i = 0; i < big.size(); ++i) {
      big[i] = static_cast<uint8_t>(i * 7);
    }
    SLICE_CHECK(volume.WriteFile("/metered/run/dataset.bin", big).ok());
    SLICE_CHECK(volume.ReadFile("/metered/run/NOTES.md").value() == note);
    SLICE_CHECK(volume.ReadFile("/metered/run/dataset.bin").value() == big);

    // 2. The Prometheus exposition: one family per metric, one sample per
    // host — µproxy routing decisions, directory op mix, storage disk time,
    // NIC bytes, heartbeat traffic, all in one page.
    std::printf("=== Prometheus exposition (healthy run) ===\n%s\n",
                ensemble.ExportMetricsText().c_str());

    const std::string json = ensemble.ExportMetricsJson();
    if (!obs::WriteArtifact("metrics_tour.json", json)) {
      return 1;
    }
    std::printf("canonical snapshot written to metrics_tour.json (hash %016llx)\n\n",
                static_cast<unsigned long long>(obs::MetricsContentHash(json)));
  }

  // 3. Inject disk slowness: one storage node with a single 30ms arm and
  // FFS-like metadata amplification, fed by a sequential write stream it
  // cannot possibly keep up with. Watch the disk_backlog watchdog raise.
  {
    EventQueue queue;
    EnsembleConfig config;
    config.mgmt.enabled = false;
    config.num_storage_nodes = 1;
    config.num_small_file_servers = 0;
    config.num_clients = 1;
    config.cal.disks_per_node = 1;
    config.cal.disk.avg_position_ms = 30.0;  // a very tired arm
    config.storage_extra_meta_ios = 3.0;
    config.metrics.enabled = true;
    Ensemble ensemble(queue, config);

    auto client = ensemble.MakeSyncClient(0);
    CreateRes created = client->Create(ensemble.root(), "flood").value();
    SLICE_CHECK(created.status == Nfsstat3::kOk);

    SeqIoParams params;
    params.file_bytes = 2u << 20;
    params.write = true;
    bool done = false;
    SeqIoProcess writer(ensemble.client_host(0), queue, ensemble.virtual_server(),
                        *created.object, params, [&] { done = true; });
    writer.Start();
    queue.RunUntilIdle();
    SLICE_CHECK(done);

    std::printf("=== Watchdog alerts (injected disk slowness) ===\n");
    for (const obs::Alert& alert : ensemble.alerts()) {
      std::printf("  %8.1fms  %-14s %-12s host %s  value %lld\n", ToMillis(alert.at),
                  alert.rule.c_str(), alert.raise ? "RAISED" : "cleared",
                  obs::FormatHostAddr(alert.host).c_str(),
                  static_cast<long long>(alert.value));
    }
    std::printf("\n%llu scrapes; %llu alerts currently active\n",
                static_cast<unsigned long long>(ensemble.scraper()->scrapes()),
                static_cast<unsigned long long>(ensemble.scraper()->active_alerts()));
  }
  return 0;
}
