// SLO engine tests: multi-window burn-rate raise/clear hysteresis against
// synthetic tenant traffic, exemplar capture (the alert's trace id is the
// tenant's worst tail request), the min-ops guard, the disabled path, and
// end-to-end same-seed determinism of the tenant plane — two tenanted runs
// must export byte-identical tenant metrics JSON and flight dumps.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/metrics_export.h"
#include "src/obs/slo.h"
#include "src/slice/ensemble.h"
#include "src/workload/sfs_gen.h"

namespace slice {
namespace {

using obs::EventCode;
using obs::Metrics;
using obs::SloAlert;
using obs::SloEngine;
using obs::SloParams;
using obs::TenantInstruments;
using obs::TenantOpClass;

// Test params sized for hand-computable burns: 5% budget, 3/8 windows,
// 2-scrape raise/clear streaks, 4-op floor.
SloParams TestParams() {
  SloParams params;
  params.enabled = true;
  params.error_budget_ppm = 50000;
  params.latency_threshold = FromMillis(25);
  params.fast_windows = 3;
  params.slow_windows = 8;
  params.burn_threshold_milli = 1000;
  params.raise_streak = 2;
  params.clear_streak = 2;
  params.min_ops = 4;
  return params;
}

// Feed `good` fast ops and `bad` errored ops to tenant `t`, then scrape.
void Tick(Metrics& metrics, SloEngine& engine, SimTime& now, uint32_t t, int good, int bad,
          uint64_t bad_trace = 0) {
  TenantInstruments* ti = metrics.Tenant(t);
  ASSERT_NE(ti, nullptr);
  for (int i = 0; i < good; ++i) {
    ti->Account(TenantOpClass::kRead, 4096, FromMicros(200), /*trace_id=*/0, now,
                /*error=*/false);
  }
  for (int i = 0; i < bad; ++i) {
    ti->Account(TenantOpClass::kWrite, 4096, FromMillis(60), bad_trace, now, /*error=*/true);
  }
  now += FromMillis(100);
  engine.OnScrape(now);
}

TEST(SloEngineTest, RaiseAndClearHysteresis) {
  Metrics metrics;
  metrics.ConfigureTenants(2, FromMillis(25));
  SloEngine engine(metrics, TestParams());
  SimTime now = 0;

  // Scrape 1 is the baseline snapshot: no delta window yet, no alert.
  Tick(metrics, engine, now, 1, 10, 0);
  EXPECT_EQ(engine.alerts().size(), 0u);
  EXPECT_FALSE(engine.burning(1));

  // Burning hard (5 bad / 10 ops per window = 10x the allowed rate) must
  // survive raise_streak=2 scrapes before the edge fires — one hot scrape
  // is not an incident.
  Tick(metrics, engine, now, 1, 5, 5);
  EXPECT_EQ(engine.alerts().size(), 0u) << "one hot scrape must not raise";
  EXPECT_GE(engine.fast_burn_milli(1), 1000);
  Tick(metrics, engine, now, 1, 5, 5);
  ASSERT_EQ(engine.alerts().size(), 1u);
  EXPECT_TRUE(engine.alerts()[0].raise);
  EXPECT_EQ(engine.alerts()[0].tenant, 1u);
  EXPECT_GE(engine.alerts()[0].fast_milli, 1000);
  EXPECT_GE(engine.alerts()[0].slow_milli, 1000);
  EXPECT_TRUE(engine.burning(1));
  EXPECT_EQ(engine.active_burns(), 1u);

  // Still burning: no duplicate raise edge.
  Tick(metrics, engine, now, 1, 5, 5);
  EXPECT_EQ(engine.alerts().size(), 1u);

  // Calm traffic: the fast window still covers hot scrapes at first, so the
  // clear must wait for the window to slide past them AND clear_streak calm
  // scrapes — then exactly one clear edge.
  for (int i = 0; i < 6 && engine.burning(1); ++i) {
    Tick(metrics, engine, now, 1, 10, 0);
  }
  ASSERT_EQ(engine.alerts().size(), 2u);
  EXPECT_FALSE(engine.alerts()[1].raise);
  EXPECT_FALSE(engine.burning(1));
  EXPECT_EQ(engine.active_burns(), 0u);

  // The quiet tenant never alerted.
  for (const SloAlert& alert : engine.alerts()) {
    EXPECT_EQ(alert.tenant, 1u);
  }
}

TEST(SloEngineTest, AlertCarriesWorstExemplarTrace) {
  Metrics metrics;
  metrics.ConfigureTenants(1, FromMillis(25));
  SloEngine engine(metrics, TestParams());
  SimTime now = 0;

  Tick(metrics, engine, now, 1, 10, 0);
  // The bad ops carry trace 777; it is the slowest observation, so the ring
  // retains it and the raise edge links to it.
  Tick(metrics, engine, now, 1, 5, 5, /*bad_trace=*/777);
  Tick(metrics, engine, now, 1, 5, 5, /*bad_trace=*/777);
  ASSERT_EQ(engine.alerts().size(), 1u);
  EXPECT_EQ(engine.alerts()[0].trace_id, 777u);
}

TEST(SloEngineTest, MinOpsGuardSuppressesThinWindows) {
  Metrics metrics;
  metrics.ConfigureTenants(1, FromMillis(25));
  SloParams params = TestParams();
  params.min_ops = 50;  // far above the traffic below
  SloEngine engine(metrics, params);
  SimTime now = 0;

  Tick(metrics, engine, now, 1, 2, 0);
  // 100% errors, but only 2 ops per scrape: the floor keeps it quiet.
  for (int i = 0; i < 6; ++i) {
    Tick(metrics, engine, now, 1, 0, 2);
  }
  EXPECT_EQ(engine.alerts().size(), 0u);
  EXPECT_EQ(engine.fast_burn_milli(1), 0);
}

TEST(SloEngineTest, BurnEdgesLandInEventLog) {
  Metrics metrics;
  metrics.ConfigureTenants(1, FromMillis(25));
  obs::EventLogParams log_params;
  log_params.enabled = true;
  obs::EventLog log(log_params);
  SloEngine engine(metrics, TestParams(), obs::Sinks{.eventlog = &log});
  SimTime now = 0;

  Tick(metrics, engine, now, 1, 10, 0);
  Tick(metrics, engine, now, 1, 5, 5, /*bad_trace=*/42);
  Tick(metrics, engine, now, 1, 5, 5, /*bad_trace=*/42);
  for (int i = 0; i < 6 && engine.burning(1); ++i) {
    Tick(metrics, engine, now, 1, 10, 0);
  }

  bool saw_burn = false, saw_ok = false;
  for (const obs::Event& event : log.Collect()) {
    if (event.code == EventCode::kSloBurn) {
      saw_burn = true;
      EXPECT_EQ(event.host, obs::kSloHost);
      EXPECT_EQ(event.trace_id, 42u);
      EXPECT_EQ(event.detail_view(), "tenant1");
    }
    if (event.code == EventCode::kSloOk) {
      saw_ok = true;
    }
  }
  EXPECT_TRUE(saw_burn);
  EXPECT_TRUE(saw_ok);
}

TEST(SloEngineTest, DisabledEngineIsInert) {
  Metrics metrics;
  metrics.ConfigureTenants(1, FromMillis(25));
  SloParams params = TestParams();
  params.enabled = false;
  SloEngine engine(metrics, params);
  SimTime now = 0;

  for (int i = 0; i < 8; ++i) {
    Tick(metrics, engine, now, 1, 0, 10);
  }
  EXPECT_EQ(engine.alerts().size(), 0u);
  EXPECT_FALSE(engine.burning(1));
  EXPECT_EQ(engine.fast_burn_milli(1), 0);
}

TEST(ExemplarRingTest, KeepsTheSlowestObservations) {
  obs::ExemplarRing ring;
  // 6 observations, capacity 4: the two fastest must be evicted.
  const SimTime lats[] = {FromMillis(5), FromMillis(50), FromMillis(1), FromMillis(30),
                          FromMillis(40), FromMillis(20)};
  for (size_t i = 0; i < 6; ++i) {
    ring.Observe(/*at=*/SimTime(i), lats[i], /*trace_id=*/100 + i,
                 obs::TenantOpClass::kWrite);
  }
  EXPECT_EQ(ring.size(), obs::ExemplarRing::kCapacity);
  std::vector<uint64_t> traces;
  for (size_t i = 0; i < ring.size(); ++i) {
    traces.push_back(ring.at(i).trace_id);
  }
  // Survivors: 50ms (101), 30ms (103), 40ms (104), 20ms (105).
  EXPECT_EQ(std::count(traces.begin(), traces.end(), 101u), 1);
  EXPECT_EQ(std::count(traces.begin(), traces.end(), 103u), 1);
  EXPECT_EQ(std::count(traces.begin(), traces.end(), 104u), 1);
  EXPECT_EQ(std::count(traces.begin(), traces.end(), 105u), 1);
  EXPECT_EQ(ring.Worst().trace_id, 101u);
  EXPECT_EQ(ring.Worst().latency, FromMillis(50));
}

// --- end-to-end tenant-plane determinism ---------------------------------

struct TenantRun {
  std::string metrics_json;
  std::string flight_json;
};

// A small tenanted SFS run: 2 tenants split across the generator
// processes, metrics + event log + SLO engine all on.
TenantRun RunTenantedSfs() {
  EventQueue queue;
  EnsembleConfig config;
  config.mgmt.enabled = false;
  config.num_storage_nodes = 2;
  config.num_small_file_servers = 1;
  config.num_dir_servers = 2;
  config.num_clients = 2;
  config.metrics.enabled = true;
  config.eventlog.enabled = true;
  config.num_tenants = 2;
  config.slo.enabled = true;
  config.dir_slot_metrics = true;
  Ensemble ensemble(queue, config);

  SfsParams params;
  params.offered_ops_per_sec = 400;
  params.num_files = 48;
  params.num_dirs = 8;
  params.num_processes = 4;
  params.num_tenants = 2;
  params.warmup = FromMillis(200);
  params.duration = FromSeconds(1);
  SfsBenchmark bench(ensemble.client_host(0), queue, ensemble.virtual_server(),
                     ensemble.root(), params);
  SLICE_CHECK(bench.Setup().ok());
  bench.Run();

  TenantRun run;
  run.metrics_json = ensemble.ExportMetricsJson();
  run.flight_json = ensemble.ExportFlightJson("test");
  return run;
}

TEST(TenantDeterminismTest, SameSeedSameTenantPlaneBytes) {
  const TenantRun first = RunTenantedSfs();
  const TenantRun second = RunTenantedSfs();
  EXPECT_EQ(first.metrics_json, second.metrics_json);
  EXPECT_EQ(first.flight_json, second.flight_json);
  // The tenant plane actually exported (not vacuously equal).
  EXPECT_NE(first.metrics_json.find("\"tenants\""), std::string::npos);
  EXPECT_NE(first.metrics_json.find("\"tenant_series\""), std::string::npos);
  EXPECT_NE(first.metrics_json.find("\"slo\""), std::string::npos);
  EXPECT_NE(first.flight_json.find("\"tenants\""), std::string::npos);
}

}  // namespace
}  // namespace slice
