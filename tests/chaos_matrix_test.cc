// The named scenario matrix as ctests: every scenario must satisfy its
// invariant bounds AND reproduce its golden flight-dump content hash. A
// golden mismatch means the simulation's event stream changed — intentional
// changes update the constant below with the hash printed in the failure
// message; unintentional ones are regressions in determinism or behavior.
//
// Each run also writes <scenario>_flight.json next to the test binary so CI
// can upload the full evidence on failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/chaos/scenario.h"
#include "src/obs/json.h"

namespace slice {
namespace {

using chaos::FindScenario;
using chaos::RunScenario;
using chaos::Scenario;
using chaos::ScenarioMatrix;
using chaos::ScenarioResult;

struct Golden {
  const char* name;
  uint64_t flight_hash;
};

// Regenerate by running this suite and copying the printed hashes.
constexpr Golden kGoldens[] = {
    {"partition_heal", 0xa3cc3089ef2c41feull},
    {"asymmetric_loss", 0x404b7dc0de367e23ull},
    {"burst_loss", 0x4fa38d7ff3129586ull},
    {"gray_disk", 0xbb3a6d1fc4551b12ull},
    {"correlated_crash", 0xdabbb5a64254242eull},
    {"correlated_crash_restart_storm", 0xb7d02261edfcba01ull},
    {"skewed_heartbeats", 0x227fdcd7d45b5eaaull},
    {"flapping_node", 0xc543e7041ec7701eull},
    {"stale_cache_partition", 0x49f8ce5cd9db2dfdull},
    {"noisy_neighbor", 0x0791515ebaafc9f3ull},
};

uint64_t GoldenFor(const std::string& name) {
  for (const Golden& g : kGoldens) {
    if (name == g.name) {
      return g.flight_hash;
    }
  }
  ADD_FAILURE() << "no golden registered for scenario " << name;
  return 0;
}

ScenarioResult RunByName(const std::string& name) {
  const std::vector<Scenario> matrix = ScenarioMatrix();
  const Scenario* scenario = FindScenario(matrix, name);
  EXPECT_NE(scenario, nullptr) << name << " missing from ScenarioMatrix()";
  ScenarioResult result = RunScenario(*scenario);
  // Evidence for humans and for CI's artifact upload.
  EXPECT_TRUE(obs::WriteArtifact(name + "_flight.json", result.flight_json));
  return result;
}

void CheckScenario(const std::string& name) {
  ScenarioResult result = RunByName(name);
  // One machine-greppable stats line per scenario; EXPERIMENTS.md's
  // scenario-matrix table is regenerated from these.
  const chaos::InvariantReport& r = result.report;
  std::printf(
      "MATRIX %s acked=%zu verified=%zu/%zu deaths=%zu rejoins=%zu "
      "adoptions=%zu/%zu handoffs=%zu resyncs=%zu epochs=%zu max_epoch=%" PRIu64
      " faults=%zu/%zu worst_outage_ns=%" PRIu64
      " rebalances=%zu/%zu cache_hits=%zu cache_flushes=%zu hash=0x%016" PRIx64 "\n",
      name.c_str(), r.acked_writes, r.verified_ok,
      r.verified_ok + r.verified_lost, r.deaths, r.rejoins, r.adoptions_begun,
      r.adoptions_done, r.handoffs, r.resyncs, r.epoch_bumps, r.max_epoch,
      r.faults_injected, r.faults_cleared, static_cast<uint64_t>(r.worst_outage),
      r.rebalances_begun, r.rebalances_committed, r.cache_hits, r.cache_flushes,
      result.flight_hash);
  EXPECT_TRUE(result.report.ok()) << name << ": " << result.report.Summary();
  EXPECT_GT(result.stats.journal_size, 0u) << name << " made no durability claims";
  char actual[32];
  std::snprintf(actual, sizeof(actual), "0x%016" PRIx64, result.flight_hash);
  EXPECT_EQ(result.flight_hash, GoldenFor(name))
      << name << " flight hash changed; new hash " << actual << " ("
      << result.report.Summary() << ")";
}

TEST(ChaosMatrixTest, PartitionHeal) { CheckScenario("partition_heal"); }
TEST(ChaosMatrixTest, AsymmetricLoss) { CheckScenario("asymmetric_loss"); }
TEST(ChaosMatrixTest, BurstLoss) { CheckScenario("burst_loss"); }
TEST(ChaosMatrixTest, GrayDisk) { CheckScenario("gray_disk"); }
TEST(ChaosMatrixTest, CorrelatedCrash) { CheckScenario("correlated_crash"); }
TEST(ChaosMatrixTest, CorrelatedCrashRestartStorm) {
  CheckScenario("correlated_crash_restart_storm");
}
TEST(ChaosMatrixTest, SkewedHeartbeats) { CheckScenario("skewed_heartbeats"); }
TEST(ChaosMatrixTest, FlappingNode) { CheckScenario("flapping_node"); }
TEST(ChaosMatrixTest, StaleCachePartition) { CheckScenario("stale_cache_partition"); }
TEST(ChaosMatrixTest, NoisyNeighbor) { CheckScenario("noisy_neighbor"); }

// The tenant/QoS pillar end to end: the victim tenant's SLO must burn while
// the disks are gray, the alert must carry a worst-tail exemplar trace id
// that resolves in BOTH the span collection (chrome export) and the flight
// dump's event stream, and the burn must clear after the fault heals.
TEST(NoisyNeighborTest, SloBurnLinksExemplarAcrossPillars) {
  const std::vector<Scenario> matrix = ScenarioMatrix();
  const Scenario* scenario = FindScenario(matrix, "noisy_neighbor");
  ASSERT_NE(scenario, nullptr);

  // Run inline (same steps as RunScenario) so the ensemble stays alive for
  // the cross-pillar inspection.
  EventQueue queue;
  Ensemble ensemble(queue, scenario->config);
  chaos::ChaosWorkload workload(ensemble, scenario->workload);
  workload.Setup();
  std::shared_ptr<void> background = scenario->background(ensemble);
  workload.Run();
  SimTime horizon = queue.now();
  for (const chaos::FaultSpec& fault : scenario->config.chaos.faults) {
    horizon = std::max(horizon, fault.at + fault.duration);
  }
  queue.RunUntil(horizon + scenario->settle);
  queue.RunUntilIdle();

  ASSERT_NE(ensemble.slo_engine(), nullptr);
  const std::vector<obs::SloAlert>& alerts = ensemble.slo_engine()->alerts();

  // The victim (tenant 1) burned, with an exemplar, and later cleared.
  const obs::SloAlert* burn = nullptr;
  const obs::SloAlert* last_tenant1 = nullptr;
  for (const obs::SloAlert& alert : alerts) {
    if (alert.tenant != 1) {
      continue;
    }
    if (alert.raise && burn == nullptr) {
      burn = &alert;
    }
    last_tenant1 = &alert;
  }
  ASSERT_NE(burn, nullptr) << "tenant 1 never raised slo_burn";
  EXPECT_NE(burn->trace_id, 0u) << "slo_burn carried no exemplar trace";
  ASSERT_NE(last_tenant1, nullptr);
  EXPECT_FALSE(last_tenant1->raise) << "tenant 1's burn never cleared";
  EXPECT_FALSE(ensemble.slo_engine()->burning(1));

  // Pillar 2: the exemplar resolves in the trace export.
  bool in_spans = false;
  for (const obs::Span& span : ensemble.CollectSpans()) {
    if (span.trace_id == burn->trace_id) {
      in_spans = true;
      break;
    }
  }
  EXPECT_TRUE(in_spans) << "exemplar trace " << burn->trace_id
                        << " not found in the span collection";

  // Pillar 3: the slo_burn event in the flight dump carries the same id.
  const std::string flight = ensemble.ExportFlightJson("test");
  EXPECT_NE(flight.find("\"slo_burn\""), std::string::npos);
  EXPECT_NE(flight.find(std::to_string(burn->trace_id)), std::string::npos);
  // And the tenant plane made it into the embedded metrics snapshot.
  EXPECT_NE(flight.find("\"tenants\""), std::string::npos);
  EXPECT_NE(flight.find("\"slo\""), std::string::npos);
}

TEST(ChaosMatrixTest, MatrixCoversEveryGolden) {
  const std::vector<Scenario> matrix = ScenarioMatrix();
  EXPECT_GE(matrix.size(), 6u);
  for (const Golden& g : kGoldens) {
    EXPECT_NE(FindScenario(matrix, g.name), nullptr) << g.name;
  }
  EXPECT_EQ(FindScenario(matrix, "no_such_scenario"), nullptr);
}

// Same seed ⇒ byte-identical flight dumps, run-to-run, for scenarios from
// both the stochastic (burst loss draws) and deterministic (crash plan)
// families. This is the property the golden hashes stand on.
TEST(ChaosDeterminismTest, SameSeedSameFlightDump) {
  for (const char* name : {"partition_heal", "burst_loss", "stale_cache_partition"}) {
    ScenarioResult first = RunByName(name);
    ScenarioResult second = RunByName(name);
    EXPECT_EQ(first.flight_hash, second.flight_hash) << name;
    EXPECT_EQ(first.flight_json, second.flight_json) << name;
    EXPECT_EQ(first.finished_at, second.finished_at) << name;
  }
}

}  // namespace
}  // namespace slice
