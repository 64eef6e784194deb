// End-to-end determinism tests for the profiler pillar: a profiled ensemble
// run must export a byte-identical sim-time ledger across same-seed runs, the
// ledger must cover >= 99% of every host's independent busy-time
// accounting, and the sim hash is pinned — any change
// to how busy nanoseconds are attributed has to show up as a conscious hash
// bump in this file, exactly like the trace/metrics/eventlog pins.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/slice/ensemble.h"
#include "src/workload/seqio.h"

namespace slice {
namespace {

// Pinned FNV-1a hash of ExportProfileSimJson() for RunProfiledScenario.
// Recompute by running this test after an intentional attribution change;
// the failure message prints the new value.
constexpr uint64_t kPinnedSimHash = 0x482d43658a633206ull;

struct ProfiledRun {
  std::string sim_json;
  std::string folded;
  std::string flight_json;
  uint64_t hash = 0;
  uint64_t min_coverage_bp = 0;
};

// Write-then-read a 1MB file through the full Slice data path: Create is a
// dir-server name op, the bulk stream crosses uproxy routing, storage CPU,
// disk arms and the wire — every ledger category gets charged.
ProfiledRun RunProfiledScenario() {
  EventQueue queue;
  EnsembleConfig config;
  config.mgmt.enabled = false;
  config.num_storage_nodes = 2;
  config.num_small_file_servers = 1;
  config.num_clients = 1;
  config.metrics.enabled = true;
  config.eventlog.enabled = true;  // so the flight dump exists to merge into
  config.profiler.enabled = true;
  Ensemble ensemble(queue, config);

  auto client = ensemble.MakeSyncClient(0);
  CreateRes created = client->Create(ensemble.root(), "big").value();
  SLICE_CHECK(created.status == Nfsstat3::kOk);

  SeqIoParams params;
  params.file_bytes = 1u << 20;
  params.write = true;
  bool wrote = false;
  SeqIoProcess writer(ensemble.client_host(0), queue, ensemble.virtual_server(),
                      *created.object, params, [&] { wrote = true; });
  writer.Start();
  queue.RunUntilIdle();
  SLICE_CHECK(wrote);

  params.write = false;
  bool read = false;
  SeqIoProcess reader(ensemble.client_host(0), queue, ensemble.virtual_server(),
                      *created.object, params, [&] { read = true; });
  reader.Start();
  queue.RunUntilIdle();
  SLICE_CHECK(read);

  ProfiledRun run;
  run.sim_json = ensemble.profiler()->ExportProfileSimJson();
  run.folded = ensemble.ExportProfileFolded();
  run.flight_json = ensemble.ExportFlightJson("test");
  run.hash = ensemble.ProfileSimHash();
  run.min_coverage_bp = ensemble.profiler()->MinCoverageBp();
  return run;
}

TEST(ProfilerDeterminismTest, SameSeedProfiledRunsAreByteIdentical) {
  const ProfiledRun one = RunProfiledScenario();
  const ProfiledRun two = RunProfiledScenario();
  EXPECT_EQ(one.sim_json, two.sim_json)
      << "same-seed runs must export a byte-identical sim-time ledger";
  EXPECT_EQ(one.hash, two.hash);
  EXPECT_EQ(one.hash, kPinnedSimHash)
      << "sim-ledger attribution changed; if intentional, repin kPinnedSimHash to 0x"
      << std::hex << one.hash;
}

TEST(ProfilerDeterminismTest, LedgerCoversHostBusyTime) {
  // The acceptance bar: on every host with nonzero busy time, attributed
  // cpu+disk+wire must cover >= 99% (9900 bp) of the host's independent
  // BusyResource accounting — nothing material slips through unattributed.
  const ProfiledRun run = RunProfiledScenario();
  EXPECT_GE(run.min_coverage_bp, 9900u)
      << "ledger coverage dropped below 99%:\n" << run.sim_json;
}

TEST(ProfilerDeterminismTest, FlightDumpCarriesTheProfileSection) {
  const ProfiledRun run = RunProfiledScenario();
  EXPECT_NE(run.flight_json.find("\"profile\":{\"sim\":{\"hosts\":["), std::string::npos)
      << "profiled flight dumps must embed the profile section";
  // Wall values are machine-dependent, so the profiled dump itself is not
  // hash-pinned — but the sim section inside it is the pinned export.
  EXPECT_NE(run.flight_json.find(run.sim_json), std::string::npos);
}

TEST(ProfilerDeterminismTest, FoldedExportIsWellFormed) {
  const ProfiledRun run = RunProfiledScenario();
  ASSERT_FALSE(run.folded.empty());
  EXPECT_EQ(run.folded.back(), '\n');
  // The event loop's own dispatch scope brackets everything the run did.
  EXPECT_NE(run.folded.find("sim.dispatch"), std::string::npos) << run.folded;
  // Every line is "path space integer".
  size_t start = 0;
  while (start < run.folded.size()) {
    const size_t end = run.folded.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const std::string line = run.folded.substr(start, end - start);
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_LT(space + 1, line.size()) << line;
    EXPECT_EQ(line.find_first_not_of("0123456789", space + 1), std::string::npos) << line;
    start = end + 1;
  }
}

TEST(ProfilerDeterminismTest, UnprofiledEnsembleHasNoProfiler) {
  EventQueue queue;
  EnsembleConfig config;
  config.mgmt.enabled = false;
  config.num_storage_nodes = 1;
  Ensemble ensemble(queue, config);
  EXPECT_EQ(ensemble.profiler(), nullptr);
  EXPECT_TRUE(ensemble.ExportProfileJson().empty());
  EXPECT_TRUE(ensemble.ExportProfileFolded().empty());
  EXPECT_EQ(ensemble.ProfileSimHash(), 0u);
}

}  // namespace
}  // namespace slice
