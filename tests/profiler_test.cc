// Unit tests for the profiler pillar (obs/profiler.h): the sim-time ledger
// (charges, canonical export, coverage math, FNV hash) and the wall-clock
// scope engine (path tree, nesting, overflow handling, folded rendering).
// Wall-clock magnitudes are machine-dependent, so assertions here are
// structural — counts, orderings and invariants, never absolute ns.
#include <gtest/gtest.h>

#include <string>

#include "src/obs/profiler.h"

namespace slice::obs {
namespace {

Profiler MakeProfiler() { return Profiler(ProfilerParams{.enabled = true}); }

TEST(ProfilerTest, ScopeAndCategoryNamesNeverFallThrough) {
  for (size_t s = 0; s < kNumProfScopes; ++s) {
    const char* name = ProfScopeName(static_cast<ProfScope>(s));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "?") << "scope " << s << " is missing from the X-macro";
  }
  for (size_t c = 0; c < kNumLedgerCats; ++c) {
    EXPECT_STRNE(LedgerCatName(static_cast<LedgerCat>(c)), "?");
  }
  EXPECT_STREQ(ProfScopeName(ProfScope::kSimDispatch), "sim.dispatch");
  EXPECT_STREQ(LedgerCatName(LedgerCat::kQueue), "queue");
}

TEST(ProfilerTest, LedgerChargesAccumulateAndPointerIsStable) {
  Profiler profiler = MakeProfiler();
  uint64_t* ledger = profiler.LedgerFor(0x0a000001);
  ASSERT_NE(ledger, nullptr);
  // std::map nodes never move: creating more hosts must not invalidate the
  // pointer components cached at construction.
  profiler.LedgerFor(0x0a000002);
  profiler.LedgerFor(0x01020304);
  EXPECT_EQ(ledger, profiler.LedgerFor(0x0a000001));

  ChargeSim(ledger, LedgerCat::kCpu, 100);
  ChargeSim(ledger, LedgerCat::kCpu, 50);
  ChargeSim(ledger, LedgerCat::kQueue, 25);
  ChargeSim(ledger, LedgerCat::kDisk, 7);
  EXPECT_EQ(ledger[static_cast<size_t>(LedgerCat::kCpu)], 150u);
  EXPECT_EQ(ledger[static_cast<size_t>(LedgerCat::kQueue)], 25u);
  EXPECT_EQ(ledger[static_cast<size_t>(LedgerCat::kDisk)], 7u);
  EXPECT_EQ(ledger[static_cast<size_t>(LedgerCat::kWire)], 0u);

  // The disabled-profiling path: a null cached pointer is a no-op, not a crash.
  ChargeSim(nullptr, LedgerCat::kCpu, 1000);
}

TEST(ProfilerTest, SimExportIsCanonicalWithCoverage) {
  Profiler profiler = MakeProfiler();
  uint64_t* ledger = profiler.LedgerFor(0x0a000001);
  ChargeSim(ledger, LedgerCat::kCpu, 600);
  ChargeSim(ledger, LedgerCat::kQueue, 25);  // waiting: excluded from coverage
  ChargeSim(ledger, LedgerCat::kDisk, 300);
  ChargeSim(ledger, LedgerCat::kWire, 90);
  // Providers add up per host, like the NIC and CPU of one server host:
  // attributed 990 of 600 + 400 busy -> 9900 bp.
  profiler.AddBusyProvider([](std::map<uint32_t, uint64_t>* busy) { (*busy)[0x0a000001] += 600; });
  profiler.AddBusyProvider([](std::map<uint32_t, uint64_t>* busy) { (*busy)[0x0a000001] += 400; });

  EXPECT_EQ(profiler.ExportProfileSimJson(),
            "{\"hosts\":[{\"host\":\"10.0.0.1\",\"cpu\":600,\"queue\":25,\"disk\":300,"
            "\"wire\":90,\"attributed\":990,\"busy\":1000,\"coverage_bp\":9900}],"
            "\"total\":{\"cpu\":600,\"queue\":25,\"disk\":300,\"wire\":90}}");
  EXPECT_EQ(profiler.MinCoverageBp(), 9900u);

  // The hash is the house FNV-1a over exactly those bytes.
  const std::string json = profiler.ExportProfileSimJson();
  uint64_t expected = 0xcbf29ce484222325ull;
  for (unsigned char c : json) {
    expected ^= c;
    expected *= 0x100000001b3ull;
  }
  EXPECT_EQ(profiler.ProfileSimHash(), expected);
}

TEST(ProfilerTest, BusyOnlyHostsSurfaceWithZeroCoverage) {
  // A host the busy provider knows about but the ledger never charged must
  // appear in the export (coverage 0) and drag MinCoverageBp to zero —
  // otherwise the >=99% acceptance bar could be gamed by not charging.
  Profiler profiler = MakeProfiler();
  ChargeSim(profiler.LedgerFor(0x0a000001), LedgerCat::kCpu, 1000);
  profiler.AddBusyProvider([](std::map<uint32_t, uint64_t>* busy) {
    (*busy)[0x0a000001] = 1000;
    (*busy)[0x0a000002] = 500;  // busy but unattributed
    (*busy)[0x0a000003] = 0;    // idle hosts don't count against coverage
  });
  const std::string json = profiler.ExportProfileSimJson();
  EXPECT_NE(json.find("\"host\":\"10.0.0.2\",\"cpu\":0"), std::string::npos) << json;
  EXPECT_EQ(profiler.MinCoverageBp(), 0u);
}

TEST(ProfilerTest, EmptyBusyProviderMeansFullCoverage) {
  Profiler profiler = MakeProfiler();
  EXPECT_EQ(profiler.MinCoverageBp(), 10000u);
}

TEST(ProfilerTest, WallScopesStayOutOfTheSimHash) {
  Profiler profiler = MakeProfiler();
  ChargeSim(profiler.LedgerFor(0x0a000001), LedgerCat::kCpu, 123);
  const uint64_t before = profiler.ProfileSimHash();
  for (int i = 0; i < 100; ++i) {
    Profiler::Scope outer(&profiler, ProfScope::kRpcDispatch);
    Profiler::Scope inner(&profiler, ProfScope::kStorageCache);
  }
  EXPECT_EQ(profiler.ProfileSimHash(), before)
      << "wall-clock activity must never move the pinned sim hash";
}

TEST(ProfilerTest, ScopeTreeRecordsPathsAndCounts) {
  Profiler profiler = MakeProfiler();
  for (int i = 0; i < 3; ++i) {
    Profiler::Scope outbound(&profiler, ProfScope::kUproxyOutbound);
    {
      Profiler::Scope decode(&profiler, ProfScope::kUproxyDecode);
    }
    if (i == 0) {
      Profiler::Scope route(&profiler, ProfScope::kUproxyRoute);
    }
  }
  EXPECT_EQ(profiler.ScopeCount(ProfScope::kUproxyOutbound), 3u);
  EXPECT_EQ(profiler.ScopeCount(ProfScope::kUproxyDecode), 3u);
  EXPECT_EQ(profiler.ScopeCount(ProfScope::kUproxyRoute), 1u);
  EXPECT_EQ(profiler.ScopeCount(ProfScope::kDirNameOp), 0u);
  // Inclusive can never undercut the children it contains.
  EXPECT_GE(profiler.ScopeInclusiveNs(ProfScope::kUproxyOutbound),
            profiler.ScopeExclusiveNs(ProfScope::kUproxyOutbound));

  // Collapsed-stack rendering: root->leaf paths, sorted, one per line.
  const std::string folded = profiler.ExportProfileFolded();
  EXPECT_NE(folded.find("uproxy.outbound "), std::string::npos) << folded;
  EXPECT_NE(folded.find("uproxy.outbound;uproxy.decode "), std::string::npos) << folded;
  EXPECT_NE(folded.find("uproxy.outbound;uproxy.route "), std::string::npos) << folded;
  EXPECT_EQ(folded.back(), '\n');

  // The full export wraps sim + wall under one "profile" object.
  const std::string json = profiler.ExportProfileJson();
  EXPECT_EQ(json.rfind("{\"profile\":{\"sim\":", 0), 0u) << json;
  EXPECT_NE(json.find("\"wall\":{\"dropped\":0,\"scopes\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"stack\":\"uproxy.outbound;uproxy.decode\",\"count\":3"),
            std::string::npos)
      << json;
}

TEST(ProfilerTest, DepthOverflowIsCountedAndRebalances) {
  Profiler profiler = MakeProfiler();
  // Push well past kMaxDepth (32): the overflow levels record nothing but
  // are counted, and the matched pops restore a working stack.
  constexpr int kPushes = 40;
  for (int i = 0; i < kPushes; ++i) {
    profiler.BeginScope(ProfScope::kSimDispatch);
  }
  EXPECT_EQ(profiler.dropped_scopes(), static_cast<uint64_t>(kPushes - 32));
  for (int i = 0; i < kPushes; ++i) {
    profiler.EndScope();
  }
  profiler.EndScope();  // unbalanced extra pop must be ignored, not crash

  const uint64_t count_before = profiler.ScopeCount(ProfScope::kUproxyInbound);
  {
    Profiler::Scope scope(&profiler, ProfScope::kUproxyInbound);
  }
  EXPECT_EQ(profiler.ScopeCount(ProfScope::kUproxyInbound), count_before + 1);
}

TEST(ProfilerTest, ResetWallClearsScopesButKeepsTheLedger) {
  Profiler profiler = MakeProfiler();
  uint64_t* ledger = profiler.LedgerFor(0x0a000001);
  ChargeSim(ledger, LedgerCat::kWire, 77);
  {
    Profiler::Scope scope(&profiler, ProfScope::kStorageDisk);
  }
  ASSERT_EQ(profiler.ScopeCount(ProfScope::kStorageDisk), 1u);

  profiler.ResetWall();
  EXPECT_EQ(profiler.ScopeCount(ProfScope::kStorageDisk), 0u);
  EXPECT_TRUE(profiler.ExportProfileFolded().empty());
  // The sim ledger is the deterministic record — a wall reset (bench warm-up
  // boundary) must not touch it.
  EXPECT_EQ(ledger[static_cast<size_t>(LedgerCat::kWire)], 77u);
}

TEST(ProfilerTest, NullScopeGuardIsANoOp) {
  // Components hold a null Profiler* when profiling is off; the RAII guard
  // must degrade to a single branch with no side effects.
  Profiler::Scope scope(nullptr, ProfScope::kRpcDispatch);
}

}  // namespace
}  // namespace slice::obs
