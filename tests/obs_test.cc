// Tests for the observability subsystem (src/obs): span lifecycle, bounded
// ring eviction, context propagation across a multi-hop request through a
// real ensemble, critical-path accounting that explains end-to-end latency,
// chrome-trace export / content hashing, and the allocation-free disabled
// fast path.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/obs/critical_path.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"
#include "src/slice/ensemble.h"
#include "tests/alloc_counter.h"

namespace slice {
namespace {

using obs::Span;
using obs::SpanCat;
using obs::TraceContext;
using obs::Tracer;
using obs::TracerParams;

TEST(TracerTest, SpanLifecycleRecordsAllFields) {
  Tracer tracer;
  const TraceContext ctx{tracer.NewTraceId(), tracer.NewSpanId()};
  ASSERT_TRUE(ctx.valid());

  const uint64_t root_id =
      tracer.RecordSpan(/*host=*/7, ctx, SpanCat::kOther, "op:read", 100, 900, /*root=*/true);
  const uint64_t child_id = tracer.RecordSpan(7, ctx, SpanCat::kCpu, "uproxy_cpu", 120, 180);
  tracer.RecordInstant(7, ctx, "route:storage", 100);
  EXPECT_EQ(root_id, ctx.span_id) << "root span reuses the minted root id";
  EXPECT_NE(child_id, root_id);

  std::vector<Span> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 3u);
  const Span& root = spans[0];
  EXPECT_EQ(root.trace_id, ctx.trace_id);
  EXPECT_EQ(root.span_id, ctx.span_id);
  EXPECT_EQ(root.parent_id, 0u);
  EXPECT_TRUE(root.root);
  EXPECT_EQ(root.start, 100u);
  EXPECT_EQ(root.end, 900u);
  EXPECT_EQ(root.host, 7u);
  EXPECT_EQ(root.name_view(), "op:read");

  const Span& child = spans[1];
  EXPECT_EQ(child.parent_id, ctx.span_id) << "children hang off the root";
  EXPECT_EQ(child.cat, SpanCat::kCpu);
  EXPECT_FALSE(child.root);

  const Span& marker = spans[2];
  EXPECT_TRUE(marker.instant);
  EXPECT_EQ(marker.start, marker.end);
  EXPECT_EQ(tracer.total_recorded(), 3u);
}

TEST(TracerTest, UntracedContextAndDisabledTracerRecordNothing) {
  Tracer tracer;
  tracer.RecordSpan(1, TraceContext{}, SpanCat::kCpu, "x", 0, 5);
  EXPECT_EQ(tracer.total_recorded(), 0u);
  EXPECT_EQ(tracer.num_rings(), 0u);

  Tracer off(TracerParams{.enabled = false});
  EXPECT_EQ(off.NewTraceId(), 0u) << "disabled tracer mints only untraced ids";
  off.RecordSpan(1, TraceContext{5, 6}, SpanCat::kCpu, "x", 0, 5);
  EXPECT_EQ(off.total_recorded(), 0u);
}

TEST(TracerTest, EndClampedToStart) {
  Tracer tracer;
  const TraceContext ctx{tracer.NewTraceId(), tracer.NewSpanId()};
  tracer.RecordSpan(1, ctx, SpanCat::kWire, "w", 500, 400);  // end < start
  std::vector<Span> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].end, spans[0].start);
}

TEST(SpanRingTest, OverflowEvictsOldestInOrder) {
  TracerParams params;
  params.ring_capacity = 8;
  Tracer tracer(params);
  const TraceContext ctx{tracer.NewTraceId(), tracer.NewSpanId()};
  for (int i = 0; i < 20; ++i) {
    tracer.RecordSpan(3, ctx, SpanCat::kCpu, "s", static_cast<SimTime>(i),
                      static_cast<SimTime>(i) + 1);
  }
  ASSERT_EQ(tracer.num_rings(), 1u);
  const obs::SpanRing& ring = tracer.rings().at(3);
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.overwritten(), 12u);
  EXPECT_EQ(tracer.total_evicted(), 12u);
  EXPECT_EQ(tracer.total_recorded(), 20u);

  // Survivors are exactly the 8 newest, oldest-first.
  std::vector<Span> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 8u);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].start, 12 + i);
  }
}

TEST(ScopedContextTest, RestoresPreviousContextAndToleratesNullTracer) {
  Tracer tracer;
  const TraceContext outer{1, 2};
  const TraceContext inner{3, 4};
  tracer.SetCurrent(outer);
  {
    obs::ScopedContext scope(&tracer, inner);
    EXPECT_EQ(tracer.current(), inner);
    {
      obs::ScopedContext nested(&tracer, TraceContext{});
      EXPECT_FALSE(tracer.current().valid());
    }
    EXPECT_EQ(tracer.current(), inner);
  }
  EXPECT_EQ(tracer.current(), outer);
  obs::ScopedContext null_scope(nullptr, inner);  // must not crash
}

// --- context propagation through a real multi-hop request ---

TEST(TracePropagationTest, MirroredWriteSpansThreePlusHostsUnderOneTrace) {
  EventQueue queue;
  EnsembleConfig config;
  config.num_storage_nodes = 2;
  config.num_small_file_servers = 0;
  config.num_coordinators = 1;
  config.default_replication = 2;
  config.mgmt.enabled = false;
  config.trace.enabled = true;
  Ensemble ensemble(queue, config);
  auto client = ensemble.MakeSyncClient(0);

  CreateRes created = client->Create(ensemble.root(), "mirrored").value();
  ASSERT_EQ(created.status, Nfsstat3::kOk);
  Bytes data(100000, 0xab);  // beyond the 64KB threshold -> bulk mirrored path
  ASSERT_EQ(client->Write(*created.object, 70000, data, StableHow::kFileSync).value().status,
            Nfsstat3::kOk);

  std::vector<Span> spans = ensemble.CollectSpans();
  const Span* root = nullptr;
  for (const Span& span : spans) {
    if (span.root && span.name_view() == "op:write") {
      root = &span;
    }
  }
  ASSERT_NE(root, nullptr) << "mirrored write recorded a root span";

  // Every hop of the fan-out — µproxy CPU, wire legs, coordinator intent
  // log, both replica storage nodes — shares the one trace id and hangs off
  // the root span.
  std::set<uint32_t> hosts;
  size_t in_trace = 0;
  for (const Span& span : spans) {
    if (span.trace_id != root->trace_id) {
      continue;
    }
    ++in_trace;
    hosts.insert(span.host);
    if (!span.root) {
      EXPECT_EQ(span.parent_id, root->span_id);
      EXPECT_GE(span.start, root->start);
    }
  }
  EXPECT_GE(in_trace, 8u);
  EXPECT_GE(hosts.size(), 4u) << "client + coordinator + two replicas";
  // Both storage replicas appear (10.0.3.x address block).
  EXPECT_TRUE(hosts.contains(ensemble.storage_node(0).addr()));
  EXPECT_TRUE(hosts.contains(ensemble.storage_node(1).addr()));
}

// --- critical-path accounting ---

TEST(CriticalPathTest, SyntheticSpansSumExactly) {
  Tracer tracer;
  const TraceContext ctx{tracer.NewTraceId(), tracer.NewSpanId()};
  tracer.RecordSpan(1, ctx, SpanCat::kOther, "op:read", 0, 1000, /*root=*/true);
  tracer.RecordSpan(1, ctx, SpanCat::kCpu, "cpu", 0, 300);
  tracer.RecordSpan(1, ctx, SpanCat::kWire, "wire", 300, 600);
  // Overlap: disk outranks wire for [550, 600).
  tracer.RecordSpan(2, ctx, SpanCat::kDisk, "disk", 550, 900);
  // [900, 1000) is uncovered -> other.

  obs::CriticalPathReport report = obs::CriticalPath::Analyze(tracer.Collect());
  EXPECT_EQ(report.traces_analyzed, 1u);
  ASSERT_TRUE(report.per_class.contains("op:read"));
  const obs::CatBreakdown& b = report.per_class.at("op:read");
  EXPECT_EQ(b.ops, 1u);
  EXPECT_EQ(b.total, 1000u);
  EXPECT_EQ(b.by_cat[static_cast<size_t>(SpanCat::kCpu)], 300u);
  EXPECT_EQ(b.by_cat[static_cast<size_t>(SpanCat::kWire)], 250u);
  EXPECT_EQ(b.by_cat[static_cast<size_t>(SpanCat::kDisk)], 350u);
  EXPECT_EQ(b.by_cat[static_cast<size_t>(SpanCat::kOther)], 100u);
  EXPECT_EQ(b.attributed(), 900u);
  EXPECT_NEAR(b.coverage(), 0.9, 1e-9);
  // Categories never sum past the end-to-end window.
  EXPECT_EQ(b.attributed() + b.by_cat[static_cast<size_t>(SpanCat::kOther)], b.total);
}

TEST(CriticalPathTest, LossFreeEnsembleCoverageAtLeast99Percent) {
  EventQueue queue;
  EnsembleConfig config;
  config.num_dir_servers = 2;
  config.num_storage_nodes = 3;
  config.num_small_file_servers = 2;
  config.num_coordinators = 1;
  config.mgmt.enabled = false;
  config.trace.enabled = true;
  Ensemble ensemble(queue, config);
  auto client = ensemble.MakeSyncClient(0);

  // Mixed workload touching every service class: names, small-file I/O,
  // bulk I/O, commits, attribute reads.
  const FileHandle root = ensemble.root();
  for (int i = 0; i < 4; ++i) {
    CreateRes created = client->Create(root, "f" + std::to_string(i)).value();
    ASSERT_EQ(created.status, Nfsstat3::kOk);
    Bytes small(4096, static_cast<uint8_t>(i));
    ASSERT_EQ(client->Write(*created.object, 0, small, StableHow::kUnstable).value().status,
              Nfsstat3::kOk);
    Bytes bulk(32768, static_cast<uint8_t>(i + 1));
    ASSERT_EQ(client->Write(*created.object, 70000, bulk, StableHow::kUnstable).value().status,
              Nfsstat3::kOk);
    ASSERT_EQ(client->Commit(*created.object).value().status, Nfsstat3::kOk);
    ASSERT_EQ(client->Read(*created.object, 0, 4096).value().status, Nfsstat3::kOk);
    (void)client->Getattr(*created.object).value();
    ASSERT_EQ(client->Lookup(root, "f" + std::to_string(i)).value().status, Nfsstat3::kOk);
  }

  obs::CriticalPathReport report = ensemble.AnalyzeCriticalPath();
  EXPECT_GE(report.traces_analyzed, 24u);
  EXPECT_EQ(report.traces_without_root, 0u) << "loss-free: every trace completed";
  ASSERT_GT(report.overall.total, 0u);
  // The acceptance bar: every opclass (and the aggregate) explains >= 99%
  // of its end-to-end latency from recorded wire/queue/cpu/disk/service
  // segments. The instrumentation is gap-free on the loss-free path.
  for (const auto& [opclass, breakdown] : report.per_class) {
    EXPECT_GE(breakdown.coverage(), 0.99) << opclass;
    EXPECT_LE(breakdown.attributed(), breakdown.total) << opclass;
  }
  EXPECT_GE(report.overall.coverage(), 0.99);

  // The human-readable table mentions every opclass.
  const std::string table = obs::CriticalPath::Format(report);
  for (const auto& [opclass, breakdown] : report.per_class) {
    (void)breakdown;
    EXPECT_NE(table.find(opclass), std::string::npos) << table;
  }
}

// --- export and hashing ---

TEST(TraceExportTest, ChromeJsonShapeAndCanonicalHashStability) {
  Tracer tracer;
  const TraceContext ctx{tracer.NewTraceId(), tracer.NewSpanId()};
  tracer.RecordSpan(9, ctx, SpanCat::kOther, "op:read", 1000, 4500, /*root=*/true);
  tracer.RecordSpan(9, ctx, SpanCat::kWire, "wire_tx", 1500, 2500);
  tracer.RecordInstant(9, ctx, "rpc_retransmit", 2000);

  std::vector<Span> spans = tracer.Collect();
  const std::string json = obs::ExportChromeTrace(spans);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"op:read\""), std::string::npos);
  // 1500ns -> 1.500us: integer-formatted microseconds, no float formatting.
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);

  const uint64_t hash = obs::TraceContentHash(spans);
  EXPECT_NE(hash, 0u);
  // Hash is over canonical order: a permuted input hashes identically.
  std::vector<Span> shuffled = {spans[2], spans[0], spans[1]};
  EXPECT_EQ(obs::TraceContentHash(obs::CanonicalOrder(shuffled)), hash);
  // Any field change shows up.
  std::vector<Span> tweaked = spans;
  tweaked[1].end += 1;
  EXPECT_NE(obs::TraceContentHash(tweaked), hash);
}

// --- the disabled fast path allocates nothing ---

TEST(TracerTest, DisabledFastPathAllocatesNothing) {
  Tracer off(TracerParams{.enabled = false});
  const TraceContext ctx{12, 34};

  const uint64_t before = AllocCount();
  for (int i = 0; i < 1000; ++i) {
    (void)off.NewTraceId();
    (void)off.NewSpanId();
    off.RecordSpan(1, ctx, SpanCat::kDisk, "disk_read", 10, 20);
    off.RecordInstant(1, ctx, "drop:loss", 15);
    obs::ScopedContext scope(&off, ctx);
    obs::ScopedContext null_scope(nullptr, ctx);
  }
  EXPECT_EQ(AllocCount(), before) << "disabled tracing must not allocate";

  // An enabled tracer recording into an untraced context is equally free.
  Tracer on;
  const uint64_t before_untraced = AllocCount();
  for (int i = 0; i < 1000; ++i) {
    on.RecordSpan(1, TraceContext{}, SpanCat::kCpu, "x", 0, 1);
  }
  EXPECT_EQ(AllocCount(), before_untraced);
}

}  // namespace
}  // namespace slice
