// Unit tests for the structured event log and flight recorder (src/obs):
// bounded-ring eviction, severity filtering, the allocation-free disabled
// path, argument capping, merged collection order, and the canonical dump
// serialization (shape, omitted-when-empty fields, content hashing).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/eventlog.h"
#include "src/obs/flight_recorder.h"
#include "tests/alloc_counter.h"

namespace slice {
namespace {

using obs::Event;
using obs::EventCat;
using obs::EventCode;
using obs::EventLog;
using obs::EventLogParams;
using obs::EventRing;
using obs::EventSev;

TEST(EventRingTest, BoundedEviction) {
  EventRing ring(3);
  for (uint64_t i = 0; i < 5; ++i) {
    Event e;
    e.seq = i;
    ring.Push(e);
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_EQ(ring.evicted(), 2u);

  // Oldest entries were overwritten; survivors come back oldest-first.
  std::vector<Event> out;
  ring.CopyTo(out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].seq, 2u);
  EXPECT_EQ(out[1].seq, 3u);
  EXPECT_EQ(out[2].seq, 4u);
}

TEST(EventLogTest, RecordsAndCollectsInTimeOrder) {
  EventLog log;
  // Two hosts, interleaved times: the merged view must come back ordered by
  // (at, seq) regardless of ring (host) order.
  log.Record(/*host=*/9, /*at=*/30, EventSev::kInfo, EventCat::kMgmt, EventCode::kEpochBump);
  log.Record(/*host=*/2, /*at=*/10, EventSev::kDebug, EventCat::kRoute,
             EventCode::kRouteDecision, /*trace_id=*/77, "route:dir", {{"dst", 4}});
  log.Record(/*host=*/2, /*at=*/30, EventSev::kWarn, EventCat::kRpc, EventCode::kRpcRetransmit);

  std::vector<Event> events = log.Collect();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].at, 10);
  EXPECT_EQ(events[0].host, 2u);
  EXPECT_EQ(events[0].trace_id, 77u);
  EXPECT_EQ(events[0].detail_view(), "route:dir");
  ASSERT_EQ(events[0].nargs, 1u);
  EXPECT_STREQ(events[0].args[0].key, "dst");
  EXPECT_EQ(events[0].args[0].value, 4);
  // Same sim-time: global sequence breaks the tie in mint order.
  EXPECT_EQ(events[1].code, EventCode::kEpochBump);
  EXPECT_EQ(events[2].code, EventCode::kRpcRetransmit);
  EXPECT_LT(events[1].seq, events[2].seq);

  EXPECT_EQ(log.total_recorded(), 3u);
  EXPECT_EQ(log.num_rings(), 2u);
}

TEST(EventLogTest, PerHostRingEviction) {
  EventLogParams params;
  params.ring_capacity = 4;
  EventLog log(params);
  for (int i = 0; i < 10; ++i) {
    log.Record(1, i, EventSev::kInfo, EventCat::kNet, EventCode::kPacketDrop);
  }
  // A second host's ring is independent and un-evicted.
  log.Record(2, 100, EventSev::kInfo, EventCat::kNet, EventCode::kPacketDrop);

  EXPECT_EQ(log.total_recorded(), 11u);
  EXPECT_EQ(log.total_evicted(), 6u);
  std::vector<Event> events = log.Collect();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events.front().at, 6);  // oldest survivor on host 1
  EXPECT_EQ(events.back().host, 2u);
}

TEST(EventLogTest, SeverityFloorFilters) {
  EventLogParams params;
  params.min_severity = EventSev::kWarn;
  EventLog log(params);
  log.Record(1, 0, EventSev::kDebug, EventCat::kRoute, EventCode::kRouteDecision);
  log.Record(1, 1, EventSev::kInfo, EventCat::kMgmt, EventCode::kEpochBump);
  log.Record(1, 2, EventSev::kWarn, EventCat::kRpc, EventCode::kRpcRetransmit);
  log.Record(1, 3, EventSev::kError, EventCat::kMgmt, EventCode::kNodeDead);

  std::vector<Event> events = log.Collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].code, EventCode::kRpcRetransmit);
  EXPECT_EQ(events[1].code, EventCode::kNodeDead);
  EXPECT_EQ(log.total_recorded(), 2u);
}

TEST(EventLogTest, DetailAndArgsAreCapped) {
  EventLog log;
  log.Record(1, 0, EventSev::kInfo, EventCat::kRoute, EventCode::kRouteDecision, 0,
             "a-detail-string-well-beyond-the-twenty-byte-cap",
             {{"a", 1}, {"b", 2}, {"c", 3}, {"dropped", 4}});
  std::vector<Event> events = log.Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].detail_view().size(), obs::kEventDetailCap - 1);
  EXPECT_EQ(events[0].nargs, obs::kEventMaxArgs);
  EXPECT_STREQ(events[0].args[2].key, "c");
}

TEST(EventLogTest, DisabledPathDoesNotAllocate) {
  EventLogParams params;
  params.enabled = false;
  EventLog log(params);

  const uint64_t before = AllocCount();
  for (int i = 0; i < 64; ++i) {
    obs::LogEvent(&log, 1, i, EventSev::kError, EventCat::kMgmt, EventCode::kNodeDead,
                  /*trace_id=*/42, "detail", {{"k", i}});
  }
  EXPECT_EQ(AllocCount(), before) << "disabled event logging must not allocate";
  EXPECT_EQ(log.total_recorded(), 0u);
  EXPECT_EQ(log.num_rings(), 0u);

  // The unwired case (null log) is the same single branch.
  const uint64_t before_null = AllocCount();
  obs::LogEvent(nullptr, 1, 0, EventSev::kError, EventCat::kMgmt, EventCode::kNodeDead);
  EXPECT_EQ(AllocCount(), before_null);

  // Severity-filtered records on an enabled log are equally allocation-free.
  EventLogParams warn_params;
  warn_params.min_severity = EventSev::kWarn;
  EventLog warn_log(warn_params);
  const uint64_t before_filtered = AllocCount();
  for (int i = 0; i < 64; ++i) {
    obs::LogEvent(&warn_log, 1, i, EventSev::kDebug, EventCat::kRoute,
                  EventCode::kRouteDecision, 0, "route:dir", {{"dst", i}});
  }
  EXPECT_EQ(AllocCount(), before_filtered);
}

TEST(EventLogTest, NamesAreStable) {
  EXPECT_STREQ(obs::EventSevName(EventSev::kWarn), "warn");
  EXPECT_STREQ(obs::EventCatName(EventCat::kFailover), "failover");
  EXPECT_STREQ(obs::EventCodeName(EventCode::kHeartbeatMiss), "heartbeat_miss");
  EXPECT_STREQ(obs::EventCodeName(EventCode::kAdoptBegin), "adopt_begin");
  EXPECT_STREQ(obs::EventCodeName(EventCode::kDrcReplay), "drc_replay");
}

TEST(FlightRecorderTest, DumpShapeAndOmittedFields) {
  EventLog log;
  log.Record(/*host=*/0x0a000001, /*at=*/1500, EventSev::kWarn, EventCat::kMgmt,
             EventCode::kHeartbeatMiss, /*trace_id=*/0xabc, "storage", {{"node", 2}});
  // Minimal event: no detail, no trace, no args — those keys must be omitted
  // from the serialization entirely, not emitted as empty values.
  log.Record(/*host=*/0x0a000002, /*at=*/2000, EventSev::kInfo, EventCat::kMgmt,
             EventCode::kEpochBump);

  const std::string json =
      obs::ExportFlightJson(log, /*at=*/2500, "unit_test", /*inflight_traces=*/{0xabc});
  EXPECT_NE(json.find("\"reason\":\"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":2"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"heartbeat_miss\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"storage\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\":2748"), std::string::npos);  // 0xabc
  EXPECT_NE(json.find("\"node\":2"), std::string::npos);
  EXPECT_NE(json.find("\"inflight_traces\":[2748]"), std::string::npos);
  // Hosts serialize as dotted quads, same convention as the metrics export.
  EXPECT_NE(json.find("\"host\":\"10.0.0.1\""), std::string::npos);

  // The epoch-bump event carries no optional fields.
  const size_t bump = json.find("\"name\":\"epoch_bump\"");
  ASSERT_NE(bump, std::string::npos);
  const std::string tail = json.substr(bump, 120);
  EXPECT_EQ(tail.find("\"detail\""), std::string::npos);
  EXPECT_EQ(tail.find("\"trace\""), std::string::npos);
  EXPECT_EQ(tail.find("\"args\""), std::string::npos);

  // Hash covers the full export and is deterministic.
  EXPECT_EQ(obs::FlightContentHash(json), obs::FlightContentHash(json));
  EXPECT_NE(obs::FlightContentHash(json), 0u);
  const std::string other = obs::ExportFlightJson(log, 2500, "other_reason", {0xabc});
  EXPECT_NE(obs::FlightContentHash(json), obs::FlightContentHash(other));
}

}  // namespace
}  // namespace slice
