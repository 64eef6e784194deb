// Tests for the metrics plane (src/obs): typed instruments and provider
// backing, registry pointer stability, the bounded time-series ring, the
// window-aligned sim-time scraper, watchdog hysteresis in both value and
// delta modes, canonical export determinism, and the allocation-free
// disabled fast path.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/metrics_export.h"
#include "src/obs/timeseries.h"
#include "src/sim/event_queue.h"
#include "tests/alloc_counter.h"

namespace slice {
namespace {

using obs::Alert;
using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::Metrics;
using obs::MetricsParams;
using obs::MetricsRegistry;
using obs::Scraper;
using obs::TimeSeries;
using obs::WatchdogMode;
using obs::WatchdogRule;

TEST(InstrumentTest, CounterAccumulatesAndProviderOverrides) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);

  uint64_t backing = 7;
  c.SetProvider([&] { return backing; });
  EXPECT_TRUE(c.has_provider());
  EXPECT_EQ(c.Value(), 7u) << "provider replaces the accumulated value";
  backing = 9;
  EXPECT_EQ(c.Value(), 9u) << "provider is polled per read, not cached";
}

TEST(InstrumentTest, GaugeSetAddProvider) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.SetProvider([] { return int64_t{-5}; });
  EXPECT_EQ(g.Value(), -5);
}

TEST(InstrumentTest, HistogramObserveAndMerge) {
  Histogram a;
  Histogram b;
  a.Observe(100);
  a.Observe(200);
  b.Observe(300);
  a.Merge(b);
  EXPECT_EQ(a.stats().count(), 3u);
  EXPECT_EQ(a.stats().min(), 100u);
  EXPECT_EQ(a.stats().max(), 300u);
}

TEST(InstrumentTest, NullSafeHelpersAreNoOpsOnNull) {
  obs::Inc(nullptr);
  obs::Inc(nullptr, 5);
  obs::Set(nullptr, 5);
  obs::Observe(nullptr, 5);

  Counter c;
  Gauge g;
  Histogram h;
  obs::Inc(&c, 2);
  obs::Set(&g, 3);
  obs::Observe(&h, 4);
  EXPECT_EQ(c.Value(), 2u);
  EXPECT_EQ(g.Value(), 3);
  EXPECT_EQ(h.stats().count(), 1u);
}

TEST(InstrumentTest, DisabledHotPathDoesNotAllocate) {
  // When metrics are disabled, components hold null instrument pointers and
  // every site reduces to the null check — it must never allocate.
  Counter* counter = nullptr;
  Gauge* gauge = nullptr;
  Histogram* histogram = nullptr;
  const uint64_t before = AllocCount();
  for (int i = 0; i < 1000; ++i) {
    obs::Inc(counter);
    obs::Inc(counter, 64);
    obs::Set(gauge, i);
    obs::Observe(histogram, static_cast<SimTime>(i));
  }
  EXPECT_EQ(AllocCount(), before) << "disabled metrics hot path must not allocate";

  // The enabled push path is allocation-free too once the instrument exists.
  Counter real;
  const uint64_t before_real = AllocCount();
  for (int i = 0; i < 1000; ++i) {
    obs::Inc(&real);
  }
  EXPECT_EQ(AllocCount(), before_real);
  EXPECT_EQ(real.Value(), 1000u);
}

TEST(RegistryTest, InstrumentPointersAreStableAcrossGrowth) {
  MetricsRegistry reg;
  Counter* first = reg.GetCounter("alpha");
  Gauge* gauge = reg.GetGauge("alpha");  // same name, different type: distinct
  for (int i = 0; i < 200; ++i) {
    reg.GetCounter("c" + std::to_string(i));
  }
  first->Add(3);
  EXPECT_EQ(reg.GetCounter("alpha"), first) << "same name returns the same slot";
  EXPECT_EQ(reg.GetCounter("alpha")->Value(), 3u);
  gauge->Set(-1);
  EXPECT_EQ(reg.GetGauge("alpha")->Value(), -1);
  EXPECT_EQ(reg.counters().size(), 201u);
}

TEST(RegistryTest, FindReturnsNullForUnregistered) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.FindCounter("missing"), nullptr);
  EXPECT_EQ(reg.FindGauge("missing"), nullptr);
  reg.GetCounter("present");
  EXPECT_NE(reg.FindCounter("present"), nullptr);
}

TEST(TimeSeriesTest, RingOverwritesOldest) {
  TimeSeries series(3);
  series.Push(1, 10);
  series.Push(2, 20);
  EXPECT_EQ(series.size(), 2u);
  EXPECT_EQ(series.at(0).value, 10);
  EXPECT_EQ(series.back().value, 20);

  series.Push(3, 30);
  series.Push(4, 40);  // overwrites (1, 10)
  series.Push(5, 50);  // overwrites (2, 20)
  EXPECT_EQ(series.size(), 3u);
  EXPECT_EQ(series.dropped(), 2u);
  EXPECT_EQ(series.at(0).at, 3u);
  EXPECT_EQ(series.at(1).at, 4u);
  EXPECT_EQ(series.back().at, 5u);
}

TEST(ScraperTest, ScrapesLandOnWindowBoundaries) {
  EventQueue queue;
  MetricsParams params;
  params.scrape_interval = FromMillis(100);
  Metrics metrics(params);
  uint64_t requests = 0;
  metrics.Registry(7).GetCounter("reqs")->SetProvider([&] { return requests; });

  Scraper scraper(queue, metrics);
  // Start mid-window: the first scrape must align to the NEXT multiple of
  // the interval, not to start-time + interval.
  queue.RunUntil(FromMillis(150));
  scraper.Start();
  requests = 5;
  // Background events run normally under RunUntil (only RunUntilIdle skips
  // them), so the scrape chain fires at 200/300/400ms.
  queue.RunUntil(FromMillis(450));

  EXPECT_EQ(scraper.scrapes(), 3u);
  const auto& host_series = scraper.series().at(7);
  const TimeSeries& reqs = host_series.at("reqs");
  ASSERT_EQ(reqs.size(), 3u);
  EXPECT_EQ(reqs.at(0).at, FromMillis(200));
  EXPECT_EQ(reqs.at(1).at, FromMillis(300));
  EXPECT_EQ(reqs.at(2).at, FromMillis(400));
  EXPECT_EQ(reqs.at(0).value, 5);
}

TEST(ScraperTest, HistogramsContributeSampleCount) {
  EventQueue queue;
  Metrics metrics;
  metrics.Registry(1).GetHistogram("lat")->Observe(100);
  metrics.Registry(1).GetHistogram("lat")->Observe(200);
  Scraper scraper(queue, metrics);
  scraper.ScrapeOnce();
  EXPECT_EQ(scraper.series().at(1).at("lat").back().value, 2);
}

TEST(WatchdogTest, ValueModeHysteresis) {
  EventQueue queue;
  Metrics metrics;
  Gauge* backlog = metrics.Registry(3).GetGauge("q");
  Scraper scraper(queue, metrics);
  scraper.AddRule(WatchdogRule{.name = "q_deep",
                               .metric = "q",
                               .mode = WatchdogMode::kValue,
                               .raise_threshold = 10,
                               .clear_threshold = 3,
                               .raise_streak = 2,
                               .clear_streak = 2});

  backlog->Set(12);
  scraper.ScrapeOnce();
  EXPECT_TRUE(scraper.alerts().empty()) << "one sample above is not a streak";
  scraper.ScrapeOnce();
  ASSERT_EQ(scraper.alerts().size(), 1u);
  EXPECT_EQ(scraper.alerts()[0].rule, "q_deep");
  EXPECT_EQ(scraper.alerts()[0].host, 3u);
  EXPECT_TRUE(scraper.alerts()[0].raise);
  EXPECT_EQ(scraper.active_alerts(), 1u);

  // Re-raising while raised emits nothing; dipping below raise but above
  // clear neither clears nor resets the raise.
  scraper.ScrapeOnce();
  backlog->Set(7);
  scraper.ScrapeOnce();
  EXPECT_EQ(scraper.alerts().size(), 1u);
  EXPECT_EQ(scraper.active_alerts(), 1u);

  backlog->Set(2);
  scraper.ScrapeOnce();
  EXPECT_EQ(scraper.alerts().size(), 1u) << "one sample below clear is not a streak";
  scraper.ScrapeOnce();
  ASSERT_EQ(scraper.alerts().size(), 2u);
  EXPECT_FALSE(scraper.alerts()[1].raise);
  EXPECT_EQ(scraper.active_alerts(), 0u);
}

TEST(WatchdogTest, DeltaModeLinkSaturationFires) {
  // Synthetic link-saturation: drive the NIC busy-ns counter so each scrape
  // window's delta exceeds 90% of the interval. Uses the stock rule set.
  const SimTime interval = FromMillis(100);
  EventQueue queue;
  MetricsParams params;
  params.scrape_interval = interval;
  Metrics metrics(params);
  Counter* busy = metrics.Registry(9).GetCounter("net_nic_tx_busy_ns");
  Scraper scraper(queue, metrics);
  for (WatchdogRule& rule : obs::DefaultWatchdogRules(interval)) {
    scraper.AddRule(std::move(rule));
  }

  scraper.ScrapeOnce();  // first delta observation only sets the baseline
  busy->Add(FromMillis(95));
  scraper.ScrapeOnce();  // delta 95ms >= 90ms: streak 1
  EXPECT_TRUE(scraper.alerts().empty());
  busy->Add(FromMillis(95));
  scraper.ScrapeOnce();  // streak 2: raise
  ASSERT_EQ(scraper.alerts().size(), 1u);
  EXPECT_EQ(scraper.alerts()[0].rule, "link_saturation");
  EXPECT_EQ(scraper.alerts()[0].host, 9u);
  EXPECT_TRUE(scraper.alerts()[0].raise);

  busy->Add(FromMillis(10));
  scraper.ScrapeOnce();  // delta 10ms <= 50ms: clear streak 1
  busy->Add(FromMillis(10));
  scraper.ScrapeOnce();  // clear streak 2: clear
  ASSERT_EQ(scraper.alerts().size(), 2u);
  EXPECT_FALSE(scraper.alerts()[1].raise);
}

TEST(ExportTest, FormatHostAddrDottedQuad) {
  EXPECT_EQ(obs::FormatHostAddr(0x0a000901), "10.0.9.1");
  EXPECT_EQ(obs::FormatHostAddr(0), "0.0.0.0");
  EXPECT_EQ(obs::FormatHostAddr(0xffffffff), "255.255.255.255");
}

TEST(ExportTest, AppendFixedIsLocaleIndependentIntegerMath) {
  std::string out;
  obs::AppendFixed(out, 3.14159, 3);
  EXPECT_EQ(out, "3.142");
  out.clear();
  obs::AppendFixed(out, -2.5, 1);
  EXPECT_EQ(out, "-2.5");
  out.clear();
  obs::AppendFixed(out, 42.0, 0);
  EXPECT_EQ(out, "42");
  out.clear();
  obs::AppendFixed(out, 0.125, 2);
  EXPECT_EQ(out, "0.13");
}

TEST(ExportTest, PrometheusExpositionShape) {
  Metrics metrics;
  metrics.Registry(0x0a000064).GetCounter("reqs")->Add(5);
  metrics.Registry(0x0a000065).GetCounter("reqs")->Add(7);
  metrics.Registry(0x0a000064).GetGauge("depth")->Set(3);
  Histogram* lat = metrics.Registry(0x0a000064).GetHistogram("lat_ns");
  lat->Observe(1000);
  lat->Observe(2000);

  const std::string text = obs::ExportPrometheus(metrics);
  EXPECT_NE(text.find("# TYPE slice_reqs counter"), std::string::npos);
  EXPECT_NE(text.find("slice_reqs{host=\"10.0.0.100\"} 5"), std::string::npos);
  EXPECT_NE(text.find("slice_reqs{host=\"10.0.0.101\"} 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE slice_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE slice_lat_ns summary"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.5\""), std::string::npos);
  EXPECT_NE(text.find("slice_lat_ns_count{host=\"10.0.0.100\"} 2"), std::string::npos);
}

TEST(ExportTest, JsonSnapshotIsDeterministicAndHashSensitive) {
  auto build = [](uint64_t reqs) {
    Metrics metrics;
    metrics.Registry(0x0a000002).GetCounter("b_counter")->Add(reqs);
    metrics.Registry(0x0a000002).GetCounter("a_counter")->Add(1);
    metrics.Registry(0x0a000001).GetGauge("depth")->Set(4);
    return obs::ExportMetricsJson(metrics);
  };
  const std::string one = build(5);
  const std::string two = build(5);
  EXPECT_EQ(one, two) << "same inputs must export byte-identical JSON";
  EXPECT_EQ(obs::MetricsContentHash(one), obs::MetricsContentHash(two));

  const std::string changed = build(6);
  EXPECT_NE(obs::MetricsContentHash(one), obs::MetricsContentHash(changed));

  // Sorted key order: host 10.0.0.1 before 10.0.0.2, a_counter before
  // b_counter regardless of registration order.
  EXPECT_LT(one.find("10.0.0.1"), one.find("10.0.0.2"));
  EXPECT_LT(one.find("a_counter"), one.find("b_counter"));
}

TEST(ExportTest, JsonIncludesScraperSeriesAndAlerts) {
  EventQueue queue;
  Metrics metrics;
  Gauge* g = metrics.Registry(5).GetGauge("q");
  Scraper scraper(queue, metrics);
  scraper.AddRule(WatchdogRule{.name = "q_deep",
                               .metric = "q",
                               .raise_threshold = 1,
                               .clear_threshold = 0,
                               .raise_streak = 1,
                               .clear_streak = 1});
  g->Set(2);
  scraper.ScrapeOnce();
  const std::string json = obs::ExportMetricsJson(metrics, &scraper);
  EXPECT_NE(json.find("\"scrapes\":1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"q_deep\""), std::string::npos);
  EXPECT_NE(json.find("\"series\""), std::string::npos);
}

}  // namespace
}  // namespace slice
