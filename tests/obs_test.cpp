// Unit tests for nxd::obs — the metrics registry, the Prometheus renderer,
// and the span ring under contention.  Everything here depends only on
// nxd_obs + nxd_util, which keeps the ASan/TSan duplicate targets' source
// lists small; the cross-module wiring (live /metrics endpoint, stats
// equivalence, span reconciliation against counters) lives in
// tests/obs_integration_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/span.hpp"
#include "util/worker_pool.hpp"

namespace nxd::obs {
namespace {

// ---------------------------------------------------------------- histogram

TEST(Histogram, BucketGeometry) {
  // Bucket i counts value <= 2^i; 0 and 1 share bucket 0.
  EXPECT_EQ(histogram_bucket_index(0), 0u);
  EXPECT_EQ(histogram_bucket_index(1), 0u);
  EXPECT_EQ(histogram_bucket_index(2), 1u);
  EXPECT_EQ(histogram_bucket_index(3), 2u);
  EXPECT_EQ(histogram_bucket_index(4), 2u);
  EXPECT_EQ(histogram_bucket_index(5), 3u);
  EXPECT_EQ(histogram_bucket_index(8), 3u);
  EXPECT_EQ(histogram_bucket_index(9), 4u);
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    EXPECT_EQ(histogram_bucket_bound(i), std::uint64_t{1} << i);
    EXPECT_EQ(histogram_bucket_index(histogram_bucket_bound(i)), i);
  }
  const std::uint64_t top = std::uint64_t{1} << (kHistogramBuckets - 1);
  EXPECT_EQ(histogram_bucket_index(top), kHistogramBuckets - 1);
  EXPECT_EQ(histogram_bucket_index(top + 1), kHistogramBuckets);  // overflow
  EXPECT_EQ(histogram_bucket_index(UINT64_MAX), kHistogramBuckets);
}

TEST(Histogram, QuantilesAreBucketUpperBounds) {
  MetricsRegistry registry;
  auto h = registry.histogram("h");
  EXPECT_EQ(h.quantile(0.5), 0u);  // empty
  for (std::uint64_t v : {1, 2, 3, 4}) h.observe(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 10u);
  EXPECT_EQ(h.max(), 4u);
  // Cumulative buckets: <=1 holds 1 sample, <=2 holds 2, <=4 holds 4.
  EXPECT_EQ(h.quantile(0.25), 1u);
  EXPECT_EQ(h.quantile(0.5), 2u);
  EXPECT_EQ(h.quantile(0.75), 4u);  // rank 3 falls in the <=4 bucket
  EXPECT_EQ(h.quantile(1.0), 4u);
}

TEST(Histogram, OverflowQuantileReportsExactMax) {
  MetricsRegistry registry;
  auto h = registry.histogram("h");
  const std::uint64_t huge = (std::uint64_t{1} << kHistogramBuckets) + 12345;
  h.observe(3);
  h.observe(huge);
  EXPECT_EQ(h.quantile(0.25), 4u);
  EXPECT_EQ(h.quantile(1.0), huge);  // overflow bucket -> exact max
  EXPECT_EQ(h.max(), huge);
}

// ----------------------------------------------------------------- registry

TEST(Registry, SameNameAndLabelsShareOneCell) {
  MetricsRegistry registry;
  auto a = registry.counter("nxd_x_total");
  auto b = registry.counter("nxd_x_total");
  a.inc(3);
  b.inc(4);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(registry.series_count(), 1u);
}

TEST(Registry, LabelOrderIsCanonical) {
  MetricsRegistry registry;
  auto a = registry.counter("f", "", {{"b", "2"}, {"a", "1"}});
  auto b = registry.counter("f", "", {{"a", "1"}, {"b", "2"}});
  a.inc();
  b.inc();
  EXPECT_EQ(a.value(), 2u);
  EXPECT_EQ(registry.series_count(), 1u);
}

TEST(Registry, TypeConflictReturnsNullHandle) {
  MetricsRegistry registry;
  auto c = registry.counter("x");
  EXPECT_TRUE(c.valid());
  EXPECT_FALSE(registry.gauge("x").valid());
  EXPECT_FALSE(registry.histogram("x").valid());
  c.inc(5);
  EXPECT_EQ(c.value(), 5u);  // original series untouched by the conflicts
}

TEST(Registry, NullHandlesAreNoOps) {
  Counter c;
  Gauge g;
  LatencyHistogram h;
  c.inc(10);
  g.add(10);
  h.observe(10);
  EXPECT_FALSE(c.valid());
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.99), 0u);
}

TEST(Registry, ResetZeroesCellsButKeepsHandles) {
  MetricsRegistry registry;
  auto c = registry.counter("c");
  auto g = registry.gauge("g");
  auto h = registry.histogram("h");
  c.inc(9);
  g.set(-3);
  h.observe(100);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  c.inc();  // handle still live after reset
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(registry.series_count(), 3u);
}

// ----------------------------------------------------------------- snapshot

TEST(Snapshot, TextRoundTrip) {
  MetricsRegistry registry;
  registry.counter("nxd_a_total", "a help").inc(42);
  registry.gauge("nxd_b", "", {{"k", "v"}}).set(-7);
  auto h = registry.histogram("nxd_c_bytes", "sizes");
  h.observe(3);
  h.observe(900);

  const auto snapshot = registry.snapshot();
  const std::string text = snapshot.to_text();
  MetricsSnapshot reparsed;
  std::string error;
  ASSERT_TRUE(MetricsSnapshot::parse(text, &reparsed, &error)) << error;
  EXPECT_EQ(reparsed.to_text(), text);

  const auto* counter = reparsed.find("nxd_a_total");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->counter, 42u);
  const auto* gauge = reparsed.find("nxd_b", {{"k", "v"}});
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->gauge, -7);
  const auto* hist = reparsed.find("nxd_c_bytes");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist_count, 2u);
  EXPECT_EQ(hist->hist_sum, 903u);
  EXPECT_EQ(hist->hist_max, 900u);
}

TEST(Snapshot, ParseRejectsGarbage) {
  MetricsSnapshot out;
  std::string error;
  EXPECT_FALSE(MetricsSnapshot::parse("not a snapshot", &out, &error));
  EXPECT_FALSE(MetricsSnapshot::parse("nxd-metrics v1\nbogus line", &out, &error));
  EXPECT_FALSE(MetricsSnapshot::parse("nxd-metrics v1\ncounter bad{name x\n",
                                      &out, &error));
}

MetricsSnapshot shard_snapshot(std::uint64_t c, std::uint64_t sample) {
  MetricsRegistry registry;
  registry.counter("nxd_shared_total").inc(c);
  registry.histogram("nxd_lat").observe(sample);
  registry.counter("nxd_only_" + std::to_string(c) + "_total").inc(1);
  return registry.snapshot();
}

TEST(Snapshot, MergeIsAssociativeAndCommutative) {
  const auto a = shard_snapshot(1, 2);
  const auto b = shard_snapshot(10, 40);
  const auto c = shard_snapshot(100, 9000);

  auto ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);

  auto bc = b;
  bc.merge(c);
  auto a_bc = a;
  a_bc.merge(bc);

  auto cba = c;
  cba.merge(b);
  cba.merge(a);

  EXPECT_EQ(ab_c.to_text(), a_bc.to_text());
  EXPECT_EQ(ab_c.to_text(), cba.to_text());

  const auto* shared = ab_c.find("nxd_shared_total");
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->counter, 111u);
  const auto* lat = ab_c.find("nxd_lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->hist_count, 3u);
  EXPECT_EQ(lat->hist_sum, 9042u);
  EXPECT_EQ(lat->hist_max, 9000u);  // max folds as max, not sum
  // Series unique to one shard survive the merge.
  EXPECT_NE(ab_c.find("nxd_only_1_total"), nullptr);
  EXPECT_NE(ab_c.find("nxd_only_100_total"), nullptr);
}

// --------------------------------------------------------------- prometheus

TEST(Prometheus, GoldenText) {
  MetricsRegistry registry;
  registry.counter("nxd_q_total", "Queries", {{"proto", "udp"}}).inc(3);
  registry.counter("nxd_q_total", "Queries", {{"proto", "tcp"}}).inc(1);
  registry.gauge("nxd_active", "Open connections").set(5);
  auto h = registry.histogram("nxd_lat", "Latency");
  h.observe(1);
  h.observe(3);

  std::string expected =
      "# HELP nxd_active Open connections\n"
      "# TYPE nxd_active gauge\n"
      "nxd_active 5\n"
      "# HELP nxd_lat Latency\n"
      "# TYPE nxd_lat histogram\n"
      "nxd_lat_bucket{le=\"1\"} 1\n"
      "nxd_lat_bucket{le=\"2\"} 1\n";
  for (std::size_t i = 2; i < kHistogramBuckets; ++i) {
    expected += "nxd_lat_bucket{le=\"" +
                std::to_string(histogram_bucket_bound(i)) + "\"} 2\n";
  }
  expected +=
      "nxd_lat_bucket{le=\"+Inf\"} 2\n"
      "nxd_lat_sum 4\n"
      "nxd_lat_count 2\n"
      "# HELP nxd_lat_max Largest sample observed by nxd_lat\n"
      "# TYPE nxd_lat_max gauge\n"
      "nxd_lat_max 3\n"
      "# HELP nxd_q_total Queries\n"
      "# TYPE nxd_q_total counter\n"
      "nxd_q_total{proto=\"tcp\"} 1\n"
      "nxd_q_total{proto=\"udp\"} 3\n";
  EXPECT_EQ(render_prometheus(registry), expected);
  // Rendering is a pure function of the snapshot: byte-stable across calls.
  EXPECT_EQ(render_prometheus(registry), render_prometheus(registry.snapshot()));
}

TEST(Prometheus, EscapesLabelValues) {
  MetricsRegistry registry;
  registry.counter("nxd_e_total", "", {{"k", "a\"b\\c\nd"}}).inc(1);
  const auto text = render_prometheus(registry);
  EXPECT_NE(text.find("k=\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

// -------------------------------------------------------------- concurrency

// The ASan/TSan duplicate binaries exist for these: N workers hammer shared
// counter/gauge/histogram cells and one span ring; totals must be exact and
// the sanitizers must see clean synchronization.
TEST(Concurrency, WorkerPoolUpdatesAreExact) {
  constexpr std::size_t kWorkers = 8;
  constexpr std::uint64_t kPerWorker = 20'000;
  MetricsRegistry registry;
  auto counter = registry.counter("nxd_conc_total");
  auto gauge = registry.gauge("nxd_conc_level");
  auto hist = registry.histogram("nxd_conc_lat");
  // Tiny on purpose: wraparound under contention.
  SpanTracer spans(SpanTracer::Config{.sample_rate = 1.0, .capacity = 64});

  util::WorkerPool pool(kWorkers);
  pool.run_indexed(kWorkers, [&](std::size_t w) {
    auto mine = registry.counter("nxd_conc_total");  // re-register: same cell
    for (std::uint64_t i = 0; i < kPerWorker; ++i) {
      mine.inc();
      gauge.add(1);
      gauge.sub(1);
      hist.observe(i % 1024);
      if (i % 100 == 0) {
        spans.end(spans.trace_root(w * kPerWorker + i, "conn", 0), 0);
      }
    }
  });

  EXPECT_EQ(counter.value(), kWorkers * kPerWorker);
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(hist.count(), kWorkers * kPerWorker);
  EXPECT_EQ(spans.traces_started(), kWorkers * (kPerWorker / 100));
  EXPECT_EQ(spans.spans_recorded(),
            spans.spans_dropped() + spans.finished().size());

  const auto snapshot = registry.snapshot();
  const auto* s = snapshot.find("nxd_conc_lat");
  ASSERT_NE(s, nullptr);
  std::uint64_t bucket_total = 0;
  for (const auto b : s->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s->hist_count);  // no sample lost between cells
}

}  // namespace
}  // namespace nxd::obs
