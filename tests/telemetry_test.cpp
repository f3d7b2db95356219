// Telemetry-engine tests: causal spans, windowed time series, SLO burn-rate
// and NXDomain anomaly detection (DESIGN.md §4k).
//
//   * span <-> metrics reconciliation: at sampling 1.0 every client query
//     yields exactly one "resolve" root span, so tracer counts equal the
//     registry's counters;
//   * child nesting: every non-root span links to a parent in the same trace
//     and its [start, end] lies inside the parent's;
//   * the anomaly detector flags a seeded water-torture burst as a flood and
//     stays quiet across legit-only runs on three seeds (zero false
//     positives);
//   * span detail strings are bounded at kDetailCap, so a flood of
//     maximum-length qnames cannot bloat the ring (10k-byte regression);
//   * JSONL round-trips exactly, including trace ids above INT64_MAX;
//   * multithreaded emission reconciles (the TSan duplicate compiles these
//     sources with -fsanitize=thread);
//   * durable-store commit groups and honeypot connections emit well-formed
//     span trees.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attack/harness.hpp"
#include "attack/water_torture.hpp"
#include "dns/message.hpp"
#include "honeypot/recorder.hpp"
#include "honeypot/server.hpp"
#include "net/endpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "pdns/durable_store.hpp"
#include "pdns/observation.hpp"
#include "pdns/sie_channel.hpp"

namespace nxd {
namespace {

using obs::SpanRecord;

/// Replay the detector over a recorded time series at its own cadence, the
/// way `nxdtool slo` and `nx_pipeline --slo-report` do.
void replay(obs::NxAnomalyDetector* detector, const obs::TimeSeriesStore& ts) {
  ASSERT_FALSE(ts.samples().empty());
  const util::SimTime first = ts.samples().front().t;
  const util::SimTime last = ts.last_time();
  const util::SimTime step = detector->config().window;
  for (util::SimTime t = first + step; t < last; t += step) {
    detector->observe(ts, t);
  }
  detector->observe(ts, last);
}

std::uint64_t counter_of(const obs::MetricsRegistry& registry,
                         const std::string& name) {
  const auto snap = registry.snapshot();
  const auto* series = snap.find(name);
  return series != nullptr ? series->counter : 0;
}

/// Run the attack harness with full telemetry taps; the tracer ring is big
/// enough that nothing wraps, so finished() is the complete span set.
struct InstrumentedRun {
  obs::MetricsRegistry registry;
  std::unique_ptr<obs::SpanTracer> spans;
  obs::TimeSeriesStore timeseries;
  attack::AttackRunReport report;

  InstrumentedRun(std::uint64_t seed, int warmup, int attack_queries,
                  double sample_rate) {
    obs::SpanTracer::Config span_config;
    span_config.sample_rate = sample_rate;
    span_config.seed = seed;
    span_config.capacity = 1u << 17;
    spans = std::make_unique<obs::SpanTracer>(span_config);

    attack::HarnessConfig config;
    config.seed = seed;
    config.warmup_queries = warmup;
    config.attack_queries = attack_queries;
    config.query_spacing = 1;
    config.registry = &registry;
    config.spans = spans.get();
    config.timeseries = &timeseries;
    attack::AttackHarness harness(config);
    attack::WaterTortureAttack torture;
    report = harness.run(torture, attack::DefensePlan::undefended());
  }
};

// ------------------------------------------------- span <-> metrics

TEST(SpanReconciliation, EveryQueryIsOneResolveRootAtFullSampling) {
  InstrumentedRun run(42, 200, 300, 1.0);

  const std::uint64_t queries =
      counter_of(run.registry, "nxd_resolver_client_queries_total");
  ASSERT_GT(queries, 0u);
  EXPECT_EQ(run.spans->traces_started(), queries);
  EXPECT_EQ(run.spans->spans_dropped(), 0u);
  EXPECT_EQ(run.spans->spans_open(), 0u);  // everything begun was ended

  std::uint64_t resolve_roots = 0;
  for (const SpanRecord& s : run.spans->finished()) {
    if (s.parent_id == 0 && s.name == "resolve") ++resolve_roots;
  }
  EXPECT_EQ(resolve_roots, queries);
}

TEST(SpanReconciliation, SamplingIsDeterministicAndProportional) {
  obs::SpanTracer::Config config;
  config.sample_rate = 0.01;
  config.seed = 7;
  obs::SpanTracer a(config);
  obs::SpanTracer b(config);
  std::uint64_t kept = 0;
  for (std::uint64_t key = 0; key < 100'000; ++key) {
    EXPECT_EQ(a.sampled(key), b.sampled(key));
    EXPECT_EQ(a.trace_id_for(key), b.trace_id_for(key));
    if (a.sampled(key)) ++kept;
  }
  // ~1% of 100k keys, with generous slack for hash variance.
  EXPECT_GT(kept, 500u);
  EXPECT_LT(kept, 2000u);
}

TEST(SpanNesting, ChildrenLieInsideTheirParents) {
  InstrumentedRun run(5, 100, 200, 1.0);
  const auto finished = run.spans->finished();
  ASSERT_FALSE(finished.empty());

  std::map<std::uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : finished) by_id[s.span_id] = &s;

  std::uint64_t children = 0;
  for (const SpanRecord& s : finished) {
    EXPECT_LE(s.start, s.end) << s.name;
    if (s.parent_id == 0) continue;
    ++children;
    const auto it = by_id.find(s.parent_id);
    ASSERT_NE(it, by_id.end()) << "orphan child " << s.name;
    const SpanRecord& parent = *it->second;
    EXPECT_EQ(parent.trace_id, s.trace_id) << s.name;
    EXPECT_GE(s.start, parent.start) << s.name;
    EXPECT_LE(s.end, parent.end) << s.name << " under " << parent.name;
  }
  EXPECT_GT(children, 0u);  // the resolver emits per-tier/try children
}

// ------------------------------------------------- anomaly detection

TEST(Anomaly, WaterTortureBurstIsFlaggedAsFlood) {
  InstrumentedRun run(42, 600, 600, 0.0);
  obs::NxAnomalyDetector detector;
  replay(&detector, run.timeseries);

  EXPECT_GE(detector.spikes(), 1u);
  EXPECT_GE(detector.floods(), 1u);
  EXPECT_EQ(detector.state(), obs::AnomalyState::Flood);
  EXPECT_GT(detector.last().share, 0.5);
}

TEST(Anomaly, FloodPinsPressureFloorAndReleasesIt) {
  InstrumentedRun run(42, 600, 600, 0.0);
  obs::PressureSignal pressure;
  obs::NxAnomalyDetector detector;
  detector.attach_pressure(&pressure);
  replay(&detector, run.timeseries);
  ASSERT_EQ(detector.state(), obs::AnomalyState::Flood);
  EXPECT_GE(static_cast<int>(pressure.level()), detector.config().flood_floor);

  // Quiet windows clear the flood and release the floor.
  util::SimTime t = run.timeseries.last_time();
  for (int i = 0; i < 8; ++i) {
    t += detector.config().window;
    detector.update(t, 0.0, 100);
  }
  EXPECT_NE(detector.state(), obs::AnomalyState::Flood);
  EXPECT_EQ(pressure.level(), obs::PressureLevel::Normal);
}

TEST(Anomaly, LegitOnlyTrafficIsQuietAcrossSeeds) {
  for (const std::uint64_t seed : {11ull, 222ull, 3333ull}) {
    InstrumentedRun run(seed, 1200, 0, 0.0);
    obs::NxAnomalyDetector detector;
    replay(&detector, run.timeseries);
    EXPECT_EQ(detector.spikes(), 0u) << "seed " << seed;
    EXPECT_EQ(detector.floods(), 0u) << "seed " << seed;
    EXPECT_EQ(detector.drifts(), 0u) << "seed " << seed;
    EXPECT_TRUE(detector.state() == obs::AnomalyState::Quiet ||
                detector.state() == obs::AnomalyState::Warmup)
        << "seed " << seed << ": " << to_string(detector.state());
  }
}

// ------------------------------------------------- SLO burn rate

TEST(SloMonitor, BurnRateFiresOnlyWhenBothWindowsBurn) {
  obs::SloConfig config;
  config.event_total = "events_total";
  config.bad_total = "bad_total";
  config.page_long = 120;
  config.page_short = 60;
  config.ticket_long = 240;
  config.ticket_short = 120;

  obs::MetricsRegistry registry;
  auto events = registry.counter("events_total");
  auto bad = registry.counter("bad_total");
  obs::TimeSeriesStore::Config ts_config;
  ts_config.window = 60;
  obs::TimeSeriesStore ts(ts_config);

  // Four healthy windows: bad fraction 0.1% == budget, burn 1.0, no alert.
  util::SimTime t = 0;
  for (int w = 0; w < 4; ++w) {
    events.inc(10'000);
    bad.inc(10);
    ts.observe(t += 60, registry.snapshot());
  }
  obs::SloMonitor monitor(config);
  const auto& healthy = monitor.evaluate(ts, t);
  EXPECT_NEAR(healthy.availability.page.long_burn, 1.0, 0.01);
  EXPECT_FALSE(healthy.any_page());
  EXPECT_FALSE(healthy.any_ticket());

  // Two burning windows: bad fraction 10% => burn 100 on both page windows.
  for (int w = 0; w < 2; ++w) {
    events.inc(10'000);
    bad.inc(1'000);
    ts.observe(t += 60, registry.snapshot());
  }
  const auto& burning = monitor.evaluate(ts, t);
  EXPECT_TRUE(burning.availability.page.firing);
  EXPECT_GT(burning.availability.page.short_burn, config.page_burn);
  EXPECT_GT(burning.availability.page.long_burn, config.page_burn);
  EXPECT_EQ(monitor.pages_fired(), 1u);

  // Recovery: the short window quiets first, so the page stops firing even
  // while the long window still shows the damage.
  for (int w = 0; w < 2; ++w) {
    events.inc(10'000);
    bad.inc(10);
    ts.observe(t += 60, registry.snapshot());
  }
  const auto& recovering = monitor.evaluate(ts, t);
  EXPECT_FALSE(recovering.availability.page.firing);
}

// ------------------------------------------------- time series store

TEST(TimeSeries, WindowedSumsRatesAndRetention) {
  obs::MetricsRegistry registry;
  auto hits = registry.counter("hits_total");
  auto total = registry.counter("lookups_total");
  obs::TimeSeriesStore::Config config;
  config.window = 10;
  config.retention = 4;
  obs::TimeSeriesStore ts(config);

  util::SimTime t = 0;
  for (int i = 1; i <= 6; ++i) {
    hits.inc(static_cast<std::uint64_t>(i));
    total.inc(10);
    ts.observe(t += 10, registry.snapshot());
  }
  // Retention 4 kept only the last four deltas (3+4+5+6).
  EXPECT_EQ(ts.samples().size(), 4u);
  EXPECT_EQ(ts.samples_dropped(), 2u);
  EXPECT_EQ(ts.sum("hits_total", 40, 60), 3u + 4u + 5u + 6u);
  EXPECT_EQ(ts.sum("hits_total", 20, 60), 5u + 6u);
  EXPECT_DOUBLE_EQ(ts.rate("lookups_total", 20, 60), 1.0);
  EXPECT_DOUBLE_EQ(ts.ratio("hits_total", "lookups_total", 20, 60), 11.0 / 20);
  // A non-advancing observation stores nothing.
  EXPECT_FALSE(ts.observe(60, registry.snapshot()));

  // The serialized store parses back sample for sample.
  obs::TimeSeriesStore parsed;
  std::string error;
  ASSERT_TRUE(obs::TimeSeriesStore::parse(ts.to_text(), &parsed, &error))
      << error;
  ASSERT_EQ(parsed.samples().size(), ts.samples().size());
  EXPECT_EQ(parsed.sum("hits_total", 40, 60), ts.sum("hits_total", 40, 60));
}

// ------------------------------------------------- detail bounding

TEST(DetailCap, TenKilobyteQnameIsTruncatedEverywhere) {
  const std::string huge(10'000, 'x');  // a water-torture max-length qname

  obs::SpanTracer spans;
  const auto root = spans.trace_root(1, "resolve", 0, huge);
  spans.end(root, 2, 0, huge);  // end()'s replacement detail is capped too
  EXPECT_EQ(spans.details_truncated(), 2u);
  const auto finished = spans.finished();
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_EQ(finished[0].detail.size(), obs::kDetailCap);
}

// ------------------------------------------------- JSONL round-trip

TEST(SpanJsonl, RoundTripsIncludingHugeTraceIds) {
  obs::SpanTracer spans;
  // Find a key whose trace id exceeds INT64_MAX: scan_uint must accumulate
  // into uint64, not via the signed scanner (regression).
  std::uint64_t huge_key = 0;
  while (spans.trace_id_for(huge_key) <=
         static_cast<std::uint64_t>(INT64_MAX)) {
    ++huge_key;
    ASSERT_LT(huge_key, 1'000u) << "hash should exceed INT64_MAX quickly";
  }
  const auto root = spans.trace_root(huge_key, "resolve", 10, "q\"uo\\te");
  const auto child = spans.begin(root, "try", 11, "tab\there");
  spans.end(child, 15, -3);
  spans.end(root, 20, 7, "done\n");

  const std::string jsonl = spans.to_jsonl();
  std::vector<SpanRecord> parsed;
  std::string error;
  ASSERT_TRUE(obs::SpanTracer::parse_jsonl(jsonl, &parsed, &error)) << error;
  const auto original = spans.finished();
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].trace_id, original[i].trace_id);
    EXPECT_EQ(parsed[i].span_id, original[i].span_id);
    EXPECT_EQ(parsed[i].parent_id, original[i].parent_id);
    EXPECT_EQ(parsed[i].name, original[i].name);
    EXPECT_EQ(parsed[i].start, original[i].start);
    EXPECT_EQ(parsed[i].end, original[i].end);
    EXPECT_EQ(parsed[i].value, original[i].value);
    EXPECT_EQ(parsed[i].detail, original[i].detail);
  }
  EXPECT_GT(original[1].trace_id, static_cast<std::uint64_t>(INT64_MAX));
}

TEST(SpanAggregation, CriticalPathAttributesSelfTime) {
  obs::SpanTracer spans;
  const auto root = spans.trace_root(1, "resolve", 0);
  const auto tier = spans.begin(root, "tier", 2);
  const auto attempt = spans.begin(tier, "try", 3);
  spans.end(attempt, 9);
  spans.end(tier, 10);
  spans.end(root, 12);

  const auto report = obs::aggregate_spans(spans.finished());
  EXPECT_EQ(report.traces, 1u);
  EXPECT_EQ(report.spans, 3u);
  EXPECT_EQ(report.p50_root, 12);
  std::map<std::string, const obs::SpanStat*> stages;
  for (const auto& s : report.stages) stages[s.name] = &s;
  ASSERT_TRUE(stages.count("resolve") && stages.count("tier") &&
              stages.count("try"));
  EXPECT_EQ(stages["resolve"]->self, 4);  // 12 total minus tier's 8
  EXPECT_EQ(stages["tier"]->self, 2);     // 8 total minus try's 6
  EXPECT_EQ(stages["try"]->self, 6);
}

// ------------------------------------------------- concurrency (TSan)

TEST(SpanConcurrency, ParallelEmittersReconcile) {
  obs::SpanTracer::Config config;
  config.capacity = 1u << 15;
  obs::SpanTracer spans(config);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 2'000;

  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&spans, w] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>(w) * kPerThread + i;
        const auto root = spans.trace_root(key, "work", 0);
        const auto child = spans.begin(root, "step", 1);
        spans.end(child, 2);
        spans.end(root, 3);
      }
    });
  }
  for (auto& worker : workers) worker.join();

  EXPECT_EQ(spans.traces_started(), kThreads * kPerThread);
  EXPECT_EQ(spans.spans_recorded(), 2 * kThreads * kPerThread);
  EXPECT_EQ(spans.spans_open(), 0u);
}

// ------------------------------------------------- durable store spans

TEST(DurableStoreSpans, CommitGroupsAndCheckpointsNest) {
  const std::string dir =
      ::testing::TempDir() + "nxd_telemetry_spans_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  pdns::DurableStore::Config config;
  config.synchronous = true;
  config.delta_every_batches = 2;
  auto store = pdns::DurableStore::open(dir, config, nullptr);
  ASSERT_TRUE(store.has_value());

  obs::SpanTracer spans;
  store->trace_spans(&spans);
  for (int b = 0; b < 4; ++b) {
    std::vector<pdns::Observation> batch;
    for (int i = 0; i < 8; ++i) {
      pdns::Observation obs;
      obs.name = dns::DomainName::must("miss-" + std::to_string(b * 8 + i) +
                                       ".example.com");
      obs.rcode = dns::RCode::NXDomain;
      obs.when = b * 100 + i;
      batch.push_back(obs);
    }
    const auto frame = pdns::encode_batch_frame(batch);
    ASSERT_TRUE(store->wait_batch(store->submit_frame(frame)));
  }
  ASSERT_TRUE(store->checkpoint());
  store->trace_spans(nullptr);

  const auto finished = spans.finished();
  std::map<std::uint64_t, const SpanRecord*> by_id;
  std::uint64_t groups = 0, checkpoints = 0;
  for (const SpanRecord& s : finished) by_id[s.span_id] = &s;
  for (const SpanRecord& s : finished) {
    if (s.parent_id == 0) {
      if (s.name == "wal_group") ++groups;
      if (s.name == "checkpoint") ++checkpoints;
      continue;
    }
    const auto it = by_id.find(s.parent_id);
    ASSERT_NE(it, by_id.end()) << s.name;
    EXPECT_GE(s.start, it->second->start) << s.name;
    EXPECT_LE(s.end, it->second->end) << s.name;
  }
  EXPECT_EQ(groups, 4u);       // one commit group per synchronous batch
  EXPECT_GE(checkpoints, 1u);  // delta checkpoints plus the manual one
  // Each group carries the wal_append -> wal_fsync -> wal_apply ->
  // ckpt_handoff stage chain.
  std::uint64_t fsyncs = 0;
  for (const SpanRecord& s : finished) {
    if (s.name == "wal_fsync") ++fsyncs;
  }
  EXPECT_EQ(fsyncs, groups);
}

// ---------------------------------------------------------- honeypot spans

TEST(HoneypotSpans, ConnectionLifecycleIsOneRootSpan) {
  honeypot::TrafficRecorder recorder;
  honeypot::NxdHoneypot::Config config;
  config.domain = "spans-demo.com";
  honeypot::NxdHoneypot server(config, recorder);
  obs::SpanTracer spans;
  server.trace_spans(&spans);

  const net::Endpoint src{dns::IPv4::from_octets(198, 51, 100, 7), 41'000};
  const auto opened = server.conn_open(src, 100);
  ASSERT_TRUE(opened.accepted);
  const std::string request =
      "GET / HTTP/1.1\r\nHost: spans-demo.com\r\n\r\n";
  const std::vector<std::uint8_t> bytes(request.begin(), request.end());
  const auto response = server.conn_data(opened.id, bytes, 105);
  ASSERT_TRUE(response.has_value());

  // A second connection left idle long enough gets reaped with a reason.
  const auto idle = server.conn_open(src, 200);
  ASSERT_TRUE(idle.accepted);
  server.reap_expired(100'000);

  const auto finished = spans.finished();
  ASSERT_EQ(finished.size(), 2u);
  EXPECT_EQ(finished[0].name, "conn");
  EXPECT_EQ(finished[0].start, 100);
  EXPECT_EQ(finished[0].end, 105);
  EXPECT_EQ(finished[0].detail, "complete");
  EXPECT_EQ(finished[1].name, "conn");
  EXPECT_TRUE(finished[1].detail.rfind("expire_", 0) == 0 ||
              finished[1].detail == "drain_forced")
      << finished[1].detail;
}

}  // namespace
}  // namespace nxd
