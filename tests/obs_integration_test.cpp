// Cross-module observability tests: every instrumented layer bound to ONE
// shared MetricsRegistry (and, where spans matter, one SpanTracer), then
//   * the honeypot's admin-gated GET /metrics endpoint serves valid
//     Prometheus text spanning pdns/resolver/honeypot/net,
//   * the legacy stats structs (RecursiveStats, RrlStats, OverloadStats,
//     recorder totals, LoadSnapshot) agree exactly with the registry,
//   * a 10k-query run's span roots reconcile against the counters even after
//     the ring wrapped, and the span export is byte-deterministic under a
//     fixed seed,
//   * the offline snapshot-text path (`nxdtool metrics`) re-renders the same
//     exposition bytes as the live endpoint.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "honeypot/overload.hpp"
#include "honeypot/recorder.hpp"
#include "honeypot/server.hpp"
#include "net/fault.hpp"
#include "net/sim_network.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/span.hpp"
#include "pdns/observation.hpp"
#include "pdns/store.hpp"
#include "resolver/health.hpp"
#include "resolver/hierarchy.hpp"
#include "resolver/recursive.hpp"
#include "resolver/rrl.hpp"
#include "util/circuit_breaker.hpp"
#include "util/rng.hpp"

namespace nxd {
namespace {

net::SimPacket http_packet(const std::string& payload, std::uint8_t src_octet,
                           std::uint16_t src_port = 40'000) {
  net::SimPacket packet;
  packet.protocol = net::Protocol::TCP;
  packet.src = net::Endpoint{dns::IPv4::from_octets(198, 51, 100, src_octet),
                             src_port};
  packet.dst = net::Endpoint{dns::IPv4::from_octets(203, 0, 113, 1), 80};
  packet.payload.assign(payload.begin(), payload.end());
  return packet;
}

std::string body_of(const std::vector<std::uint8_t>& wire) {
  const std::string text(wire.begin(), wire.end());
  const auto split = text.find("\r\n\r\n");
  return split == std::string::npos ? "" : text.substr(split + 4);
}

std::string status_line(const std::vector<std::uint8_t>& wire) {
  const std::string text(wire.begin(), wire.end());
  return text.substr(0, text.find("\r\n"));
}

/// Drive every instrumented module against one registry.
struct ObservedWorld {
  obs::MetricsRegistry registry;
  std::unique_ptr<obs::SpanTracer> spans;  // set by trace_spans()

  resolver::DnsHierarchy hierarchy;
  net::SimNetwork network;
  std::unique_ptr<resolver::RecursiveResolver> resolver;
  resolver::ResponseRateLimiter rrl;
  pdns::PassiveDnsStore store;
  honeypot::TrafficRecorder recorder;
  std::unique_ptr<honeypot::NxdHoneypot> honeypot;

  explicit ObservedWorld(std::uint64_t seed)
      : // Near-zero refill so the limiter visibly trips even though the
        // workload advances simulated time between checks.
        rrl(resolver::RrlConfig{.responses_per_second = 0.001, .burst = 1.0}) {
    hierarchy.register_domain(dns::DomainName::must("example.com"),
                              dns::IPv4::from_octets(93, 184, 216, 34));
    net::FaultPlan plan(seed);
    net::FaultSpec spec;
    spec.drop = 0.05;
    spec.duplicate = 0.02;
    plan.set_default(spec);
    network.set_fault_plan(std::move(plan));
    hierarchy.attach(network);
    resolver = std::make_unique<resolver::RecursiveResolver>(hierarchy);
    resolver->use_network(network, {}, resolver::RetryPolicy{}, seed);
    resolver->set_observer([this](const dns::Message& q, const dns::Message& r,
                                  bool, util::SimTime when) {
      store.ingest(pdns::observe(q, r, when));
    });

    honeypot::NxdHoneypot::Config config;
    config.domain = "obs-demo.com";
    honeypot = std::make_unique<honeypot::NxdHoneypot>(config, recorder);
    honeypot::OverloadConfig guard;
    guard.max_connections = 4;
    // One-token buckets with a near-zero refill: repeat visitors shed 429
    // even though the workload advances simulated time between packets.
    guard.per_ip_rate = 0.001;
    guard.per_ip_burst = 1;
    honeypot->enable_overload(guard);

    resolver->bind_metrics(registry);
    network.bind_metrics(registry);
    rrl.bind_metrics(registry);
    store.bind_metrics(registry);
    recorder.bind_metrics(registry);
    honeypot->gate()->bind_metrics(registry);
  }

  /// Share one tracer, sampling every trace, across the resolver, the RRL
  /// and the honeypot's connection lifecycle.
  void trace_spans(std::size_t capacity) {
    spans = std::make_unique<obs::SpanTracer>(
        obs::SpanTracer::Config{.sample_rate = 1.0, .capacity = capacity});
    resolver->trace_spans(spans.get());
    rrl.trace_spans(spans.get());
    honeypot->trace_spans(spans.get());
  }

  /// A deterministic mixed workload touching every instrumented path.
  void run(std::size_t queries) {
    util::Rng rng(99);
    util::SimTime now = 0;
    std::uint16_t id = 1;
    for (std::size_t i = 0; i < queries; ++i, now += 2) {
      const dns::DomainName name =
          rng.chance(0.4)
              ? dns::DomainName::must("example.com")
              : dns::DomainName::must("ghost" + std::to_string(rng.bounded(64)) +
                                      ".com");
      const auto outcome =
          resolver->resolve(dns::make_query(id++, name, dns::RRType::A), now);
      now += outcome.elapsed;
      rrl.check(dns::IPv4::from_octets(192, 0, 2,
                                       static_cast<std::uint8_t>(i % 4)),
                now);
    }
    // Streaming connections, so admitted ones carry a "conn" span.
    const std::string request =
        "GET / HTTP/1.1\r\nHost: obs-demo.com\r\n\r\n";
    const std::span<const std::uint8_t> bytes(
        reinterpret_cast<const std::uint8_t*>(request.data()), request.size());
    for (std::size_t i = 0; i < 32; ++i) {
      const net::Endpoint src{
          dns::IPv4::from_octets(198, 51, 100, static_cast<std::uint8_t>(i % 3)),
          40'000};
      const auto open = honeypot->conn_open(src, now, 80);
      if (open.accepted) honeypot->conn_data(open.id, bytes, now);
      now += (i % 8 == 7) ? 5 : 0;
    }
  }
};

TEST(ObsIntegration, MetricsEndpointServesWholePipeline) {
  ObservedWorld world(7);
  world.run(400);
  world.honeypot->expose_metrics(&world.registry, "s3cret");
  const std::uint64_t records_before = world.recorder.total();

  const std::string scrape =
      "GET /metrics HTTP/1.1\r\nHost: obs-demo.com\r\nx-nxd-admin: s3cret\r\n\r\n";
  const auto reply = world.honeypot->handle_packet(http_packet(scrape, 9), 1000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(status_line(*reply), "HTTP/1.1 200 OK");
  // Admin scrapes never enter the capture corpus.
  EXPECT_EQ(world.recorder.total(), records_before);

  const std::string body = body_of(*reply);
  std::set<std::string> names;
  bool saw_pdns = false, saw_resolver = false, saw_honeypot = false,
       saw_net = false;
  std::size_t line_start = 0;
  while (line_start < body.size()) {
    auto line_end = body.find('\n', line_start);
    if (line_end == std::string::npos) line_end = body.size();
    const std::string_view line(body.data() + line_start,
                                line_end - line_start);
    line_start = line_end + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Comment lines must be HELP or TYPE.
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    // Sample lines are "name[{labels}] <integer>".
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string_view::npos) << line;
    const std::string_view value = line.substr(space + 1);
    EXPECT_FALSE(value.empty()) << line;
    for (char c : value) EXPECT_TRUE((c >= '0' && c <= '9') || c == '-') << line;
    std::string_view name = line.substr(0, space);
    if (const auto brace = name.find('{'); brace != std::string_view::npos) {
      name = name.substr(0, brace);
    }
    names.insert(std::string(name));
    saw_pdns = saw_pdns || name.rfind("nxd_pdns_", 0) == 0;
    saw_resolver = saw_resolver || name.rfind("nxd_resolver_", 0) == 0;
    saw_honeypot = saw_honeypot || name.rfind("nxd_honeypot_", 0) == 0;
    saw_net = saw_net || name.rfind("nxd_net_", 0) == 0;
  }
  EXPECT_GE(names.size(), 20u);
  EXPECT_TRUE(saw_pdns);
  EXPECT_TRUE(saw_resolver);
  EXPECT_TRUE(saw_honeypot);
  EXPECT_TRUE(saw_net);
}

TEST(ObsIntegration, MetricsEndpointIsAdminGated) {
  ObservedWorld world(7);
  world.honeypot->expose_metrics(&world.registry, "s3cret");

  // Wrong token: falls through to the ordinary path — recorded, 404.
  const std::string bad =
      "GET /metrics HTTP/1.1\r\nHost: obs-demo.com\r\nx-nxd-admin: nope\r\n\r\n";
  auto reply = world.honeypot->handle_packet(http_packet(bad, 1), 5);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(status_line(*reply), "HTTP/1.1 404 Not Found");
  EXPECT_EQ(world.recorder.total(), 1u);

  // Missing token: same.
  const std::string missing =
      "GET /metrics HTTP/1.1\r\nHost: obs-demo.com\r\n\r\n";
  reply = world.honeypot->handle_packet(http_packet(missing, 2), 6);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(status_line(*reply), "HTTP/1.1 404 Not Found");
  EXPECT_EQ(world.recorder.total(), 2u);
}

TEST(ObsIntegration, MetricsEndpointDefaultsOff) {
  ObservedWorld world(7);
  // No expose_metrics(): a /metrics probe is just another visitor request.
  const std::string scrape =
      "GET /metrics HTTP/1.1\r\nHost: obs-demo.com\r\nx-nxd-admin: s3cret\r\n\r\n";
  const auto reply = world.honeypot->handle_packet(http_packet(scrape, 1), 5);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(status_line(*reply), "HTTP/1.1 404 Not Found");
  EXPECT_EQ(world.recorder.total(), 1u);
}

TEST(ObsIntegration, LegacyStatsEqualRegistryCounters) {
  ObservedWorld world(11);
  world.run(600);
  const auto snapshot = world.registry.snapshot();
  const auto counter = [&snapshot](const std::string& name,
                                   const obs::LabelSet& labels =
                                       {}) -> std::uint64_t {
    const auto* s = snapshot.find(name, labels);
    return s != nullptr ? s->counter : 0;
  };

  const auto& rs = world.resolver->stats();
  EXPECT_EQ(rs.client_queries, counter("nxd_resolver_client_queries_total"));
  EXPECT_EQ(rs.cache_hits, counter("nxd_resolver_cache_hits_total"));
  EXPECT_EQ(rs.upstream_resolutions,
            counter("nxd_resolver_upstream_resolutions_total"));
  EXPECT_EQ(rs.nxdomain_responses,
            counter("nxd_resolver_nxdomain_responses_total"));
  EXPECT_EQ(rs.retries, counter("nxd_resolver_retries_total"));
  EXPECT_EQ(rs.timeouts, counter("nxd_resolver_timeouts_total"));
  EXPECT_EQ(rs.servfail_responses,
            counter("nxd_resolver_servfail_responses_total"));
  EXPECT_GT(rs.client_queries, 0u);

  const auto& rrl_stats = world.rrl.stats();
  EXPECT_EQ(rrl_stats.checked, counter("nxd_resolver_rrl_checked_total"));
  EXPECT_EQ(rrl_stats.passed, counter("nxd_resolver_rrl_passed_total"));
  EXPECT_EQ(rrl_stats.slipped, counter("nxd_resolver_rrl_slipped_total"));
  EXPECT_EQ(rrl_stats.dropped, counter("nxd_resolver_rrl_dropped_total"));
  EXPECT_GT(rrl_stats.limited(), 0u);

  EXPECT_EQ(world.store.total_observations(),
            counter("nxd_pdns_observations_total"));
  EXPECT_EQ(world.store.nx_responses(), counter("nxd_pdns_nx_responses_total"));
  EXPECT_EQ(world.store.distinct_nxdomains(),
            counter("nxd_pdns_distinct_nxdomains_total"));

  const auto gate_stats = world.honeypot->gate()->stats();
  EXPECT_EQ(gate_stats.opened, counter("nxd_honeypot_conns_opened_total"));
  EXPECT_EQ(gate_stats.accepted, counter("nxd_honeypot_conns_accepted_total"));
  EXPECT_EQ(gate_stats.completed,
            counter("nxd_honeypot_conns_completed_total"));
  EXPECT_EQ(gate_stats.shed_rate,
            counter("nxd_honeypot_conns_shed_total", {{"reason", "rate"}}));
  EXPECT_EQ(gate_stats.shed_capacity,
            counter("nxd_honeypot_conns_shed_total", {{"reason", "capacity"}}));
  EXPECT_GT(gate_stats.shed_total(), 0u);  // the workload trips the limiter

  EXPECT_EQ(world.recorder.total(), counter("nxd_honeypot_records_total"));
  EXPECT_EQ(world.recorder.shed_connections(),
            counter("nxd_honeypot_recorder_shed_connections_total"));

  const auto fault_stats = world.network.fault_stats();
  EXPECT_EQ(fault_stats.injected_drops,
            counter("nxd_net_faults_total", {{"kind", "drop"}}));
  EXPECT_EQ(fault_stats.injected_duplicates,
            counter("nxd_net_faults_total", {{"kind", "duplicate"}}));

  // The LoadSnapshot text path reports the same numbers the registry holds.
  honeypot::LoadSnapshot load;
  load.add_overload("honeypot", gate_stats);
  for (const auto& [name, value] : load.counters) {
    if (name == "honeypot.opened") {
      EXPECT_EQ(value, counter("nxd_honeypot_conns_opened_total"));
    }
    if (name == "honeypot.accepted") {
      EXPECT_EQ(value, counter("nxd_honeypot_conns_accepted_total"));
    }
  }
}

TEST(ObsIntegration, SpansReconcileWithCountersAfterWraparound) {
  ObservedWorld world(13);
  world.trace_spans(2048);
  world.run(10'000);  // far past the ring capacity

  // Every resolve, rrl and conn root is a trace start, so the tracer's
  // unbounded trace count reconciles exactly against the registry even
  // though the resident ring only holds the newest 2048 spans.
  const auto& rs = world.resolver->stats();
  const auto& rrl_stats = world.rrl.stats();
  const auto gate_stats = world.honeypot->gate()->stats();
  EXPECT_EQ(rs.client_queries, 10'000u);
  EXPECT_EQ(rrl_stats.checked, 10'000u);
  EXPECT_GT(gate_stats.accepted, 0u);
  EXPECT_GT(gate_stats.shed_total(), 0u);  // shed connections carry no span
  const obs::SpanTracer& spans = *world.spans;
  EXPECT_EQ(spans.traces_started(),
            rs.client_queries + rrl_stats.checked + gate_stats.accepted);
  EXPECT_EQ(spans.spans_open(), 0u);

  // Every span is accounted for: resident + dropped == recorded, and the
  // JSONL export carries exactly the resident spans.
  const auto finished = spans.finished();
  EXPECT_GT(spans.spans_dropped(), 0u);
  EXPECT_EQ(spans.spans_recorded(), finished.size() + spans.spans_dropped());
  const std::string jsonl = spans.to_jsonl();
  std::size_t lines = 0;
  for (char c : jsonl) lines += c == '\n';
  EXPECT_EQ(lines, finished.size());
}

TEST(ObsIntegration, DeterministicUnderFixedSeed) {
  const auto run_once = [] {
    ObservedWorld world(21);
    world.trace_spans(1024);
    world.run(2'000);
    return std::make_pair(world.spans->to_jsonl(),
                          obs::render_prometheus(world.registry));
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_FALSE(a.first.empty());
  EXPECT_EQ(a.first, b.first);    // identical span JSONL
  EXPECT_EQ(a.second, b.second);  // identical Prometheus text
}

TEST(ObsIntegration, HealthBreakerAndHedgeMetricsFlowToSharedRegistry) {
  // Two resolvers share one registry: the first exercises the breaker cycle
  // (open -> half-open probe -> re-close) against a dark-then-healed
  // primary, the second exercises hedging against a slow-dripping primary.
  // The shared counters must equal the sum of both resolvers' legacy stats,
  // and every consulted upstream must publish its SRTT gauge.
  obs::MetricsRegistry registry;
  resolver::DnsHierarchy hierarchy;
  const auto name = dns::DomainName::must("steady.com");
  hierarchy.register_domain(name, dns::IPv4::from_octets(203, 0, 113, 9));

  net::SimNetwork network;
  network.set_fault_plan(net::FaultPlan(21));
  const auto farm = resolver::HierarchyEndpoints::with_replicas(3);
  hierarchy.attach(network, farm);

  resolver::HealthConfig breaker_only;
  breaker_only.breaker.failure_threshold = 2;
  breaker_only.breaker.open_duration = 8;
  breaker_only.hedge_min_samples = 1'000'000;  // never arms hedging
  resolver::RecursiveResolver breaker_rig(hierarchy);
  breaker_rig.use_network(network, farm, resolver::RetryPolicy{}, 21);
  breaker_rig.bind_metrics(registry);
  breaker_rig.enable_health(breaker_only);

  net::FaultSpec dark;
  dark.drop = 1.0;
  network.fault_plan().set_for(farm.auth, dark);
  for (int i = 0; i < 2; ++i) {
    // Replicas keep the tier answering while the primary's breaker opens.
    EXPECT_EQ(breaker_rig.resolve_rcode(name, i * 20), dns::RCode::NoError);
    breaker_rig.flush_cache();
  }
  network.fault_plan().set_for(farm.auth, net::FaultSpec{});
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(breaker_rig.resolve_rcode(name, 200 + i * 20),
              dns::RCode::NoError);
    breaker_rig.flush_cache();
  }
  EXPECT_EQ(breaker_rig.health()->breaker_state(farm.auth),
            util::BreakerState::Closed);
  // The breaker rig never arms hedging (asserted before the second resolver
  // joins the registry — bound stats read the shared series).
  EXPECT_EQ(breaker_rig.stats().hedged_queries, 0u);

  resolver::HealthConfig hedging;
  hedging.breaker.failure_threshold = 2;
  hedging.breaker.open_duration = 8;
  hedging.hedge_min_samples = 2;
  resolver::RecursiveResolver hedge_rig(hierarchy);
  hedge_rig.use_network(network, farm, resolver::RetryPolicy{}, 22);
  hedge_rig.bind_metrics(registry);
  hedge_rig.enable_health(hedging);

  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(hedge_rig.resolve_rcode(name, 400 + i * 10), dns::RCode::NoError);
    hedge_rig.flush_cache();
  }
  net::FaultSpec drip;
  drip.delay = 1.0;
  drip.delay_min = 5;
  drip.delay_max = 5;
  network.fault_plan().set_for(farm.auth, drip);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(hedge_rig.resolve_rcode(name, 500 + i * 10), dns::RCode::NoError);
    hedge_rig.flush_cache();
  }

  // Both resolvers are bound to the one registry, so their stats structs
  // read the same shared series: either handle reports the global totals.
  const auto& rs = hedge_rig.stats();
  EXPECT_GE(rs.hedged_queries, 1u);
  EXPECT_GE(rs.hedge_wins, 1u);
  const auto hs = hedge_rig.health()->stats();
  EXPECT_GE(hs.breaker_opened, 1u);
  EXPECT_GE(hs.breaker_half_opened, 1u);
  EXPECT_GE(hs.breaker_reclosed, 1u);
  EXPECT_GE(hs.breaker_probes, 1u);
  EXPECT_EQ(breaker_rig.health()->stats().breaker_opened, hs.breaker_opened);

  const auto snapshot = registry.snapshot();
  const auto value = [&snapshot](const std::string& metric,
                                 const obs::LabelSet& labels =
                                     {}) -> std::uint64_t {
    const auto* series = snapshot.find(metric, labels);
    return series == nullptr ? 0 : series->counter;
  };
  EXPECT_EQ(value("nxd_resolver_breaker_transitions_total", {{"to", "open"}}),
            hs.breaker_opened);
  EXPECT_EQ(
      value("nxd_resolver_breaker_transitions_total", {{"to", "half_open"}}),
      hs.breaker_half_opened);
  EXPECT_EQ(value("nxd_resolver_breaker_transitions_total", {{"to", "closed"}}),
            hs.breaker_reclosed);
  EXPECT_EQ(value("nxd_resolver_breaker_rejections_total"),
            hs.breaker_rejections);
  EXPECT_EQ(value("nxd_resolver_breaker_probes_total"), hs.breaker_probes);
  EXPECT_EQ(value("nxd_resolver_health_successes_total"), hs.successes);
  EXPECT_EQ(value("nxd_resolver_health_failures_total"), hs.failures);
  EXPECT_EQ(value("nxd_resolver_hedged_queries_total"), rs.hedged_queries);
  EXPECT_EQ(value("nxd_resolver_hedge_wins_total"), rs.hedge_wins);
  EXPECT_EQ(value("nxd_resolver_hedge_losses_total"), rs.hedge_losses);
  EXPECT_EQ(value("nxd_resolver_breaker_skips_total"), rs.breaker_skips);

  // Every consulted upstream publishes its smoothed-RTT gauge, labelled by
  // server endpoint (the second replica was never needed, so it has none —
  // sub-second wire RTTs legitimately round the estimate down to 0us).
  for (const auto& server : {farm.auth, farm.auth_replicas[0]}) {
    const auto* series = snapshot.find("nxd_resolver_upstream_srtt_us",
                                       {{"server", server.to_string()}});
    ASSERT_NE(series, nullptr) << server.to_string();
    EXPECT_EQ(series->type, obs::MetricType::Gauge);
    EXPECT_GE(series->gauge, 0);
  }
  EXPECT_EQ(snapshot.find("nxd_resolver_upstream_srtt_us",
                          {{"server", farm.auth_replicas[1].to_string()}}),
            nullptr);
}

TEST(ObsIntegration, OfflineSnapshotRendersSameExposition) {
  ObservedWorld world(5);
  world.run(300);
  // The `nxdtool metrics` path: snapshot -> text -> parse -> render must be
  // byte-identical to rendering the live registry.
  const std::string text = world.registry.snapshot().to_text();
  obs::MetricsSnapshot reparsed;
  std::string error;
  ASSERT_TRUE(obs::MetricsSnapshot::parse(text, &reparsed, &error)) << error;
  EXPECT_EQ(obs::render_prometheus(reparsed),
            obs::render_prometheus(world.registry));
}

}  // namespace
}  // namespace nxd
