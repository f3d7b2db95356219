// Cross-module observability tests: every instrumented layer bound to ONE
// shared MetricsRegistry (and, where spans matter, one SpanTracer), then
//   * the shared registry renders valid Prometheus text spanning
//     pdns/resolver/honeypot/net, and a /metrics probe at the honeypot is
//     ordinary visitor traffic,
//   * the legacy stats structs (RecursiveStats, RrlStats, OverloadStats,
//     recorder totals) agree exactly with the registry,
//   * binding mid-run carries every component's private counts, gauges and
//     histograms into the shared registry — also across durable recovery
//     and checkpoint hand-offs, for tracers sharing a registry, and for
//     fault plans swapped before and after the bind,
//   * a 10k-query run's span roots reconcile against the counters even after
//     the ring wrapped, and the span export is byte-deterministic under a
//     fixed seed,
//   * the offline snapshot-text path (`nxdtool metrics`) re-renders the same
//     exposition bytes as the live registry.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
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
#include "net/event_loop.hpp"
#include "net/fault.hpp"
#include "net/sim_network.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/pressure.hpp"
#include "obs/prometheus.hpp"
#include "obs/span.hpp"
#include "pdns/durable_store.hpp"
#include "pdns/observation.hpp"
#include "pdns/sharded_store.hpp"
#include "pdns/sie_channel.hpp"
#include "pdns/store.hpp"
#include "resolver/health.hpp"
#include "resolver/hierarchy.hpp"
#include "resolver/recursive.hpp"
#include "resolver/rrl.hpp"
#include "resolver/tcp_server.hpp"
#include "resolver/udp_server.hpp"
#include "util/circuit_breaker.hpp"
#include "util/rng.hpp"
#include "util/worker_pool.hpp"

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

std::string status_line(const std::vector<std::uint8_t>& wire) {
  const std::string text(wire.begin(), wire.end());
  return text.substr(0, text.find("\r\n"));
}

/// Drive every instrumented module against one registry.  With `bind`
/// false the modules count privately until bind_all().
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
  obs::PressureSignal pressure;
  resolver::AuthoritativeServer auth;
  std::unique_ptr<resolver::UdpDnsServer> udp;
  std::unique_ptr<resolver::TcpDnsServer> tcp;
  net::EventLoop loop;
  util::SimClock dns_clock;

  // Workload cursor: consecutive run() calls continue one workload.
  util::Rng rng{99};
  util::SimTime now = 0;
  std::uint16_t next_id = 1;

  explicit ObservedWorld(std::uint64_t seed, bool bind = true)
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
    // Inert until a test feeds the signal: level 0 changes no verdict.
    rrl.set_pressure(&pressure);
    honeypot->gate()->set_pressure(&pressure);

    const net::Endpoint loopback{dns::IPv4::from_octets(127, 0, 0, 1), 0};
    udp = resolver::UdpDnsServer::create(loopback, auth);
    tcp = resolver::TcpDnsServer::create(loopback, auth);
    udp->set_rrl(&rrl, &dns_clock);
    tcp->set_rrl(&rrl, &dns_clock);
    tcp->attach(loop);

    if (bind) bind_all();
  }

  void bind_all() {
    resolver->bind_metrics(registry);
    network.bind_metrics(registry);
    rrl.bind_metrics(registry);
    store.bind_metrics(registry);
    recorder.bind_metrics(registry);
    honeypot->gate()->bind_metrics(registry);
    pressure.bind_metrics(registry);
    udp->bind_metrics(registry);
    tcp->bind_metrics(registry);
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
    for (std::size_t i = 0; i < queries; ++i, now += 2) {
      const dns::DomainName name =
          rng.chance(0.4)
              ? dns::DomainName::must("example.com")
              : dns::DomainName::must("ghost" + std::to_string(rng.bounded(64)) +
                                      ".com");
      const auto outcome =
          resolver->resolve(dns::make_query(next_id++, name, dns::RRType::A),
                            now);
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

  /// Loopback DNS through both front ends, metered by the shared RRL at the
  /// workload's current time: per round one UDP query, one junk datagram
  /// and one TCP query, all from 127.0.0.1.
  void serve_dns(int rounds) {
    dns_clock.set(now);
    auto client = net::UdpSocket::bind(
        net::Endpoint{dns::IPv4::from_octets(127, 0, 0, 1), 0});
    ASSERT_TRUE(client.has_value());
    const std::vector<std::uint8_t> junk{0xde, 0xad};
    for (int i = 0; i < rounds; ++i) {
      const auto wire = dns::encode(dns::make_query(
          next_id++, dns::DomainName::must("example.com"), dns::RRType::A));
      ASSERT_TRUE(client->send_to(udp->local(), wire));
      ASSERT_TRUE(client->send_to(udp->local(), junk));
      udp->pump();
      auto stream = net::TcpStream::connect(tcp->local());
      ASSERT_TRUE(stream.has_value());
      std::vector<std::uint8_t> framed{
          static_cast<std::uint8_t>(wire.size() >> 8),
          static_cast<std::uint8_t>(wire.size())};
      framed.insert(framed.end(), wire.begin(), wire.end());
      ASSERT_GT(stream->write(framed), 0);
      loop.poll_once(std::chrono::milliseconds(1'000));
    }
  }
};

TEST(ObsIntegration, ExpositionSpansWholePipeline) {
  ObservedWorld world(7);
  world.run(400);

  const std::string body = obs::render_prometheus(world.registry);
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

TEST(ObsIntegration, MetricsProbeIsVisitorTraffic) {
  ObservedWorld world(7);
  // The honeypot serves no operator endpoint: a /metrics probe, token or
  // not, is recorded and answered like any other visitor request.
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
}

TEST(ObsIntegration, MidRunBindCarriesEveryComponent) {
  // The same workload twice: once bound from construction, once counting
  // privately until a bind halfway through.  Each half runs every path,
  // including the health model, the pressure ladder and both DNS front ends.
  const auto drive = [](ObservedWorld& world, bool bind_midway) {
    world.resolver->enable_health();
    world.run(300);
    world.serve_dns(3);
    world.pressure.update({.wal_lag_batches = 64}, world.now);
    if (bind_midway) world.bind_all();
    world.run(300);
    world.serve_dns(3);
    world.pressure.update({}, world.now);
  };
  ObservedWorld early(17);
  drive(early, false);
  ObservedWorld late(17, /*bind=*/false);
  drive(late, true);

  // Counters, gauges and histograms all match the bound-from-start run.
  const auto snapshot = late.registry.snapshot();
  EXPECT_EQ(snapshot.to_text(), early.registry.snapshot().to_text());
  for (const char* name : {"nxd_resolver_upstream_latency_seconds",
                           "nxd_honeypot_payload_bytes"}) {
    const auto* series = snapshot.find(name);
    ASSERT_NE(series, nullptr) << name;
    EXPECT_GT(series->hist_count, 0u) << name;
    EXPECT_EQ(series->hist_count,
              early.registry.snapshot().find(name)->hist_count)
        << name;
  }

  // Every accessor reads the registry, and the registry holds both halves.
  const auto counter = [&snapshot](const std::string& name,
                                   const obs::LabelSet& labels =
                                       {}) -> std::uint64_t {
    const auto* s = snapshot.find(name, labels);
    return s != nullptr ? s->counter : 0;
  };
  const auto& rs = late.resolver->stats();
  EXPECT_EQ(rs.client_queries, 600u);
  EXPECT_EQ(rs.client_queries, counter("nxd_resolver_client_queries_total"));
  EXPECT_EQ(rs.upstream_sends, counter("nxd_resolver_upstream_sends_total"));
  EXPECT_EQ(rs.upstream_sends, early.resolver->stats().upstream_sends);
  const auto hs = late.resolver->health()->stats();
  EXPECT_GT(hs.successes, 0u);
  EXPECT_EQ(hs.successes, counter("nxd_resolver_health_successes_total"));
  EXPECT_EQ(hs.failures, counter("nxd_resolver_health_failures_total"));
  EXPECT_EQ(hs.successes, early.resolver->health()->stats().successes);
  const auto& rrl_stats = late.rrl.stats();
  EXPECT_EQ(rrl_stats.checked, counter("nxd_resolver_rrl_checked_total"));
  EXPECT_EQ(rrl_stats.pressure_scaled,
            counter("nxd_resolver_rrl_pressure_scaled_total"));
  EXPECT_GT(rrl_stats.pressure_scaled, 0u);
  EXPECT_EQ(rrl_stats.checked, early.rrl.stats().checked);
  const auto gate_stats = late.honeypot->gate()->stats();
  EXPECT_EQ(gate_stats.opened, counter("nxd_honeypot_conns_opened_total"));
  EXPECT_EQ(gate_stats, early.honeypot->gate()->stats());
  const auto ps = late.pressure.stats();
  EXPECT_EQ(ps.raised, 2u);
  EXPECT_EQ(ps.raised, counter("nxd_pressure_raised_total"));
  EXPECT_EQ(ps.lowered, counter("nxd_pressure_lowered_total"));
  EXPECT_EQ(ps.updates, counter("nxd_pressure_updates_total"));
  EXPECT_EQ(late.recorder.total(), counter("nxd_honeypot_records_total"));
  EXPECT_EQ(late.recorder.shed_connections(),
            counter("nxd_honeypot_recorder_shed_connections_total"));
  EXPECT_EQ(late.recorder.shed_connections(), early.recorder.shed_connections());
  EXPECT_EQ(late.network.delivered(),
            counter("nxd_net_packets_delivered_total"));
  EXPECT_EQ(late.network.delivered(), early.network.delivered());
  EXPECT_EQ(late.network.dropped(), counter("nxd_net_packets_dropped_total"));
  const obs::LabelSet udp{{"proto", "udp"}};
  EXPECT_EQ(late.udp->answered(), counter("nxd_dns_server_answered_total", udp));
  EXPECT_EQ(late.udp->malformed(), 6u);
  EXPECT_EQ(late.udp->malformed(),
            counter("nxd_dns_server_malformed_total", udp));
  EXPECT_EQ(late.udp->rrl_slipped() + late.udp->rrl_dropped(),
            counter("nxd_dns_server_rrl_slipped_total", udp) +
                counter("nxd_dns_server_rrl_dropped_total", udp));
  EXPECT_EQ(late.udp->answered(), early.udp->answered());
  const obs::LabelSet tcp{{"proto", "tcp"}};
  EXPECT_EQ(late.tcp->answered() + late.tcp->rrl_dropped(), 6u);
  EXPECT_EQ(late.tcp->answered(), counter("nxd_dns_server_answered_total", tcp));
  EXPECT_EQ(late.tcp->rrl_dropped(),
            counter("nxd_dns_server_rrl_dropped_total", tcp));
}

// ---- late binds on the components that own threads, shards or plans -------

std::uint64_t counter_in(const obs::MetricsSnapshot& snapshot,
                         const std::string& name,
                         const obs::LabelSet& labels = {}) {
  const auto* s = snapshot.find(name, labels);
  return s != nullptr ? s->counter : 0;
}

/// Deterministic SIE batch frames of 40 observations each over 64 registered
/// domains: mostly NXDomain, some NoError and SERVFAIL.
std::vector<std::vector<std::uint8_t>> observation_frames(std::size_t count) {
  util::Rng rng(5);
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t f = 0; f < count; ++f) {
    std::vector<pdns::Observation> batch(40);
    for (auto& obs : batch) {
      obs.name = dns::DomainName::must("host" + std::to_string(rng.bounded(64)) +
                                       (rng.chance(0.5) ? ".com" : ".net"));
      const auto roll = rng.bounded(10);
      obs.rcode = roll < 7   ? dns::RCode::NXDomain
                  : roll < 9 ? dns::RCode::NoError
                             : dns::RCode::ServFail;
      obs.when = static_cast<util::SimTime>(f) * util::kSecondsPerDay;
    }
    frames.push_back(pdns::encode_batch_frame(batch));
  }
  return frames;
}

std::uint64_t shard_observations(const obs::MetricsSnapshot& snapshot,
                                 std::size_t shards) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < shards; ++i) {
    total += counter_in(snapshot, "nxd_pdns_observations_total",
                        {{"shard", std::to_string(i)}});
  }
  return total;
}

TEST(ObsIntegration, MidRunBindCarriesDurableStoreAcrossHandOffs) {
  // A prior run leaves 4 acked batches in the WAL only; the store under
  // test replays them on open, then hands its tail shards to a checkpoint
  // every 3 batches (compacting every second round), binding either at
  // open or after 10 more acked batches.
  const auto frames = observation_frames(20);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    const auto run = [&](bool bind_midway) {
      // The pid keeps the sanitizer duplicate, run alongside, apart.
      const std::string dir = ::testing::TempDir() + "nxd_obs_midrun_" +
                              std::to_string(::getpid()) + "_" +
                              std::to_string(shards) +
                              (bind_midway ? "_late" : "_early");
      std::filesystem::remove_all(dir);
      pdns::DurableStore::Config config;
      config.shard_count = shards;
      config.synchronous = true;  // groups of one, inline checkpoints
      {
        auto prior = pdns::DurableStore::open(dir, config);
        EXPECT_TRUE(prior.has_value());
        for (std::size_t i = 0; i < 4; ++i) {
          EXPECT_TRUE(prior->wait_batch(prior->submit_frame(frames[i])));
        }
      }
      config.delta_every_batches = 3;
      config.compact_every_deltas = 2;
      obs::MetricsRegistry registry;
      auto store = pdns::DurableStore::open(dir, config);
      EXPECT_TRUE(store.has_value());
      EXPECT_EQ(store->recovery().replayed_batches, 4u);
      if (!bind_midway) store->bind_metrics(registry);
      for (std::size_t i = 4; i < 14; ++i) {
        EXPECT_TRUE(store->wait_batch(store->submit_frame(frames[i])));
      }
      EXPECT_GE(store->checkpoints_taken(), 2u);  // hand-offs before the bind
      if (bind_midway) store->bind_metrics(registry);
      EXPECT_EQ(counter_in(registry.snapshot(), "nxd_pdns_wal_groups_total"),
                store->stage_stats().groups);
      for (std::size_t i = 14; i < frames.size(); ++i) {
        EXPECT_TRUE(store->wait_batch(store->submit_frame(frames[i])));
      }
      EXPECT_TRUE(store->checkpoint());

      const auto snapshot = registry.snapshot();
      const auto stats = store->stage_stats();
      EXPECT_EQ(counter_in(snapshot, "nxd_pdns_wal_batches_total"),
                store->committed_batches());
      EXPECT_EQ(counter_in(snapshot, "nxd_pdns_wal_groups_total"), stats.groups);
      EXPECT_EQ(counter_in(snapshot, "nxd_pdns_delta_checkpoints_total"),
                stats.deltas_written);
      EXPECT_EQ(counter_in(snapshot, "nxd_pdns_compactions_total"),
                stats.compactions);
      EXPECT_EQ(counter_in(snapshot, "nxd_pdns_checkpoints_total"),
                store->checkpoints_taken());
      const auto* group_sizes = snapshot.find("nxd_pdns_wal_group_batches");
      EXPECT_TRUE(group_sizes != nullptr &&
                  group_sizes->hist_count == stats.groups);
      // Nothing came from a snapshot, so the shard series cover every
      // observation the store holds: the replay and every handed-off tail.
      EXPECT_EQ(shard_observations(snapshot, shards),
                store->materialize().total_observations());
      std::filesystem::remove_all(dir);
      return snapshot.to_text();
    };
    const std::string early = run(false);
    EXPECT_EQ(run(true), early) << "shards=" << shards;
  }
}

TEST(ObsIntegration, MidRunBindCarriesShardedStoreAcrossHandOffs) {
  const auto frames = observation_frames(12);
  const auto run = [&](bool bind_midway) {
    obs::MetricsRegistry registry;
    pdns::ShardedStore store(4);
    util::WorkerPool pool(4);
    if (!bind_midway) store.bind_metrics(registry);
    std::uint64_t observations = 0;
    const auto ingest = [&](std::size_t from, std::size_t to) {
      const std::vector<std::span<const std::uint8_t>> batch(
          frames.begin() + static_cast<std::ptrdiff_t>(from),
          frames.begin() + static_cast<std::ptrdiff_t>(to));
      observations += store.ingest_frames(batch, pool).observations;
    };
    ingest(0, 4);
    store.take_shards();  // a checkpoint hand-off before the bind
    ingest(4, 6);
    if (bind_midway) store.bind_metrics(registry);
    ingest(6, 9);
    store.take_shards();  // and one after it
    ingest(9, 12);
    const auto snapshot = registry.snapshot();
    EXPECT_EQ(shard_observations(snapshot, 4), observations);
    EXPECT_EQ(counter_in(snapshot, "nxd_pdns_ingest_frames_total"), 12u);
    return snapshot.to_text();
  };
  const std::string early = run(false);
  EXPECT_EQ(run(true), early);
}

TEST(ObsIntegration, MidRunBindCarriesTwoTracersOnOneRegistry) {
  const auto run = [](bool bind_midway) {
    obs::MetricsRegistry registry;
    // Four ring slots and an over-long detail, so drops and truncations
    // are counted too.
    const obs::SpanTracer::Config config{.sample_rate = 1.0, .capacity = 4};
    obs::SpanTracer a(config);
    obs::SpanTracer b(config);
    if (!bind_midway) {
      a.bind_metrics(registry);
      b.bind_metrics(registry);
    }
    const std::string detail(obs::kDetailCap + 1, 'x');
    const auto trace = [&detail](obs::SpanTracer& tracer, std::uint64_t key) {
      const obs::SpanId root = tracer.trace_root(key, "work", 0, detail);
      tracer.end(tracer.begin(root, "step", 1), 2);
      tracer.end(root, 3);
    };
    for (std::uint64_t k = 0; k < 5; ++k) trace(a, k);
    for (std::uint64_t k = 0; k < 10; ++k) trace(b, 100 + k);
    if (bind_midway) {
      a.bind_metrics(registry);
      b.bind_metrics(registry);
    }
    const auto bound = registry.snapshot();
    EXPECT_EQ(counter_in(bound, "nxd_obs_traces_started_total"), 15u);
    for (std::uint64_t k = 0; k < 3; ++k) trace(a, 200 + k);
    const auto snapshot = registry.snapshot();
    EXPECT_EQ(counter_in(snapshot, "nxd_obs_traces_started_total"),
              a.traces_started() + b.traces_started());
    EXPECT_EQ(counter_in(snapshot, "nxd_obs_spans_recorded_total"),
              a.spans_recorded() + b.spans_recorded());
    EXPECT_EQ(counter_in(snapshot, "nxd_obs_spans_dropped_total"),
              a.spans_dropped() + b.spans_dropped());
    EXPECT_EQ(counter_in(snapshot, "nxd_obs_span_details_truncated_total"),
              a.details_truncated() + b.details_truncated());
    return snapshot.to_text();
  };
  const std::string early = run(false);
  EXPECT_EQ(run(true), early);
}

TEST(ObsIntegration, MidRunBindCarriesFaultsAcrossPlanSwaps) {
  const auto run = [](bool bind_midway) {
    obs::MetricsRegistry registry;
    net::SimNetwork network;
    util::SimClock clock;
    network.set_clock(&clock);
    const net::Endpoint server{dns::IPv4::from_octets(192, 0, 2, 53), 53};
    network.attach(server, net::Protocol::UDP,
                   [](const net::SimPacket& p) { return p.payload; });
    if (!bind_midway) network.bind_metrics(registry);

    const auto plan = [&server](std::uint64_t seed, double rate) {
      net::FaultPlan p(seed);
      net::FaultSpec spec;
      spec.drop = rate;
      spec.duplicate = rate;
      spec.corrupt = rate;
      spec.truncate = rate;
      spec.delay = rate;
      p.set_default(spec);
      p.add_outage(server, 10, 20);
      return p;
    };
    net::FaultStats total;  // summed over every plan the network ran
    const auto add = [&total](const net::FaultStats& s) {
      total.injected_drops += s.injected_drops;
      total.injected_duplicates += s.injected_duplicates;
      total.injected_corruptions += s.injected_corruptions;
      total.injected_truncations += s.injected_truncations;
      total.injected_delays += s.injected_delays;
      total.outage_drops += s.outage_drops;
      total.total_delay += s.total_delay;
    };
    const auto send = [&](int packets) {
      clock.set(0);
      for (int i = 0; i < packets; ++i, clock.advance(1)) {
        net::SimPacket packet;
        packet.src = net::Endpoint{dns::IPv4::from_octets(198, 51, 100, 7), 5353};
        packet.dst = server;
        packet.payload = {1, 2, 3, 4, 5, 6, 7, 8};
        network.send(packet);
      }
    };
    network.set_fault_plan(plan(1, 0.2));
    send(100);
    add(network.fault_stats());
    network.set_fault_plan(plan(2, 0.1));  // swapped before the bind
    send(100);
    if (bind_midway) network.bind_metrics(registry);
    send(50);
    add(network.fault_stats());
    network.set_fault_plan(plan(3, 0.3));  // and after it
    send(100);
    add(network.fault_stats());

    const auto snapshot = registry.snapshot();
    const auto kind = [&snapshot](const char* k) {
      return counter_in(snapshot, "nxd_net_faults_total", {{"kind", k}});
    };
    EXPECT_EQ(kind("drop"), total.injected_drops);
    EXPECT_EQ(kind("duplicate"), total.injected_duplicates);
    EXPECT_EQ(kind("corrupt"), total.injected_corruptions);
    EXPECT_EQ(kind("truncate"), total.injected_truncations);
    EXPECT_EQ(kind("delay"), total.injected_delays);
    EXPECT_EQ(kind("outage"), total.outage_drops);
    EXPECT_EQ(counter_in(snapshot, "nxd_net_fault_delay_seconds_total"),
              static_cast<std::uint64_t>(total.total_delay));
    EXPECT_GT(total.outage_drops, 0u);
    EXPECT_EQ(network.delivered(),
              counter_in(snapshot, "nxd_net_packets_delivered_total"));
    return snapshot.to_text();
  };
  const std::string early = run(false);
  EXPECT_EQ(run(true), early);
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
