// Adaptive upstream health suite: circuit breakers, SRTT-driven server
// selection, hedged queries, and the system-wide degradation ladder.
//
// The properties pinned here are the robustness contract of DESIGN.md §4j:
//   - a breaker turns a dead upstream into cheap bounded rejection, probes
//     it once per (backed-off) cooldown, and re-closes on recovery;
//   - health-ranked selection steers the resolver around flapping, dark,
//     and slow replicas while the tier as a whole keeps answering;
//   - upstream failure degrades to SERVFAIL, never to a spurious NXDomain —
//     under scripted chaos and under seeded random fault plans alike;
//   - every health/breaker/hedge counter reconciles exactly against the
//     bound obs registry, so dashboards can be trusted during incidents;
//   - ingest pressure (WAL lag, checkpoint debt) tightens the serving edges
//     proportionally and releases with hysteresis.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "honeypot/overload.hpp"
#include "net/fault.hpp"
#include "net/sim_network.hpp"
#include "obs/metrics.hpp"
#include "obs/pressure.hpp"
#include "pdns/durable_store.hpp"
#include "pdns/sie_channel.hpp"
#include "resolver/health.hpp"
#include "resolver/hierarchy.hpp"
#include "resolver/recursive.hpp"
#include "resolver/rrl.hpp"
#include "util/circuit_breaker.hpp"
#include "util/rng.hpp"

namespace nxd {
namespace {

using net::Endpoint;
using net::FaultPlan;
using net::FaultSpec;
using util::BreakerState;
using util::CircuitBreaker;
using util::CircuitBreakerConfig;

// ---------------------------------------------------------------- breaker

CircuitBreakerConfig small_breaker() {
  CircuitBreakerConfig config;
  config.failure_threshold = 3;
  config.open_duration = 10;
  config.open_backoff = 2.0;
  config.max_open_duration = 40;
  config.half_open_successes = 1;
  return config;
}

TEST(CircuitBreaker, OpensAfterThresholdConsecutiveFailures) {
  CircuitBreaker breaker(small_breaker());
  EXPECT_TRUE(breaker.allow(0));
  breaker.on_failure(1);
  breaker.on_failure(2);
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
  breaker.on_failure(3);
  EXPECT_EQ(breaker.state(), BreakerState::Open);
  EXPECT_EQ(breaker.open_until(), 13);  // opened at 3 + open_duration 10
  EXPECT_FALSE(breaker.allow(4));
  EXPECT_EQ(breaker.stats().opened, 1u);
  EXPECT_EQ(breaker.stats().rejected, 1u);
}

TEST(CircuitBreaker, SuccessResetsTheFailureStreak) {
  CircuitBreaker breaker(small_breaker());
  breaker.on_failure(1);
  breaker.on_failure(2);
  breaker.on_success(3);
  EXPECT_EQ(breaker.consecutive_failures(), 0);
  breaker.on_failure(4);
  breaker.on_failure(5);
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
}

TEST(CircuitBreaker, HalfOpenGrantsExactlyOneProbePerCooldown) {
  CircuitBreaker breaker(small_breaker());
  for (int i = 0; i < 3; ++i) breaker.on_failure(i);
  ASSERT_EQ(breaker.state(), BreakerState::Open);
  EXPECT_FALSE(breaker.allow(5));  // cooldown still running
  EXPECT_FALSE(breaker.probe_ready(5));
  EXPECT_TRUE(breaker.probe_ready(12));
  EXPECT_TRUE(breaker.allow(12));  // the probe slot
  EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
  EXPECT_FALSE(breaker.allow(12));  // probe in flight: everyone else waits
  EXPECT_EQ(breaker.stats().probes, 1u);
  EXPECT_EQ(breaker.stats().half_opened, 1u);
  EXPECT_EQ(breaker.stats().rejected, 2u);
}

TEST(CircuitBreaker, ProbeSuccessRecloses) {
  CircuitBreaker breaker(small_breaker());
  for (int i = 0; i < 3; ++i) breaker.on_failure(i);
  ASSERT_TRUE(breaker.allow(12));
  breaker.on_success(13);
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
  EXPECT_EQ(breaker.stats().reclosed, 1u);
  EXPECT_TRUE(breaker.allow(14));
}

TEST(CircuitBreaker, ProbeFailureReopensWithExponentialBackoff) {
  CircuitBreaker breaker(small_breaker());
  for (int i = 0; i < 3; ++i) breaker.on_failure(i);
  EXPECT_EQ(breaker.open_until(), 12);  // opened at 2 + first cooldown 10
  ASSERT_TRUE(breaker.allow(13));
  breaker.on_failure(14);  // probe failed
  EXPECT_EQ(breaker.state(), BreakerState::Open);
  EXPECT_EQ(breaker.open_until(), 34);  // second cooldown: 20
  ASSERT_TRUE(breaker.allow(34));
  breaker.on_failure(35);
  EXPECT_EQ(breaker.open_until(), 75);  // third cooldown: 40 (the cap)
  ASSERT_TRUE(breaker.allow(75));
  breaker.on_failure(76);
  EXPECT_EQ(breaker.open_until(), 116);  // capped at max_open_duration
}

TEST(CircuitBreaker, HugeReopenStreaksStayFiniteAndCapped) {
  CircuitBreakerConfig config = small_breaker();
  config.open_backoff = 10.0;  // would overflow double at exponent ~308
  CircuitBreaker breaker(config);
  for (int i = 0; i < 3; ++i) breaker.on_failure(i);
  util::SimTime now = 100;
  for (int round = 0; round < 500; ++round) {
    now = breaker.open_until();
    ASSERT_TRUE(breaker.allow(now)) << "round " << round;
    breaker.on_failure(now);
    ASSERT_EQ(breaker.state(), BreakerState::Open);
    ASSERT_GT(breaker.open_until(), now) << "round " << round;
    ASSERT_LE(breaker.open_until() - now, config.max_open_duration)
        << "round " << round;
  }
}

// ----------------------------------------------------------- health model

const Endpoint kA{dns::IPv4::from_octets(192, 0, 2, 53), 53};
const Endpoint kB{dns::IPv4::from_octets(192, 0, 2, 54), 53};
const Endpoint kC{dns::IPv4::from_octets(192, 0, 2, 55), 53};

TEST(HealthModel, FirstSampleSeedsSrttAndVariancePerRfc6298) {
  resolver::HealthModel model;
  model.on_success(kA, 4, 0);
  auto snap = model.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_DOUBLE_EQ(snap[0].srtt_us, 4e6);
  EXPECT_DOUBLE_EQ(snap[0].rttvar_us, 2e6);
  // Second sample: rttvar updates against the *old* SRTT first.
  model.on_success(kA, 2, 1);
  snap = model.snapshot();
  // rttvar = 2e6 + 0.25*(|2e6-4e6| - 2e6) = 2e6; srtt = 4e6 + 0.125*(-2e6)
  EXPECT_DOUBLE_EQ(snap[0].rttvar_us, 2e6);
  EXPECT_DOUBLE_EQ(snap[0].srtt_us, 3.75e6);
}

TEST(HealthModel, AdaptiveTimeoutClampsIntoPolicyRange) {
  resolver::HealthModel model;
  // Never-seen server: no estimate, use the policy cap unchanged.
  EXPECT_EQ(model.adaptive_timeout(kA, 7), 7);
  // Instant responses: estimate rounds to 0, floored at min_try_timeout.
  model.on_success(kA, 0, 0);
  EXPECT_EQ(model.adaptive_timeout(kA, 7), 1);
  // Slow server: srtt 4s + 4*2s variance = 12s, capped by the policy.
  model.on_success(kB, 4, 0);
  EXPECT_EQ(model.adaptive_timeout(kB, 7), 7);
  EXPECT_EQ(model.adaptive_timeout(kB, 30), 12);
}

TEST(HealthModel, RankPrefersFastSuccessfulServers) {
  resolver::HealthModel model;
  model.on_success(kA, 6, 0);  // slow
  model.on_success(kB, 0, 0);  // fast (sub-second)
  // kC untried: the initial prior (0.5s) ranks it between known-fast and
  // known-slow.
  const auto ranked = model.rank({kA, kB, kC}, 10);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0], kB);
  EXPECT_EQ(ranked[1], kC);
  EXPECT_EQ(ranked[2], kA);
  // Failures inflate the score multiplicatively: the failing slow server
  // gets even less attractive, including against the untried prior.
  const double before = model.score(kA);
  model.on_failure(kA, 11);
  model.on_failure(kA, 12);
  EXPECT_GT(model.score(kA), before);
  EXPECT_GT(model.score(kA), model.score(kC));
}

TEST(HealthModel, RankPutsOpenBreakersLastAndProbeReadyFirst) {
  resolver::HealthConfig config;
  config.breaker.failure_threshold = 2;
  config.breaker.open_duration = 10;
  resolver::HealthModel model(config);
  model.on_success(kA, 1, 0);
  model.on_success(kC, 1, 0);
  model.on_failure(kB, 1);
  model.on_failure(kB, 2);
  ASSERT_EQ(model.breaker_state(kB), BreakerState::Open);
  // Cooldown running: the open server sorts behind every healthy one.
  auto ranked = model.rank({kB, kA, kC}, 5);
  EXPECT_EQ(ranked[2], kB);
  EXPECT_FALSE(model.allow(kB, 5));
  // Cooldown elapsed: the recovering server ranks FIRST so one live query
  // doubles as its probe (otherwise healthier siblings would answer forever
  // and the breaker could never re-close).
  ranked = model.rank({kA, kB, kC}, 20);
  EXPECT_EQ(ranked[0], kB);
  EXPECT_TRUE(model.allow(kB, 20));  // consumes the probe slot
  model.on_success(kB, 1, 21);
  EXPECT_EQ(model.breaker_state(kB), BreakerState::Closed);
}

TEST(HealthModel, HedgeDelayNeedsSamplesThenTracksP95) {
  resolver::HealthConfig config;
  config.hedge_min_samples = 4;
  config.min_hedge_delay = 1;
  resolver::HealthModel model(config);
  EXPECT_EQ(model.hedge_delay(kA), 0);  // never seen
  for (int i = 0; i < 3; ++i) model.on_success(kA, 2, i);
  EXPECT_EQ(model.hedge_delay(kA), 0);  // below min samples
  model.on_success(kA, 2, 3);
  EXPECT_EQ(model.hedge_delay(kA), 2);  // p95 of {2,2,2,2}
  // A tail of slow responses moves the p95 (19 fast + 2 slow: the 95th
  // percentile crosses into the slow bucket at 20+ samples).
  for (int i = 0; i < 15; ++i) model.on_success(kA, 2, 10 + i);
  model.on_success(kA, 9, 30);
  model.on_success(kA, 9, 31);
  EXPECT_EQ(model.hedge_delay(kA), 9);
  // Instant-answer history floors at min_hedge_delay instead of hedging
  // every single try.
  for (int i = 0; i < 8; ++i) model.on_success(kB, 0, i);
  EXPECT_EQ(model.hedge_delay(kB), 1);
}

TEST(HealthModel, StatsReconcileWithBoundRegistryAndSnapshot) {
  obs::MetricsRegistry registry;
  resolver::HealthConfig config;
  config.breaker.failure_threshold = 2;
  config.breaker.open_duration = 5;
  resolver::HealthModel model(config);
  model.on_success(kA, 1, 0);  // before binding: value must carry over
  model.bind_metrics(registry);
  model.on_failure(kB, 1);
  model.on_failure(kB, 2);          // opens
  EXPECT_FALSE(model.allow(kB, 3));  // rejected
  EXPECT_TRUE(model.allow(kB, 9));   // half-open probe
  model.on_success(kB, 1, 10);       // recloses

  const auto stats = model.stats();
  EXPECT_EQ(stats.successes, 2u);
  EXPECT_EQ(stats.failures, 2u);
  EXPECT_EQ(stats.breaker_opened, 1u);
  EXPECT_EQ(stats.breaker_half_opened, 1u);
  EXPECT_EQ(stats.breaker_reclosed, 1u);
  EXPECT_EQ(stats.breaker_rejections, 1u);
  EXPECT_EQ(stats.breaker_probes, 1u);

  const auto snapshot = registry.snapshot();
  const auto value = [&snapshot](const std::string& name,
                                 const obs::LabelSet& labels =
                                     {}) -> std::uint64_t {
    const auto* series = snapshot.find(name, labels);
    if (series == nullptr) return 0;
    return series->type == obs::MetricType::Gauge
               ? static_cast<std::uint64_t>(series->gauge)
               : series->counter;
  };
  EXPECT_EQ(value("nxd_resolver_health_successes_total"), stats.successes);
  EXPECT_EQ(value("nxd_resolver_health_failures_total"), stats.failures);
  EXPECT_EQ(value("nxd_resolver_breaker_transitions_total", {{"to", "open"}}),
            stats.breaker_opened);
  EXPECT_EQ(
      value("nxd_resolver_breaker_transitions_total", {{"to", "half_open"}}),
      stats.breaker_half_opened);
  EXPECT_EQ(value("nxd_resolver_breaker_transitions_total", {{"to", "closed"}}),
            stats.breaker_reclosed);
  EXPECT_EQ(value("nxd_resolver_breaker_rejections_total"),
            stats.breaker_rejections);
  EXPECT_EQ(value("nxd_resolver_breaker_probes_total"), stats.breaker_probes);
  // The per-server SRTT gauge follows the live estimate.
  EXPECT_EQ(value("nxd_resolver_upstream_srtt_us", {{"server", kA.to_string()}}),
            1'000'000u);

  // The aggregate equals the per-server sum, exactly.
  util::CircuitBreakerStats folded;
  std::uint64_t successes = 0, failures = 0;
  for (const auto& h : model.snapshot()) {
    folded += h.breaker_stats;
    successes += h.successes;
    failures += h.failures;
  }
  EXPECT_EQ(successes, stats.successes);
  EXPECT_EQ(failures, stats.failures);
  EXPECT_EQ(folded.opened, stats.breaker_opened);
  EXPECT_EQ(folded.half_opened, stats.breaker_half_opened);
  EXPECT_EQ(folded.reclosed, stats.breaker_reclosed);
  EXPECT_EQ(folded.rejected, stats.breaker_rejections);
  EXPECT_EQ(folded.probes, stats.breaker_probes);
}

// ------------------------------------------------------ hierarchy replicas

TEST(HierarchyReplicas, TierServersListsPrimaryFirst) {
  const resolver::HierarchyEndpoints plain;
  EXPECT_EQ(plain.tier_servers(resolver::ServerTier::Root),
            std::vector<Endpoint>{plain.root});
  const auto farm = resolver::HierarchyEndpoints::with_replicas(3);
  const auto auth = farm.tier_servers(resolver::ServerTier::Authoritative);
  ASSERT_EQ(auth.size(), 3u);
  EXPECT_EQ(auth[0], farm.auth);
  EXPECT_EQ(auth[1], (Endpoint{dns::IPv4::from_octets(192, 0, 2, 54), 53}));
  EXPECT_EQ(auth[2], (Endpoint{dns::IPv4::from_octets(192, 0, 2, 55), 53}));
}

TEST(HierarchyReplicas, EveryReplicaAnswersIdentically) {
  resolver::DnsHierarchy hierarchy;
  hierarchy.register_domain(dns::DomainName::must("mirror.com"),
                            dns::IPv4::from_octets(203, 0, 113, 5));
  net::SimNetwork network;
  const auto farm = resolver::HierarchyEndpoints::with_replicas(3);
  hierarchy.attach(network, farm);
  const auto query = dns::make_query(
      7, dns::DomainName::must("mirror.com"), dns::RRType::A);
  std::vector<std::vector<std::uint8_t>> replies;
  for (const auto& server :
       farm.tier_servers(resolver::ServerTier::Authoritative)) {
    net::SimPacket packet;
    packet.protocol = net::Protocol::UDP;
    packet.src = Endpoint{dns::IPv4::from_octets(192, 0, 2, 9), 4096};
    packet.dst = server;
    packet.payload = dns::encode(query);
    const auto raw = network.send(packet);
    ASSERT_TRUE(raw.has_value()) << server.to_string();
    replies.push_back(*raw);
  }
  EXPECT_EQ(replies[0], replies[1]);
  EXPECT_EQ(replies[0], replies[2]);
}

// ------------------------------------------------------------ chaos suites

/// Shared rig: a 3-replica-per-tier hierarchy on a faultable network, the
/// resolver running the adaptive health path with a hair-trigger breaker.
struct ChaosRig {
  resolver::DnsHierarchy hierarchy;
  std::vector<dns::DomainName> registered;
  net::SimNetwork network;
  resolver::HierarchyEndpoints farm = resolver::HierarchyEndpoints::with_replicas(3);
  std::unique_ptr<resolver::RecursiveResolver> resolver;

  explicit ChaosRig(std::uint64_t seed,
                    resolver::HealthConfig health = fast_breaker(),
                    resolver::RetryPolicy policy = {}) {
    for (int d = 0; d < 6; ++d) {
      auto name = dns::DomainName::must("real" + std::to_string(d) + ".com");
      hierarchy.register_domain(name, dns::IPv4::from_octets(203, 0, 113, 7));
      registered.push_back(std::move(name));
    }
    network.set_fault_plan(FaultPlan(seed));
    hierarchy.attach(network, farm);
    resolver = std::make_unique<resolver::RecursiveResolver>(hierarchy);
    resolver->use_network(network, farm, policy, seed);
    resolver->enable_health(health);
  }

  static resolver::HealthConfig fast_breaker() {
    resolver::HealthConfig config;
    config.breaker.failure_threshold = 2;
    config.breaker.open_duration = 8;
    config.breaker.max_open_duration = 64;
    config.hedge_min_samples = 4;
    return config;
  }

  dns::RCode query_registered(int i, util::SimTime now) {
    const auto rcode = resolver->resolve_rcode(
        registered[static_cast<std::size_t>(i) % registered.size()], now);
    resolver->flush_cache();
    return rcode;
  }
};

FaultSpec blackhole() {
  FaultSpec spec;
  spec.drop = 1.0;
  return spec;
}

TEST(HealthChaos, FlappingReplicaIsSteeredAround) {
  auto run = [](std::uint64_t seed) {
    ChaosRig rig(seed);
    std::vector<dns::RCode> rcodes;
    int noerror = 0;
    for (int i = 0; i < 120; ++i) {
      // Primary authoritative flaps: 10 queries dark, 10 healthy, repeat.
      rig.network.fault_plan().set_for(
          rig.farm.auth, (i / 10) % 2 == 0 ? blackhole() : FaultSpec{});
      const auto rcode = rig.query_registered(i, i * 40);
      rcodes.push_back(rcode);
      EXPECT_NE(rcode, dns::RCode::NXDomain) << "query " << i;
      if (rcode == dns::RCode::NoError) ++noerror;
    }
    // The tier as a whole keeps answering: replicas absorb the flaps.
    EXPECT_GE(noerror, 110);
    const auto stats = rig.resolver->stats();
    EXPECT_GT(stats.timeouts, 0u);
    const auto health = rig.resolver->health()->stats();
    EXPECT_GT(health.failures, 0u);
    EXPECT_GE(health.breaker_opened, 1u);
    EXPECT_GE(health.breaker_reclosed, 1u);
    return std::tuple(stats, health, rcodes);
  };
  // Determinism: same seed, same decisions, same counters, same rcodes.
  const auto a = run(17);
  const auto b = run(17);
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
}

TEST(HealthChaos, AsymmetricOutageOpensBreakerThenRecovers) {
  ChaosRig rig(5);
  rig.network.fault_plan().set_for(rig.farm.auth, blackhole());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(rig.query_registered(i, i * 50), dns::RCode::NoError);
  }
  // The dead primary's breaker opened; the replicas carried the load.
  EXPECT_NE(rig.resolver->health()->breaker_state(rig.farm.auth),
            BreakerState::Closed);
  EXPECT_GE(rig.resolver->health()->stats().breaker_opened, 1u);
  const auto failures_during_outage =
      rig.resolver->health()->stats().failures;
  EXPECT_GT(failures_during_outage, 0u);

  // Server heals: the next probes re-close the breaker and the primary
  // rejoins the rotation.
  rig.network.fault_plan().set_for(rig.farm.auth, FaultSpec{});
  for (int i = 8; i < 16; ++i) {
    EXPECT_EQ(rig.query_registered(i, i * 50), dns::RCode::NoError);
  }
  EXPECT_EQ(rig.resolver->health()->breaker_state(rig.farm.auth),
            BreakerState::Closed);
  EXPECT_GE(rig.resolver->health()->stats().breaker_reclosed, 1u);
}

TEST(HealthChaos, SlowDripTriggersHedgesAndSteersToFastReplica) {
  ChaosRig rig(9);
  // Warm-up: every server fast, the model learns near-zero SRTT and enough
  // samples to arm hedging.
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(rig.query_registered(i, i * 30), dns::RCode::NoError);
  }
  ASSERT_EQ(rig.resolver->stats().hedged_queries, 0u);
  // The primary authoritative turns into a slow drip: still answers, but
  // every reply takes 5 simulated seconds.
  FaultSpec drip;
  drip.delay = 1.0;
  drip.delay_min = 5;
  drip.delay_max = 5;
  rig.network.fault_plan().set_for(rig.farm.auth, drip);
  std::vector<util::SimTime> elapsed;
  for (int i = 6; i < 18; ++i) {
    const auto outcome = rig.resolver->resolve(
        dns::make_query(static_cast<std::uint16_t>(i),
                        rig.registered[i % rig.registered.size()],
                        dns::RRType::A),
        i * 30);
    EXPECT_EQ(outcome.response.header.rcode, dns::RCode::NoError);
    elapsed.push_back(outcome.elapsed);
    rig.resolver->flush_cache();
  }
  const auto& stats = rig.resolver->stats();
  // The first slow try blew past the tracked p95 and was hedged; the fast
  // replica's answer served the client.
  EXPECT_GE(stats.hedged_queries, 1u);
  EXPECT_GE(stats.hedge_wins, 1u);
  // Selection then steered away: the drip inflates the primary's SRTT, so
  // later walks go straight to a fast replica and stay fast.
  EXPECT_LE(elapsed.back(), 2);
  const auto snap = rig.resolver->health()->snapshot();
  bool replica_served = false;
  for (const auto& h : snap) {
    if ((h.server == rig.farm.auth_replicas[0] ||
         h.server == rig.farm.auth_replicas[1]) &&
        h.successes > 0) {
      replica_served = true;
    }
  }
  EXPECT_TRUE(replica_served);
}

TEST(HealthChaos, BreakerStormNeverFabricatesNXDomainAndRecovers) {
  ChaosRig rig(13);
  const auto auth_servers =
      rig.farm.tier_servers(resolver::ServerTier::Authoritative);
  {
    // The entire authoritative tier goes dark.
    std::vector<std::unique_ptr<net::FaultWindow>> dark;
    for (const auto& server : auth_servers) {
      dark.push_back(
          std::make_unique<net::FaultWindow>(rig.network.fault_plan(), server));
    }
    for (int i = 0; i < 6; ++i) {
      // Total tier loss degrades to SERVFAIL — registered names must never
      // read as non-existent.  The tight spacing lands follow-up queries
      // inside the breakers' cooldown, so they are refused outright
      // (breaker_skips) instead of burning probe timeouts.
      EXPECT_EQ(rig.query_registered(i, i * 2), dns::RCode::ServFail);
    }
    for (const auto& server : auth_servers) {
      EXPECT_NE(rig.resolver->health()->breaker_state(server),
                BreakerState::Closed)
          << server.to_string();
    }
    EXPECT_GT(rig.resolver->stats().breaker_skips, 0u);
    // NXDomain for a truly absent name is still proven by the TLD tier,
    // which is alive — non-existence comes from proof, not from failure.
    EXPECT_EQ(rig.resolver->resolve_rcode(
                  dns::DomainName::must("definitely-not-there.com"), 2'000),
              dns::RCode::NXDomain);
    rig.resolver->flush_cache();
  }
  // Storm over: each next query probes one recovering server (probe-ready
  // servers rank first), so a handful of queries re-closes every breaker.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(rig.query_registered(i, 3'000 + i * 100), dns::RCode::NoError);
  }
  for (const auto& server : auth_servers) {
    EXPECT_EQ(rig.resolver->health()->breaker_state(server),
              BreakerState::Closed)
        << server.to_string();
  }
  EXPECT_GE(rig.resolver->health()->stats().breaker_reclosed, 3u);
}

// --------------------------------------------------------------- fuzzing

/// Seeded fuzz: random fault plans x random breaker/hedge configs, mixed
/// real and absent names.  Two properties must survive anything the fault
/// stage can do: (1) every NXDomain names a truly non-registered domain;
/// (2) the health model's stats reconcile exactly against the shared
/// registry and against the per-server snapshot fold.
TEST(HealthFuzz, RandomFaultPlansNeverFabricateNXDomainAndStatsReconcile) {
  for (const std::uint64_t seed : {101ULL, 202ULL, 303ULL}) {
    util::Rng rng(seed);

    resolver::DnsHierarchy hierarchy;
    std::set<std::string> registered;
    std::vector<dns::DomainName> names;
    for (int d = 0; d < 8; ++d) {
      auto name = dns::DomainName::must("real" + std::to_string(d) + ".com");
      hierarchy.register_domain(name, dns::IPv4::from_octets(203, 0, 113, 7));
      registered.insert(name.to_string());
      names.push_back(std::move(name));
    }

    net::SimNetwork network;
    FaultPlan plan(seed);
    FaultSpec spec;
    spec.drop = rng.uniform() * 0.4;
    spec.corrupt = rng.uniform() * 0.2;
    spec.delay = rng.uniform() * 0.5;
    spec.delay_min = 1;
    spec.delay_max = 1 + static_cast<util::SimTime>(rng.bounded(5));
    plan.set_default(spec);
    network.set_fault_plan(std::move(plan));
    const auto farm = resolver::HierarchyEndpoints::with_replicas(3);
    hierarchy.attach(network, farm);

    resolver::HealthConfig health;
    health.breaker.failure_threshold = 2 + static_cast<int>(rng.bounded(3));
    health.breaker.open_duration = 2 + static_cast<util::SimTime>(rng.bounded(12));
    health.hedge_min_samples = 2 + static_cast<int>(rng.bounded(6));

    obs::MetricsRegistry registry;
    resolver::RecursiveResolver resolver(hierarchy);
    resolver.use_network(network, farm, resolver::RetryPolicy{}, seed);
    resolver.bind_metrics(registry);
    resolver.enable_health(health);

    util::SimTime now = 0;
    for (int i = 0; i < 250; ++i, now += 5) {
      const dns::DomainName name =
          rng.chance(0.5)
              ? names[rng.bounded(names.size())]
              : dns::DomainName::must("nx" + std::to_string(rng.bounded(64)) +
                                      ".com");
      const auto outcome = resolver.resolve(
          dns::make_query(static_cast<std::uint16_t>(i + 1), name,
                          dns::RRType::A),
          now);
      now += outcome.elapsed;
      if (outcome.response.header.rcode == dns::RCode::NXDomain) {
        EXPECT_EQ(registered.count(name.to_string()), 0u)
            << "seed " << seed << ": NXDomain fabricated for registered "
            << name.to_string();
      }
      resolver.flush_cache();
    }

    // Exact reconciliation: legacy structs == registry counters.
    const auto snapshot = registry.snapshot();
    const auto value = [&snapshot](const std::string& name,
                                   const obs::LabelSet& labels =
                                       {}) -> std::uint64_t {
      const auto* series = snapshot.find(name, labels);
      return series == nullptr ? 0 : series->counter;
    };
    const auto& rs = resolver.stats();
    EXPECT_EQ(rs.hedged_queries, value("nxd_resolver_hedged_queries_total"));
    EXPECT_EQ(rs.hedge_wins, value("nxd_resolver_hedge_wins_total"));
    EXPECT_EQ(rs.hedge_losses, value("nxd_resolver_hedge_losses_total"));
    EXPECT_EQ(rs.breaker_skips, value("nxd_resolver_breaker_skips_total"));
    const auto hs = resolver.health()->stats();
    EXPECT_EQ(hs.successes, value("nxd_resolver_health_successes_total"));
    EXPECT_EQ(hs.failures, value("nxd_resolver_health_failures_total"));
    EXPECT_EQ(hs.breaker_opened,
              value("nxd_resolver_breaker_transitions_total", {{"to", "open"}}));
    EXPECT_EQ(hs.breaker_half_opened,
              value("nxd_resolver_breaker_transitions_total",
                    {{"to", "half_open"}}));
    EXPECT_EQ(hs.breaker_reclosed, value("nxd_resolver_breaker_transitions_total",
                                         {{"to", "closed"}}));
    EXPECT_EQ(hs.breaker_rejections,
              value("nxd_resolver_breaker_rejections_total"));
    EXPECT_EQ(hs.breaker_probes, value("nxd_resolver_breaker_probes_total"));

    // ... and the aggregate equals the per-server fold, exactly.
    util::CircuitBreakerStats folded;
    std::uint64_t successes = 0, failures = 0;
    for (const auto& h : resolver.health()->snapshot()) {
      folded += h.breaker_stats;
      successes += h.successes;
      failures += h.failures;
    }
    EXPECT_EQ(successes, hs.successes) << "seed " << seed;
    EXPECT_EQ(failures, hs.failures) << "seed " << seed;
    EXPECT_EQ(folded.opened, hs.breaker_opened) << "seed " << seed;
    EXPECT_EQ(folded.half_opened, hs.breaker_half_opened) << "seed " << seed;
    EXPECT_EQ(folded.reclosed, hs.breaker_reclosed) << "seed " << seed;
    EXPECT_EQ(folded.rejected, hs.breaker_rejections) << "seed " << seed;
    EXPECT_EQ(folded.probes, hs.breaker_probes) << "seed " << seed;
  }
}

// ------------------------------------------------------ degradation ladder

/// Fresh scratch directory per scenario, pid-keyed so the plain and
/// sanitized duplicates can run concurrently under `ctest -j`.
std::string fresh_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "nxd_health_" +
                          std::to_string(::getpid()) + "_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

obs::PressureThresholds tight_thresholds() {
  obs::PressureThresholds t;
  t.wal_lag = {4, 8, 16};
  t.checkpoint_debt = {4, 8, 16};
  return t;
}

TEST(Pressure, RaisesImmediatelyAndReleasesWithHysteresis) {
  obs::PressureSignal signal(tight_thresholds());
  EXPECT_EQ(signal.level(), obs::PressureLevel::Normal);
  EXPECT_EQ(signal.update({.wal_lag_batches = 4, .checkpoint_debt = 0}, 0),
            obs::PressureLevel::Elevated);
  // ANY input over a raise threshold engages that level.
  EXPECT_EQ(signal.update({.wal_lag_batches = 0, .checkpoint_debt = 16}, 1),
            obs::PressureLevel::Critical);
  // Inputs back off but not below half the High threshold (8/2=4): the
  // ladder releases only to High, not all the way down (hysteresis).
  EXPECT_EQ(signal.update({.wal_lag_batches = 0, .checkpoint_debt = 5}, 2),
            obs::PressureLevel::High);
  // Still >= half of Elevated's threshold (4/2=2): holds at Elevated.
  EXPECT_EQ(signal.update({.wal_lag_batches = 2, .checkpoint_debt = 0}, 3),
            obs::PressureLevel::Elevated);
  EXPECT_EQ(signal.update({.wal_lag_batches = 1, .checkpoint_debt = 1}, 4),
            obs::PressureLevel::Normal);
  const auto stats = signal.stats();
  EXPECT_EQ(stats.raised, 3u);   // 0->1, then 1->3
  EXPECT_EQ(stats.lowered, 3u);  // 3->2->1->0
  EXPECT_EQ(stats.updates, 5u);
}

TEST(Pressure, CapacityScalingAndCostLadderMath) {
  using obs::PressureSignal;
  EXPECT_EQ(PressureSignal::scale_capacity(100, 0), 100);
  EXPECT_EQ(PressureSignal::scale_capacity(100, 1), 75);
  EXPECT_EQ(PressureSignal::scale_capacity(100, 2), 50);
  EXPECT_EQ(PressureSignal::scale_capacity(100, 3), 25);
  // Never zero: a Critical system still serves a trickle.
  EXPECT_EQ(PressureSignal::scale_capacity(1, 3), 1);
  EXPECT_EQ(PressureSignal::scale_capacity(0, 3), 0);
  EXPECT_DOUBLE_EQ(PressureSignal::cost_multiplier(0), 1.0);
  EXPECT_DOUBLE_EQ(PressureSignal::cost_multiplier(1), 4.0 / 3.0);
  EXPECT_DOUBLE_EQ(PressureSignal::cost_multiplier(2), 2.0);
  EXPECT_DOUBLE_EQ(PressureSignal::cost_multiplier(3), 4.0);
  EXPECT_DOUBLE_EQ(PressureSignal::cost_multiplier(99), 4.0);
}

TEST(Pressure, ConnectionGateTightensAdmissionUnderPressure) {
  obs::PressureSignal signal(tight_thresholds());
  honeypot::OverloadConfig config;
  config.max_connections = 8;
  honeypot::ConnectionGate gate(config);
  gate.set_pressure(&signal);

  // Normal: admit half the cap (the hard cap is checked before the
  // pressure-scaled cap, so stay below it to observe the ladder's shed).
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(gate.open(dns::IPv4::from_octets(198, 51, 100, 1), 0).decision,
              honeypot::AdmitDecision::Accept);
  }
  // Connections stay open; raise the ladder to High (cap 8 -> 4): the
  // fifth open is shed by pressure, not capacity.
  signal.update({.wal_lag_batches = 8, .checkpoint_debt = 0}, 1);
  EXPECT_EQ(gate.open(dns::IPv4::from_octets(198, 51, 100, 2), 2).decision,
            honeypot::AdmitDecision::ShedPressure);
  EXPECT_EQ(gate.stats().shed_pressure, 1u);
  EXPECT_EQ(gate.stats().shed_capacity, 0u);
  // Pressure released: back to the configured cap, so admission resumes
  // until the hard cap fills — at which point the shed is plain capacity,
  // no longer blamed on the ladder.
  signal.update({.wal_lag_batches = 0, .checkpoint_debt = 0}, 3);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(gate.open(dns::IPv4::from_octets(198, 51, 100, 3), 4).decision,
              honeypot::AdmitDecision::Accept);
  }
  EXPECT_EQ(gate.open(dns::IPv4::from_octets(198, 51, 100, 3), 5).decision,
            honeypot::AdmitDecision::ShedCapacity);
  EXPECT_EQ(gate.stats().shed_capacity, 1u);
}

TEST(Pressure, RrlChargesElevatedTokenCostUnderPressure) {
  obs::PressureSignal signal(tight_thresholds());
  const auto source = dns::IPv4::from_octets(198, 51, 100, 9);
  auto run = [&](int level_inputs) {
    resolver::ResponseRateLimiter rrl(
        resolver::RrlConfig{.responses_per_second = 0.001, .burst = 4.0});
    rrl.set_pressure(&signal);
    signal.update({.wal_lag_batches =
                       static_cast<std::uint64_t>(level_inputs),
                   .checkpoint_debt = 0},
                  0);
    int passed = 0;
    for (int i = 0; i < 4; ++i) {
      if (rrl.check(source, 0) == resolver::RrlVerdict::Pass) ++passed;
    }
    return std::pair(passed, rrl.stats().pressure_scaled);
  };
  // Normal: all four burst tokens spend at cost 1.
  EXPECT_EQ(run(0), std::pair(4, std::uint64_t{0}));
  // Critical (cost 4): the same burst admits a single response.
  EXPECT_EQ(run(16), std::pair(1, std::uint64_t{4}));
}

TEST(Pressure, DurableStoreInputsFeedTheLadder) {
  const std::string dir = fresh_dir("inputs");
  pdns::DurableStore::Config config;
  config.synchronous = true;
  config.delta_every_batches = 0;  // manual checkpoints: debt accumulates
  auto store = pdns::DurableStore::open(dir, config);
  ASSERT_TRUE(store.has_value());

  std::vector<pdns::Observation> batch(4);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].name = dns::DomainName::must("p" + std::to_string(i) + ".com");
    batch[i].rcode = dns::RCode::NXDomain;
    batch[i].when = static_cast<util::SimTime>(i);
  }
  const auto frame = pdns::encode_batch_frame(batch);
  obs::PressureSignal signal(tight_thresholds());
  for (int b = 0; b < 8; ++b) {
    ASSERT_TRUE(store->wait_batch(store->submit_frame(frame)));
  }
  // Synchronous mode: no WAL queue, but 8 batches of checkpoint debt.
  const auto inputs = store->pressure_inputs();
  EXPECT_EQ(inputs.wal_lag_batches, 0u);
  EXPECT_EQ(inputs.checkpoint_debt, 8u);
  EXPECT_EQ(store->feed_pressure(signal, 1), obs::PressureLevel::High);
  // Checkpointing pays the debt down; the ladder releases.
  ASSERT_TRUE(store->checkpoint());
  EXPECT_EQ(store->pressure_inputs().checkpoint_debt, 0u);
  EXPECT_EQ(store->feed_pressure(signal, 2), obs::PressureLevel::Normal);
}

// TSan target: a background-threaded store ingests while another thread
// polls pressure_inputs()/feed_pressure() and hot-path readers spin on
// level().  pressure_inputs() takes the store's internal locks sequentially;
// this pins that it tears nothing and deadlocks never.
TEST(Pressure, ThreadedIngestWithConcurrentPressurePolling) {
  const std::string dir = fresh_dir("threaded");
  pdns::DurableStore::Config config;
  config.delta_every_batches = 4;
  auto store = pdns::DurableStore::open(dir, config);
  ASSERT_TRUE(store.has_value());

  std::vector<pdns::Observation> batch(8);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].name = dns::DomainName::must("mt" + std::to_string(i) + ".net");
    batch[i].rcode = dns::RCode::NXDomain;
    batch[i].when = static_cast<util::SimTime>(i);
  }

  const auto frame = pdns::encode_batch_frame(batch);

  obs::PressureSignal signal(tight_thresholds());
  std::atomic<bool> stop{false};
  std::thread poller([&] {
    util::SimTime t = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      store->feed_pressure(signal, ++t);
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const int level = signal.level_index();
      ASSERT_GE(level, 0);
      ASSERT_LE(level, 3);
    }
  });
  std::vector<std::uint64_t> tickets;
  for (int b = 0; b < 64; ++b) {
    tickets.push_back(store->submit_frame(frame));
  }
  for (const auto ticket : tickets) {
    EXPECT_TRUE(store->wait_batch(ticket));
  }
  stop.store(true);
  poller.join();
  reader.join();
  ASSERT_TRUE(store->wait_durable());
  // Everything decided: the WAL queue is drained.
  EXPECT_EQ(store->pressure_inputs().wal_lag_batches, 0u);
  EXPECT_EQ(store->committed_batches(), 64u);
}

}  // namespace
}  // namespace nxd
