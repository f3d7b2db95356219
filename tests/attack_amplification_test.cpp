// Exact amplification accounting for the NXNS delegation-bomb path.
//
// The attack suite's headline number — upstream packets per attack query —
// is only trustworthy if every packet is accounted for, so this suite
// reconciles four independent ledgers of the same run:
//
//   resolver stats (upstream_sends, delegation_fetches/_capped)
//   == SimNetwork delivery counts
//   == per-tier hierarchy query counters
//   == obs registry counters bound via bind_metrics.
//
// Everything runs on a perfect wire (no FaultPlan), where the counts are
// closed-form functions of (queries, fanout): any off-by-one in the
// referral loop or the budget bookkeeping breaks an equality here.
#include <gtest/gtest.h>

#include <thread>

#include "attack/nxns.hpp"
#include "net/sim_network.hpp"
#include "obs/metrics.hpp"
#include "resolver/hierarchy.hpp"
#include "resolver/recursive.hpp"

namespace nxd::attack {
namespace {

using dns::DomainName;
using resolver::DnsHierarchy;
using resolver::RecursiveResolver;

// Sanitized duplicates run the same reconciliation on a smaller replay;
// the plain tier-1 binary does the full 10k-query run.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr int kReplayQueries = 2'000;
#else
constexpr int kReplayQueries = 10'000;
#endif

struct World {
  DnsHierarchy hierarchy;
  net::SimNetwork network;
  NxnsAttack attack;
  RecursiveResolver resolver;

  explicit World(NxnsConfig config)
      : attack(config), resolver(hierarchy) {
    attack.install(hierarchy);
    hierarchy.attach(network);
    resolver.use_network(network, {}, {}, config.seed);
  }

  util::SimTime replay(int queries, int first = 0) {
    util::SimTime now = 0;
    for (int i = first; i < first + queries; ++i) {
      now += resolver.resolve(attack.query(static_cast<std::uint64_t>(i)), now)
                 .elapsed;
    }
    return now;
  }
};

NxnsConfig replay_config(std::uint64_t seed, int fanout) {
  NxnsConfig config;
  config.seed = seed;
  config.fanout = fanout;
  config.subzones = kReplayQueries;  // every query hits a fresh delegation
  return config;
}

TEST(AmplificationReconciliation, UndefendedNxnsReplayBalancesExactly) {
  World world(replay_config(42, 3));
  world.replay(kReplayQueries);

  const auto& stats = world.resolver.stats();
  const auto q = static_cast<std::uint64_t>(kReplayQueries);

  // Every referral fans out 3 glueless NS targets, all unique: no cache
  // dedupe, no caps, so the fetch ledger is exact.
  EXPECT_EQ(stats.client_queries, q);
  EXPECT_EQ(stats.delegation_fetches, 3 * q);
  EXPECT_EQ(stats.delegation_capped, 0u);
  // Each walk (client query or NS fetch) crosses all three tiers once.
  const std::uint64_t walks = q + stats.delegation_fetches;
  EXPECT_EQ(stats.upstream_sends, 3 * walks);
  // The wire saw exactly what the resolver says it sent.
  EXPECT_EQ(world.network.delivered(), stats.upstream_sends);
  EXPECT_EQ(world.network.dropped(), 0u);
  // And each tier's own counter agrees on its share.
  EXPECT_EQ(world.hierarchy.root_queries(), walks);
  EXPECT_EQ(world.hierarchy.tld_queries(), walks);
  EXPECT_EQ(world.hierarchy.auth_queries(), walks);
  // Unreachable NS targets mean the client sees SERVFAIL, never NXDomain.
  EXPECT_EQ(stats.servfail_responses, q);
  EXPECT_EQ(stats.nxdomain_responses, 0u);
}

TEST(AmplificationReconciliation, BudgetedReplayAccountsForEveryCap) {
  constexpr int kQueries = 1'000;
  NxnsConfig config = replay_config(43, 3);
  config.subzones = kQueries;
  World world(config);
  resolver::ResolverDefenses defenses;
  defenses.max_fetch_per_delegation = 2;
  defenses.zone_fetch_budget = 64;
  world.resolver.set_defenses(defenses);
  world.replay(kQueries);

  const auto& stats = world.resolver.stats();
  const auto q = static_cast<std::uint64_t>(kQueries);

  // Every NS target in every referral is either fetched or counted capped —
  // nothing falls through the bookkeeping.
  EXPECT_EQ(stats.delegation_fetches + stats.delegation_capped, 3 * q);
  // Perfect wire -> zero elapsed time -> one budget window for the single
  // target zone, so exactly `zone_fetch_budget` fetches happen.
  EXPECT_EQ(stats.delegation_fetches, 64u);
  EXPECT_EQ(stats.upstream_sends, 3 * (q + stats.delegation_fetches));
  EXPECT_EQ(world.network.delivered(), stats.upstream_sends);
}

TEST(AmplificationReconciliation, ObsCountersMirrorStatsAcrossRebinding) {
  World world(replay_config(44, 3));
  world.replay(kReplayQueries / 2);

  // Re-home the counters mid-run: accumulated values, histogram samples
  // included, must carry over.
  obs::MetricsRegistry registry;
  world.resolver.bind_metrics(registry);
  world.network.bind_metrics(registry);
  world.replay(kReplayQueries / 2, kReplayQueries / 2);

  const auto& stats = world.resolver.stats();
  const auto snapshot = registry.snapshot();
  const auto counter = [&](const char* name) {
    const auto* series = snapshot.find(name);
    return series != nullptr ? series->counter : 0;
  };
  EXPECT_EQ(counter("nxd_resolver_client_queries_total"), stats.client_queries);
  EXPECT_EQ(counter("nxd_resolver_upstream_sends_total"), stats.upstream_sends);
  EXPECT_EQ(counter("nxd_resolver_delegation_fetches_total"),
            stats.delegation_fetches);
  EXPECT_EQ(counter("nxd_resolver_delegation_capped_total"),
            stats.delegation_capped);
  EXPECT_EQ(counter("nxd_resolver_servfail_responses_total"),
            stats.servfail_responses);
  EXPECT_EQ(counter("nxd_net_packets_delivered_total"),
            world.network.delivered());
  EXPECT_EQ(counter("nxd_net_packets_dropped_total"), world.network.dropped());

  // ... and every one equals the closed-form total of both halves.
  const auto q = static_cast<std::uint64_t>(kReplayQueries);
  EXPECT_EQ(stats.client_queries, q);
  EXPECT_EQ(stats.upstream_resolutions, q);
  EXPECT_EQ(stats.delegation_fetches, 3 * q);
  EXPECT_EQ(stats.upstream_sends, 3 * (q + stats.delegation_fetches));
  EXPECT_EQ(stats.servfail_responses, q);
  EXPECT_EQ(world.network.delivered(), stats.upstream_sends);
  EXPECT_EQ(world.network.dropped(), 0u);
  const auto* latency =
      snapshot.find("nxd_resolver_upstream_latency_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->hist_count, q);  // one sample per upstream resolution
}

// Two resolvers in two threads, each driving its own world, sharing one
// registry: the shared counter cells must aggregate exactly (this is the
// case the TSan duplicate exists for).
TEST(AmplificationReconciliation, SharedRegistryAggregatesAcrossThreads) {
  constexpr int kQueries = 250;
  constexpr int kFanout = 2;
  NxnsConfig config_a = replay_config(45, kFanout);
  config_a.subzones = kQueries;
  NxnsConfig config_b = replay_config(46, kFanout);
  config_b.subzones = kQueries;
  World a(config_a);
  World b(config_b);

  obs::MetricsRegistry registry;
  a.resolver.bind_metrics(registry);
  b.resolver.bind_metrics(registry);

  std::thread ta([&] { a.replay(kQueries); });
  std::thread tb([&] { b.replay(kQueries); });
  ta.join();
  tb.join();

  const auto q = static_cast<std::uint64_t>(kQueries);
  const std::uint64_t fetches = 2 * kFanout * q;       // both worlds
  const std::uint64_t walks = 2 * q + fetches;
  const auto snapshot = registry.snapshot();
  const auto* sends = snapshot.find("nxd_resolver_upstream_sends_total");
  const auto* fetched = snapshot.find("nxd_resolver_delegation_fetches_total");
  const auto* clients = snapshot.find("nxd_resolver_client_queries_total");
  ASSERT_NE(sends, nullptr);
  ASSERT_NE(fetched, nullptr);
  ASSERT_NE(clients, nullptr);
  EXPECT_EQ(clients->counter, 2 * q);
  EXPECT_EQ(fetched->counter, fetches);
  EXPECT_EQ(sends->counter, 3 * walks);
  EXPECT_EQ(a.network.delivered() + b.network.delivered(), 3 * walks);
}

}  // namespace
}  // namespace nxd::attack
