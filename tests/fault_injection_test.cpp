// Chaos-test suite for the fault-injection layer (net/fault.hpp).
//
// The layer exists so resolver experiments can run under real-world loss
// while staying replayable, so the properties pinned here are about
// determinism and semantics, not about loss rates:
//   - same seed => identical injected fault sequence, identical stats;
//   - an empty plan injects nothing and leaves SimNetwork byte-identical;
//   - outage windows (scoped and timed) black out exactly their span and
//     the resolver recovers afterwards;
//   - injected loss degrades answers to SERVFAIL, never to NXDomain.
#include <gtest/gtest.h>

#include <thread>

#include "honeypot/recorder.hpp"
#include "net/event_loop.hpp"
#include "net/fault.hpp"
#include "net/sim_network.hpp"
#include "pdns/observation.hpp"
#include "pdns/store.hpp"
#include "resolver/recursive.hpp"
#include "resolver/udp_server.hpp"
#include "util/rng.hpp"

namespace nxd {
namespace {

using net::Endpoint;
using net::FaultPlan;
using net::FaultSpec;

const Endpoint kDst{dns::IPv4::from_octets(192, 0, 2, 1), 53};

FaultSpec chaos_spec() {
  FaultSpec spec;
  spec.drop = 0.2;
  spec.duplicate = 0.1;
  spec.corrupt = 0.2;
  spec.truncate = 0.1;
  spec.delay = 0.1;
  return spec;
}

// One run of N packets through a plan: the full verdict/payload trail.
struct Trail {
  std::vector<std::uint8_t> verdicts;  // bit 0 drop, bit 1 duplicate
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<util::SimTime> delays;
  net::FaultStats stats;
};

Trail run_plan(std::uint64_t seed, int packets) {
  FaultPlan plan(seed);
  plan.set_default(chaos_spec());
  Trail trail;
  for (int i = 0; i < packets; ++i) {
    std::vector<std::uint8_t> payload(16, static_cast<std::uint8_t>(i));
    const auto verdict = plan.apply(kDst, payload, 0);
    trail.verdicts.push_back(static_cast<std::uint8_t>(verdict.drop) |
                             static_cast<std::uint8_t>(verdict.duplicate) << 1);
    trail.payloads.push_back(std::move(payload));
    trail.delays.push_back(verdict.delay);
  }
  trail.stats = plan.stats();
  return trail;
}

TEST(FaultDeterminism, SameSeedSameFaultSequence) {
  const Trail a = run_plan(42, 500);
  const Trail b = run_plan(42, 500);
  EXPECT_EQ(a.verdicts, b.verdicts);
  EXPECT_EQ(a.payloads, b.payloads);
  EXPECT_EQ(a.delays, b.delays);
  EXPECT_EQ(a.stats, b.stats);
  // The spec enables every class; over 500 packets each must have fired.
  EXPECT_GT(a.stats.injected_drops, 0u);
  EXPECT_GT(a.stats.injected_duplicates, 0u);
  EXPECT_GT(a.stats.injected_corruptions, 0u);
  EXPECT_GT(a.stats.injected_truncations, 0u);
  EXPECT_GT(a.stats.injected_delays, 0u);
}

TEST(FaultDeterminism, DifferentSeedDifferentSequence) {
  const Trail a = run_plan(42, 500);
  const Trail b = run_plan(43, 500);
  EXPECT_NE(a.verdicts, b.verdicts);
}

// A chaos resolver workload, bundled so two invocations can be compared.
struct ChaosRun {
  resolver::RecursiveStats resolver_stats;
  net::FaultStats fault_stats;
  std::uint64_t pdns_total = 0;
  std::uint64_t pdns_nx = 0;
  std::uint64_t pdns_servfail = 0;
  std::vector<dns::RCode> rcodes;
};

ChaosRun chaos_resolve(std::uint64_t seed, const FaultSpec& spec) {
  resolver::DnsHierarchy hierarchy;
  std::vector<dns::DomainName> registered;
  for (int d = 0; d < 10; ++d) {
    auto name = dns::DomainName::must("real" + std::to_string(d) + ".com");
    hierarchy.register_domain(name, dns::IPv4::from_octets(203, 0, 113, 7));
    registered.push_back(std::move(name));
  }

  net::SimNetwork network;
  FaultPlan plan(seed);
  plan.set_default(spec);
  network.set_fault_plan(std::move(plan));
  hierarchy.attach(network);

  resolver::RecursiveResolver resolver(hierarchy);
  resolver.use_network(network, {}, resolver::RetryPolicy{}, seed);

  pdns::PassiveDnsStore store;
  resolver.set_observer([&store](const dns::Message& q, const dns::Message& r,
                                 bool, util::SimTime when) {
    store.ingest(pdns::observe(q, r, when));
  });

  ChaosRun run;
  util::Rng stream(seed);
  util::SimTime now = 0;
  for (int i = 0; i < 400; ++i, now += 5) {
    const dns::DomainName name =
        stream.chance(0.5)
            ? registered[stream.bounded(registered.size())]
            : dns::DomainName::must("nx" + std::to_string(stream.bounded(50)) +
                                    ".com");
    const auto query =
        dns::make_query(static_cast<std::uint16_t>(i + 1), name, dns::RRType::A);
    const auto outcome = resolver.resolve(query, now);
    now += outcome.elapsed;
    run.rcodes.push_back(outcome.response.header.rcode);
    resolver.flush_cache();  // every iteration exercises the network path
  }
  run.resolver_stats = resolver.stats();
  run.fault_stats = network.fault_stats();
  run.pdns_total = store.total_observations();
  run.pdns_nx = store.nx_responses();
  run.pdns_servfail = store.servfail_responses();
  return run;
}

TEST(FaultDeterminism, SameSeedSameResolverStats) {
  const auto a = chaos_resolve(7, chaos_spec());
  const auto b = chaos_resolve(7, chaos_spec());
  EXPECT_EQ(a.resolver_stats, b.resolver_stats);
  EXPECT_EQ(a.fault_stats, b.fault_stats);
  EXPECT_EQ(a.rcodes, b.rcodes);
  EXPECT_EQ(a.pdns_total, b.pdns_total);
  EXPECT_EQ(a.pdns_nx, b.pdns_nx);
  EXPECT_EQ(a.pdns_servfail, b.pdns_servfail);
  // The chaos actually bit: some retries happened.
  EXPECT_GT(a.resolver_stats.retries, 0u);
}

// The core measurement invariant: loss must never masquerade as
// non-existence.  Under drop-only faults every query for a *registered*
// domain either succeeds or degrades to SERVFAIL — an NXDomain here would
// poison the paper's core metric.
TEST(FaultSemantics, LossNeverFabricatesNXDomain) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    resolver::DnsHierarchy hierarchy;
    const auto name = dns::DomainName::must("exists.com");
    hierarchy.register_domain(name, dns::IPv4::from_octets(203, 0, 113, 7));

    net::SimNetwork network;
    FaultPlan plan(seed);
    FaultSpec spec;
    spec.drop = 0.5;  // brutal loss, but only loss
    plan.set_default(spec);
    network.set_fault_plan(std::move(plan));
    hierarchy.attach(network);

    resolver::RecursiveResolver resolver(hierarchy);
    resolver.use_network(network, {}, resolver::RetryPolicy{}, seed);

    int servfails = 0;
    for (int i = 0; i < 200; ++i) {
      const auto rcode = resolver.resolve_rcode(name, i * 10);
      EXPECT_NE(rcode, dns::RCode::NXDomain) << "seed " << seed << " query " << i;
      if (rcode == dns::RCode::ServFail) ++servfails;
      resolver.flush_cache();
    }
    // At 50% per-hop loss some walks must have exhausted their retries.
    EXPECT_GT(servfails, 0) << "seed " << seed;
  }
}

// Corruption can flip any bit — including the rcode — so the resolver must
// reject an NXDomain reply that lacks its RFC 2308 SOA proof rather than
// believe it.  Registered-domain queries under corrupt-only faults therefore
// also never yield NXDomain.
TEST(FaultSemantics, CorruptionNeverFabricatesNXDomain) {
  resolver::DnsHierarchy hierarchy;
  const auto name = dns::DomainName::must("solid.net");
  hierarchy.register_domain(name, dns::IPv4::from_octets(203, 0, 113, 9));

  net::SimNetwork network;
  FaultPlan plan(11);
  FaultSpec spec;
  spec.corrupt = 0.6;
  spec.truncate = 0.2;
  plan.set_default(spec);
  network.set_fault_plan(std::move(plan));
  hierarchy.attach(network);

  resolver::RecursiveResolver resolver(hierarchy);
  resolver.use_network(network, {}, resolver::RetryPolicy{}, 11);
  for (int i = 0; i < 200; ++i) {
    EXPECT_NE(resolver.resolve_rcode(name, i * 10), dns::RCode::NXDomain);
    resolver.flush_cache();
  }
}

TEST(FaultWindow, ScopedOutageRecoversOnExit) {
  resolver::DnsHierarchy hierarchy;
  const auto name = dns::DomainName::must("steady.com");
  hierarchy.register_domain(name, dns::IPv4::from_octets(203, 0, 113, 1));

  net::SimNetwork network;
  network.set_fault_plan(FaultPlan(5));
  hierarchy.attach(network);
  resolver::RecursiveResolver resolver(hierarchy);
  resolver.use_network(network);

  EXPECT_EQ(resolver.resolve_rcode(name, 0), dns::RCode::NoError);
  resolver.flush_cache();
  {
    net::FaultWindow dark(network.fault_plan());  // total outage
    EXPECT_EQ(resolver.resolve_rcode(name, 100), dns::RCode::ServFail);
    resolver.flush_cache();
  }
  // Window closed: service restored, and SERVFAIL was never cached.
  EXPECT_EQ(resolver.resolve_rcode(name, 200), dns::RCode::NoError);
  EXPECT_GT(network.fault_stats().outage_drops, 0u);
}

TEST(FaultWindow, SingleEndpointOutageOnlyDarkensThatServer) {
  FaultPlan plan(1);
  const Endpoint other{dns::IPv4::from_octets(192, 0, 2, 2), 53};
  std::vector<std::uint8_t> payload = {1};
  {
    net::FaultWindow dead(plan, kDst);
    EXPECT_TRUE(plan.apply(kDst, payload, 0).drop);
    EXPECT_FALSE(plan.apply(other, payload, 0).drop);
    {
      net::FaultWindow nested(plan, kDst);  // windows nest
      EXPECT_TRUE(plan.apply(kDst, payload, 0).drop);
    }
    EXPECT_TRUE(plan.apply(kDst, payload, 0).drop);  // outer still open
  }
  EXPECT_FALSE(plan.apply(kDst, payload, 0).drop);
  EXPECT_EQ(plan.stats().outage_drops, 3u);
}

TEST(FaultWindow, TimedOutageViaNetworkClock) {
  resolver::DnsHierarchy hierarchy;
  const auto name = dns::DomainName::must("clocked.com");
  hierarchy.register_domain(name, dns::IPv4::from_octets(203, 0, 113, 2));

  net::SimNetwork network;
  util::SimClock clock;
  network.set_clock(&clock);
  FaultPlan plan(5);
  // A cold cache starts every resolution at the root.
  plan.add_outage(resolver::HierarchyEndpoints{}.root, 1'000, 2'000);
  network.set_fault_plan(std::move(plan));
  hierarchy.attach(network);

  resolver::RecursiveResolver resolver(hierarchy);
  resolver.use_network(network);

  clock.advance(500);  // before the outage
  EXPECT_EQ(resolver.resolve_rcode(name, clock.now()), dns::RCode::NoError);
  resolver.flush_cache();
  clock.advance(1'000);  // now == 1500, inside the outage
  EXPECT_EQ(resolver.resolve_rcode(name, clock.now()), dns::RCode::ServFail);
  resolver.flush_cache();
  clock.advance(1'000);  // now == 2500, recovered
  EXPECT_EQ(resolver.resolve_rcode(name, clock.now()), dns::RCode::NoError);
}

// The zero-fault guarantee: a SimNetwork with an empty (or absent) plan is
// byte-identical to the pre-fault-layer network, and the resolver's direct
// path and network path agree on every rcode.
TEST(EmptyPlan, InjectsNothingAndMatchesDirectPath) {
  resolver::DnsHierarchy hierarchy;
  std::vector<dns::DomainName> names;
  for (int d = 0; d < 5; ++d) {
    auto name = dns::DomainName::must("site" + std::to_string(d) + ".org");
    hierarchy.register_domain(name, dns::IPv4::from_octets(203, 0, 113, 3));
    names.push_back(std::move(name));
  }
  names.push_back(dns::DomainName::must("missing.org"));
  names.push_back(dns::DomainName::must("nothere.dev"));

  net::SimNetwork network;
  network.set_fault_plan(FaultPlan(99));  // seeded but no specs: still empty
  EXPECT_TRUE(network.fault_plan().empty());
  hierarchy.attach(network);

  resolver::RecursiveResolver via_net(hierarchy);
  via_net.use_network(network);
  resolver::RecursiveResolver direct(hierarchy);

  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto t = static_cast<util::SimTime>(i);
    EXPECT_EQ(via_net.resolve_rcode(names[i], t), direct.resolve_rcode(names[i], t));
    via_net.flush_cache();
    direct.flush_cache();
  }
  EXPECT_EQ(network.fault_stats().total_faults(), 0u);
  const auto& stats = via_net.stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.servfail_responses, 0u);
  // Every upstream packet was delivered; none dropped.
  EXPECT_GT(network.delivered(), 0u);
  EXPECT_EQ(network.dropped(), 0u);
}

// Capture-plane faults: the honeypot recorder loses, mangles, and
// timestamps records through the same stage.
TEST(RecorderFaults, CaptureDropsAndDelaysAreCountedDeterministically) {
  auto run = [](std::uint64_t seed) {
    honeypot::TrafficRecorder recorder;
    FaultPlan plan(seed);
    FaultSpec spec;
    spec.drop = 0.3;
    spec.delay = 0.2;
    plan.set_default(spec);
    recorder.set_fault_plan(&plan);
    for (int i = 0; i < 300; ++i) {
      honeypot::TrafficRecord record;
      record.dst_port = i % 2 ? 80 : 443;
      record.when = i;
      record.payload = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
      recorder.record(std::move(record));
    }
    return std::pair(recorder.total(), recorder.capture_drops());
  };
  const auto a = run(21);
  const auto b = run(21);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.second, 0u);
  EXPECT_EQ(a.first + a.second, 300u);
}

// The real-socket UDP DNS front end routes inbound datagrams through the
// same stage: under an always-drop plan the query is swallowed (and counted)
// instead of answered.
TEST(ServerFaults, UdpServerDropsInboundQueriesUnderFaultPlan) {
  resolver::AuthoritativeServer auth;
  dns::SoaData soa;
  soa.mname = dns::DomainName::must("ns1.fault.test");
  soa.rname = dns::DomainName::must("host.fault.test");
  auth.add_zone(dns::DomainName::must("fault.test"), soa);

  const auto loopback = Endpoint{*dns::IPv4::parse("127.0.0.1"), 0};
  auto server = resolver::UdpDnsServer::create(loopback, auth);
  ASSERT_NE(server, nullptr);

  FaultPlan plan(1);
  FaultSpec spec;
  spec.drop = 1.0;
  plan.set_default(spec);
  server->set_fault_plan(&plan);

  net::EventLoop loop;
  server->attach(loop);
  std::optional<dns::Message> reply;
  std::thread client([&] {
    const auto query =
        dns::make_query(5, dns::DomainName::must("fault.test"), dns::RRType::SOA);
    reply = resolver::udp_query(server->local(), query, 300);
  });
  loop.run_for(std::chrono::milliseconds(600), /*idle_exit=*/false);
  client.join();

  EXPECT_FALSE(reply.has_value());  // the query never reached the parser
  EXPECT_EQ(server->answered(), 0u);
  EXPECT_EQ(server->faulted(), 1u);

  // Plan removed: the same server answers again.
  server->set_fault_plan(nullptr);
  std::optional<dns::Message> healthy;
  std::thread retry([&] {
    const auto query =
        dns::make_query(6, dns::DomainName::must("fault.test"), dns::RRType::SOA);
    healthy = resolver::udp_query(server->local(), query, 2000);
  });
  loop.run_for(std::chrono::milliseconds(1500), /*idle_exit=*/false);
  retry.join();
  ASSERT_TRUE(healthy.has_value());
  EXPECT_EQ(server->answered(), 1u);
}

TEST(RecorderFaults, DuplicateRecordsCaptureTwice) {
  honeypot::TrafficRecorder recorder;
  FaultPlan plan(4);
  FaultSpec spec;
  spec.duplicate = 1.0;
  plan.set_default(spec);
  recorder.set_fault_plan(&plan);
  honeypot::TrafficRecord record;
  record.dst_port = 80;
  record.payload = "x";
  recorder.record(record);
  EXPECT_EQ(recorder.total(), 2u);
  EXPECT_EQ(recorder.port_counts().get("80"), 2u);
}

}  // namespace
}  // namespace nxd
