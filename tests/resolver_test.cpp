// Unit tests for nxd::resolver — zones, authoritative logic, hierarchy,
// caches, recursive resolution, and the UDP front end.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <unordered_map>
#include <thread>
#include <vector>

#include "resolver/authoritative.hpp"
#include "resolver/cache.hpp"
#include "resolver/hierarchy.hpp"
#include "resolver/recursive.hpp"
#include "resolver/udp_server.hpp"
#include "resolver/zone.hpp"
#include "util/rng.hpp"
#include "wire_name.hpp"

namespace nxd::resolver {
namespace {

using dns::DomainName;
using dns::IPv4;
using dns::RCode;
using dns::RRType;

dns::SoaData test_soa() {
  dns::SoaData soa;
  soa.mname = DomainName::must("ns1.example.com");
  soa.rname = DomainName::must("admin.example.com");
  soa.minimum = 300;
  return soa;
}

Zone make_test_zone() {
  Zone zone(DomainName::must("example.com"), test_soa());
  zone.add(dns::make_a(DomainName::must("example.com"), *IPv4::parse("192.0.2.1")));
  zone.add(dns::make_a(DomainName::must("www.example.com"), *IPv4::parse("192.0.2.2")));
  zone.add(dns::make_cname(DomainName::must("alias.example.com"),
                           DomainName::must("www.example.com")));
  zone.add(dns::make_ns(DomainName::must("child.example.com"),
                        DomainName::must("ns1.child-host.net")));
  zone.add(dns::make_a(DomainName::must("deep.tree.example.com"),
                       *IPv4::parse("192.0.2.3")));
  return zone;
}

// ------------------------------------------------------------------- Zone

TEST(Zone, AnswerForExistingRecord) {
  const Zone zone = make_test_zone();
  const auto result = zone.lookup(DomainName::must("www.example.com"), RRType::A);
  EXPECT_EQ(result.kind, LookupKind::Answer);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(std::get<IPv4>(result.records[0].rdata), *IPv4::parse("192.0.2.2"));
}

TEST(Zone, NxDomainForAbsentName) {
  const Zone zone = make_test_zone();
  EXPECT_EQ(zone.lookup(DomainName::must("missing.example.com"), RRType::A).kind,
            LookupKind::NxDomain);
}

TEST(Zone, NoDataForWrongType) {
  const Zone zone = make_test_zone();
  EXPECT_EQ(zone.lookup(DomainName::must("www.example.com"), RRType::MX).kind,
            LookupKind::NoData);
}

TEST(Zone, CnameForAliasedName) {
  const Zone zone = make_test_zone();
  const auto result = zone.lookup(DomainName::must("alias.example.com"), RRType::A);
  EXPECT_EQ(result.kind, LookupKind::CName);
  // Query for the CNAME itself is an Answer, not a chase.
  EXPECT_EQ(zone.lookup(DomainName::must("alias.example.com"), RRType::CNAME).kind,
            LookupKind::Answer);
}

TEST(Zone, DelegationBelowZoneCut) {
  const Zone zone = make_test_zone();
  const auto result =
      zone.lookup(DomainName::must("host.child.example.com"), RRType::A);
  EXPECT_EQ(result.kind, LookupKind::Delegation);
  ASSERT_FALSE(result.records.empty());
  EXPECT_EQ(result.records[0].type(), RRType::NS);
}

TEST(Zone, EmptyNonTerminalIsNoDataNotNx) {
  // "tree.example.com" has no records but "deep.tree.example.com" exists
  // below it — RFC 8020: must not be NXDomain.
  const Zone zone = make_test_zone();
  EXPECT_EQ(zone.lookup(DomainName::must("tree.example.com"), RRType::A).kind,
            LookupKind::NoData);
}

TEST(Zone, OutOfBailiwickIsNxDomain) {
  const Zone zone = make_test_zone();
  EXPECT_EQ(zone.lookup(DomainName::must("other.org"), RRType::A).kind,
            LookupKind::NxDomain);
}

TEST(Zone, RejectsOutOfZoneRecords) {
  Zone zone = make_test_zone();
  const auto before = zone.record_count();
  EXPECT_FALSE(zone.add(dns::make_a(DomainName::must("x.other.org"),
                                    *IPv4::parse("192.0.2.9"))));
  EXPECT_EQ(zone.record_count(), before);
  EXPECT_EQ(zone.lookup(DomainName::must("x.other.org"), RRType::A).kind,
            LookupKind::NxDomain);
}

// ---------------------------------------------------------- Authoritative

TEST(Authoritative, AnswersWithAaBit) {
  AuthoritativeServer auth;
  Zone& zone = auth.add_zone(DomainName::must("example.com"), test_soa());
  zone.add(dns::make_a(DomainName::must("www.example.com"), *IPv4::parse("192.0.2.2")));

  const auto query = dns::make_query(1, DomainName::must("www.example.com"));
  const auto response = auth.answer(query);
  EXPECT_EQ(response.header.rcode, RCode::NoError);
  EXPECT_TRUE(response.header.aa);
  EXPECT_TRUE(response.header.qr);
  ASSERT_EQ(response.answers.size(), 1u);
}

TEST(Authoritative, NxDomainIncludesSoa) {
  AuthoritativeServer auth;
  auth.add_zone(DomainName::must("example.com"), test_soa());
  const auto response =
      auth.answer(dns::make_query(2, DomainName::must("nope.example.com")));
  EXPECT_EQ(response.header.rcode, RCode::NXDomain);
  ASSERT_EQ(response.authorities.size(), 1u);
  EXPECT_EQ(response.authorities[0].type(), RRType::SOA);
  EXPECT_EQ(auth.nxdomains_served(), 1u);
}

TEST(Authoritative, RefusedOutsideAllZones) {
  AuthoritativeServer auth;
  auth.add_zone(DomainName::must("example.com"), test_soa());
  const auto response =
      auth.answer(dns::make_query(3, DomainName::must("other.net")));
  EXPECT_EQ(response.header.rcode, RCode::Refused);
}

TEST(Authoritative, ChasesCnameWithinData) {
  AuthoritativeServer auth;
  Zone& zone = auth.add_zone(DomainName::must("example.com"), test_soa());
  zone.add(dns::make_cname(DomainName::must("a.example.com"),
                           DomainName::must("b.example.com")));
  zone.add(dns::make_a(DomainName::must("b.example.com"), *IPv4::parse("192.0.2.7")));
  const auto response =
      auth.answer(dns::make_query(4, DomainName::must("a.example.com")));
  ASSERT_EQ(response.answers.size(), 2u);
  EXPECT_EQ(response.answers[0].type(), RRType::CNAME);
  EXPECT_EQ(response.answers[1].type(), RRType::A);
}

TEST(Authoritative, MostSpecificZoneWins) {
  AuthoritativeServer auth;
  Zone& parent = auth.add_zone(DomainName::must("example.com"), test_soa());
  Zone& child = auth.add_zone(DomainName::must("sub.example.com"), test_soa());
  parent.add(dns::make_a(DomainName::must("example.com"), *IPv4::parse("192.0.2.1")));
  child.add(dns::make_a(DomainName::must("www.sub.example.com"),
                        *IPv4::parse("192.0.2.8")));
  EXPECT_EQ(auth.find_zone(DomainName::must("www.sub.example.com")), &child);
  EXPECT_EQ(auth.find_zone(DomainName::must("www.example.com")), &parent);
}

TEST(Authoritative, RemoveZone) {
  AuthoritativeServer auth;
  auth.add_zone(DomainName::must("example.com"), test_soa());
  EXPECT_TRUE(auth.remove_zone(DomainName::must("example.com")));
  EXPECT_FALSE(auth.remove_zone(DomainName::must("example.com")));
  EXPECT_EQ(auth.find_zone(DomainName::must("www.example.com")), nullptr);
}

TEST(Authoritative, DuplicateAddZoneReturnsFirst) {
  AuthoritativeServer auth;
  Zone& first = auth.add_zone(DomainName::must("example.com"), test_soa());
  first.add(dns::make_a(DomainName::must("www.example.com"), *IPv4::parse("192.0.2.2")));
  dns::SoaData other = test_soa();
  other.minimum = 60;
  Zone& second = auth.add_zone(DomainName::must("example.com"), other);
  EXPECT_EQ(&second, &first);
  EXPECT_EQ(first.soa().minimum, 300u);
  EXPECT_EQ(auth.zone_count(), 1u);
  // No hidden second zone surfaces once the first is removed.
  EXPECT_TRUE(auth.remove_zone(DomainName::must("example.com")));
  EXPECT_EQ(auth.find_zone(DomainName::must("www.example.com")), nullptr);
  EXPECT_FALSE(auth.remove_zone(DomainName::must("example.com")));
  EXPECT_EQ(auth.zone_count(), 0u);
}

TEST(Authoritative, NestedOriginsAndNamesAboveEveryZone) {
  AuthoritativeServer auth;
  const Zone& outer = auth.add_zone(DomainName::must("example.com"), test_soa());
  const Zone& middle = auth.add_zone(DomainName::must("b.example.com"), test_soa());
  const Zone& inner = auth.add_zone(DomainName::must("a.b.example.com"), test_soa());
  EXPECT_EQ(auth.find_zone(DomainName::must("x.a.b.example.com")), &inner);
  EXPECT_EQ(auth.find_zone(DomainName::must("a.b.example.com")), &inner);
  EXPECT_EQ(auth.find_zone(DomainName::must("b.example.com")), &middle);
  EXPECT_EQ(auth.find_zone(DomainName::must("c.example.com")), &outer);
  EXPECT_EQ(auth.find_zone(DomainName::must("a.example.com")), &outer);
  EXPECT_EQ(auth.find_zone(DomainName::must("com")), nullptr);
  EXPECT_EQ(auth.find_zone(DomainName{}), nullptr);
  EXPECT_EQ(auth.zone_at(DomainName::must("b.example.com")), &middle);
  EXPECT_EQ(auth.zone_at(DomainName::must("x.b.example.com")), nullptr);

  const Zone& root = auth.add_zone(DomainName{}, test_soa());
  EXPECT_EQ(auth.find_zone(DomainName{}), &root);
  EXPECT_EQ(auth.find_zone(DomainName::must("other.net")), &root);
  EXPECT_EQ(auth.find_zone(DomainName::must("x.a.b.example.com")), &inner);
}

// The linear scan the origin index replaced, kept as the reference: the
// zone with the longest origin the name falls under.
const Zone* linear_find_zone(const std::vector<const Zone*>& zones,
                             const DomainName& name) {
  const Zone* best = nullptr;
  for (const Zone* zone : zones) {
    if (name.is_subdomain_of(zone->origin()) &&
        (!best || zone->origin().label_count() > best->origin().label_count())) {
      best = zone;
    }
  }
  return best;
}

// Names over a five-label alphabet, so random origins nest often.
DomainName random_name(util::Rng& rng, std::uint64_t max_labels) {
  static const char* const kLabels[] = {"a", "b", "c", "example", "com"};
  std::vector<std::string> labels;
  for (std::uint64_t n = rng.bounded(max_labels + 1); n > 0; --n) {
    labels.emplace_back(kLabels[rng.bounded(5)]);
  }
  return *test::name_from_labels(labels);
}

TEST(Authoritative, FindZoneMatchesLinearScan) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    AuthoritativeServer auth;
    std::vector<const Zone*> reference;
    const auto hosting = [&](const DomainName& origin) -> const Zone* {
      for (const Zone* zone : reference) {
        if (zone->origin() == origin) return zone;
      }
      return nullptr;
    };
    const auto add = [&](const DomainName& origin) {
      const Zone* existing = hosting(origin);
      const Zone* zone = &auth.add_zone(origin, test_soa());
      if (existing == nullptr) {
        reference.push_back(zone);
      } else {
        ASSERT_EQ(zone, existing);
      }
    };
    const auto check = [&] {
      ASSERT_EQ(auth.zone_count(), reference.size());
      for (int i = 0; i < 64; ++i) {
        const DomainName name = random_name(rng, 6);
        ASSERT_EQ(auth.find_zone(name), linear_find_zone(reference, name))
            << name.to_string();
        ASSERT_EQ(auth.zone_at(name), hosting(name)) << name.to_string();
      }
      for (const Zone* zone : reference) {
        ASSERT_EQ(auth.find_zone(zone->origin()), zone);
        const auto child = zone->origin().child("x");
        ASSERT_EQ(auth.find_zone(*child), linear_find_zone(reference, *child));
      }
    };

    const std::uint64_t zones = 1 + rng.bounded(24);
    for (std::uint64_t i = 0; i < zones; ++i) add(random_name(rng, 4));
    check();

    // Remove about half, then put some back: the index must forget and
    // relearn origins, and the re-added zones are new objects.
    std::vector<DomainName> removed;
    for (std::size_t i = 0; i < reference.size();) {
      if (rng.chance(0.5)) {
        removed.push_back(reference[i]->origin());
        ASSERT_TRUE(auth.remove_zone(removed.back()));
        ASSERT_FALSE(auth.remove_zone(removed.back()));
        reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    check();
    for (const DomainName& origin : removed) {
      if (rng.chance(0.5)) add(origin);
    }
    check();
  }
}

// -------------------------------------------------------------- Hierarchy

TEST(Hierarchy, RegisteredDomainResolves) {
  DnsHierarchy hierarchy;
  ASSERT_TRUE(hierarchy.register_domain(DomainName::must("example.com"),
                                        *IPv4::parse("192.0.2.1")));
  IterativeTrace trace;
  const auto response = hierarchy.resolve_iterative(
      dns::make_query(1, DomainName::must("www.example.com")), &trace);
  EXPECT_EQ(response.header.rcode, RCode::NoError);
  ASSERT_FALSE(response.answers.empty());
  // Root referral -> TLD referral -> authoritative answer: three steps.
  EXPECT_EQ(trace.steps.size(), 3u);
}

TEST(Hierarchy, UnknownTldNxFromRoot) {
  DnsHierarchy hierarchy;
  IterativeTrace trace;
  const auto response = hierarchy.resolve_iterative(
      dns::make_query(2, DomainName::must("x.nosuchtld")), &trace);
  EXPECT_EQ(response.header.rcode, RCode::NXDomain);
  EXPECT_EQ(trace.steps.size(), 1u);
  EXPECT_EQ(trace.steps[0].server, IterationStep::Server::Root);
}

TEST(Hierarchy, UndelegatedDomainNxFromTld) {
  DnsHierarchy hierarchy;
  IterativeTrace trace;
  const auto response = hierarchy.resolve_iterative(
      dns::make_query(3, DomainName::must("unregistered.com")), &trace);
  EXPECT_EQ(response.header.rcode, RCode::NXDomain);
  EXPECT_EQ(trace.steps.size(), 2u);
  EXPECT_EQ(trace.steps[1].server, IterationStep::Server::Tld);
  // The SOA in the authority section is the TLD's (for negative caching).
  ASSERT_FALSE(response.authorities.empty());
}

TEST(Hierarchy, DeregistrationCreatesNxDomain) {
  DnsHierarchy hierarchy;
  const auto domain = DomainName::must("expired.com");
  hierarchy.register_domain(domain, *IPv4::parse("192.0.2.1"));
  EXPECT_EQ(hierarchy
                .resolve_iterative(dns::make_query(4, domain))
                .header.rcode,
            RCode::NoError);
  hierarchy.deregister_domain(domain);
  EXPECT_FALSE(hierarchy.is_registered(domain));
  EXPECT_EQ(hierarchy
                .resolve_iterative(dns::make_query(5, domain))
                .header.rcode,
            RCode::NXDomain);
}

TEST(Hierarchy, DuplicateRegistrationFails) {
  DnsHierarchy hierarchy;
  EXPECT_TRUE(hierarchy.register_domain(DomainName::must("dup.com"),
                                        *IPv4::parse("192.0.2.1")));
  EXPECT_FALSE(hierarchy.register_domain(DomainName::must("dup.com"),
                                         *IPv4::parse("192.0.2.2")));
  EXPECT_FALSE(
      hierarchy.register_domain(DomainName::must("com"), *IPv4::parse("192.0.2.1")));
}

TEST(Hierarchy, NewTldCreatedOnDemand) {
  DnsHierarchy hierarchy;
  EXPECT_FALSE(hierarchy.has_tld("moda"));
  hierarchy.register_domain(DomainName::must("fanserials.moda"),
                            *IPv4::parse("192.0.2.1"));
  EXPECT_TRUE(hierarchy.has_tld("moda"));
}

TEST(Hierarchy, ZonePointersAndRegistrySurviveGrowth) {
  DnsHierarchy hierarchy;
  const char* const tlds[] = {"com", "net", "org"};
  std::vector<DomainName> domains;
  for (int i = 0; i < 10'000; ++i) {
    domains.push_back(DomainName::must("d" + std::to_string(i) + "." + tlds[i % 3]));
  }
  const auto registered = [&] {
    std::size_t count = 0;
    for (const DomainName& domain : domains) count += hierarchy.is_registered(domain);
    return count;
  };

  ASSERT_TRUE(hierarchy.register_domain(domains[0], *IPv4::parse("192.0.2.1")));
  Zone* early = hierarchy.zone_of(domains[0]);
  ASSERT_NE(early, nullptr);
  for (std::size_t i = 1; i < domains.size(); ++i) {
    ASSERT_TRUE(hierarchy.register_domain(domains[i], *IPv4::parse("192.0.2.1")));
    if (i % 2'500 == 0) {
      ASSERT_EQ(registered(), hierarchy.registered_count());
    }
  }
  EXPECT_EQ(hierarchy.registered_count(), domains.size());
  EXPECT_EQ(registered(), domains.size());

  // The index has rehashed many times; the early pointer still names the
  // zone the authoritative tier answers from.
  EXPECT_EQ(hierarchy.zone_of(domains[0]), early);
  const auto mail = DomainName::must("mail.d0.com");
  early->add(dns::make_a(mail, *IPv4::parse("192.0.2.9")));
  const auto answer =
      hierarchy.answer_at(ServerTier::Authoritative, dns::make_query(1, mail));
  ASSERT_EQ(answer.answers.size(), 1u);
  EXPECT_EQ(answer.answers[0].name, mail);

  // Deregistering flips the TLD tier from referral to NXDOMAIN, and
  // re-registering flips it back.
  const auto query = dns::make_query(2, DomainName::must("www.d0.com"));
  EXPECT_TRUE(is_referral(hierarchy.answer_at(ServerTier::Tld, query)));
  hierarchy.deregister_domain(domains[0]);
  EXPECT_FALSE(hierarchy.is_registered(domains[0]));
  EXPECT_EQ(hierarchy.zone_of(domains[0]), nullptr);
  EXPECT_EQ(hierarchy.answer_at(ServerTier::Tld, query).header.rcode,
            RCode::NXDomain);
  EXPECT_EQ(registered(), hierarchy.registered_count());
  EXPECT_EQ(hierarchy.registered_count(), domains.size() - 1);

  ASSERT_TRUE(hierarchy.register_domain(domains[0], *IPv4::parse("192.0.2.2")));
  EXPECT_TRUE(is_referral(hierarchy.answer_at(ServerTier::Tld, query)));
  EXPECT_NE(hierarchy.zone_of(domains[0]), nullptr);
  EXPECT_EQ(registered(), hierarchy.registered_count());
  EXPECT_EQ(hierarchy.registered_count(), domains.size());
}

// ------------------------------------------------------------------ Cache

TEST(Cache, PositiveHitUntilTtlExpiry) {
  ResolverCache cache;
  const auto name = DomainName::must("www.example.com");
  cache.put_positive(name, RRType::A,
                     {dns::make_a(name, *IPv4::parse("192.0.2.1"), 60)}, 1000);
  EXPECT_TRUE(cache.get(name, RRType::A, 1000).has_value());
  EXPECT_TRUE(cache.get(name, RRType::A, 1059).has_value());
  EXPECT_FALSE(cache.get(name, RRType::A, 1060).has_value());  // expired
  EXPECT_EQ(cache.stats().positive_hits, 2u);
  EXPECT_EQ(cache.stats().expirations, 1u);
}

TEST(Cache, NegativeEntryCoversAllTypes) {
  ResolverCache cache;
  const auto name = DomainName::must("gone.example.com");
  dns::SoaData soa = test_soa();
  soa.minimum = 120;
  cache.put_negative(name, soa, 0);
  const auto hit_a = cache.get(name, RRType::A, 10);
  const auto hit_mx = cache.get(name, RRType::MX, 10);
  ASSERT_TRUE(hit_a.has_value());
  ASSERT_TRUE(hit_mx.has_value());
  EXPECT_TRUE(hit_a->negative);
  EXPECT_TRUE(hit_mx->negative);
  EXPECT_FALSE(cache.get(name, RRType::A, 120).has_value());
}

TEST(Cache, NegativeTtlClamped) {
  ResolverCache::Config config;
  config.max_negative_ttl = 100;
  ResolverCache cache(config);
  dns::SoaData soa = test_soa();
  soa.minimum = 100000;
  cache.put_negative(DomainName::must("x.com"), soa, 0);
  EXPECT_TRUE(cache.get(DomainName::must("x.com"), RRType::A, 99).has_value());
  EXPECT_FALSE(cache.get(DomainName::must("x.com"), RRType::A, 100).has_value());
}

TEST(Cache, DisabledNegativeCache) {
  ResolverCache::Config config;
  config.enable_negative = false;
  ResolverCache cache(config);
  cache.put_negative(DomainName::must("x.com"), test_soa(), 0);
  EXPECT_FALSE(cache.get(DomainName::must("x.com"), RRType::A, 1).has_value());
}

TEST(Cache, PositiveTtlUsesMinimumOfSet) {
  ResolverCache cache;
  const auto name = DomainName::must("multi.example.com");
  cache.put_positive(name, RRType::A,
                     {dns::make_a(name, *IPv4::parse("192.0.2.1"), 300),
                      dns::make_a(name, *IPv4::parse("192.0.2.2"), 30)},
                     0);
  EXPECT_TRUE(cache.get(name, RRType::A, 29).has_value());
  EXPECT_FALSE(cache.get(name, RRType::A, 30).has_value());
}

// -------------------------------------------------------------- Recursive

TEST(Recursive, CachesPositiveAnswers) {
  DnsHierarchy hierarchy;
  hierarchy.register_domain(DomainName::must("example.com"),
                            *IPv4::parse("192.0.2.1"));
  RecursiveResolver resolver(hierarchy);

  const auto query = dns::make_query(1, DomainName::must("www.example.com"));
  const auto first = resolver.resolve(query, 0);
  EXPECT_FALSE(first.from_cache);
  const auto second = resolver.resolve(query, 1);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.response.answers, first.response.answers);
  EXPECT_EQ(resolver.stats().upstream_resolutions, 1u);
  EXPECT_EQ(hierarchy.root_queries(), 1u);  // second hit never left the cache
}

TEST(Recursive, NegativeCachingDampensNxStorm) {
  DnsHierarchy hierarchy;
  RecursiveResolver resolver(hierarchy);
  const auto name = DomainName::must("ghost.com");

  // 100 queries inside the negative TTL: only the first reaches upstream.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(resolver.resolve_rcode(name, i), RCode::NXDomain);
  }
  EXPECT_EQ(resolver.stats().upstream_resolutions, 1u);
  EXPECT_EQ(resolver.stats().nxdomain_responses, 100u);

  // After TTL expiry the next query goes upstream again — this is why
  // passive DNS keeps seeing the same NXDomains.
  resolver.resolve_rcode(name, 10'000);
  EXPECT_EQ(resolver.stats().upstream_resolutions, 2u);
}

TEST(Recursive, ObserverSeesEveryResponse) {
  DnsHierarchy hierarchy;
  hierarchy.register_domain(DomainName::must("example.com"),
                            *IPv4::parse("192.0.2.1"));
  RecursiveResolver resolver(hierarchy);
  int observed = 0, cached = 0;
  resolver.set_observer([&](const dns::Message&, const dns::Message&,
                            bool from_cache, util::SimTime) {
    ++observed;
    if (from_cache) ++cached;
  });
  const auto query = dns::make_query(1, DomainName::must("example.com"));
  resolver.resolve(query, 0);
  resolver.resolve(query, 1);
  EXPECT_EQ(observed, 2);
  EXPECT_EQ(cached, 1);
}

TEST(Recursive, FlushForcesReResolution) {
  DnsHierarchy hierarchy;
  hierarchy.register_domain(DomainName::must("example.com"),
                            *IPv4::parse("192.0.2.1"));
  RecursiveResolver resolver(hierarchy);
  const auto query = dns::make_query(1, DomainName::must("example.com"));
  resolver.resolve(query, 0);
  resolver.flush_cache();
  const auto outcome = resolver.resolve(query, 1);
  EXPECT_FALSE(outcome.from_cache);
}

// Sanitized duplicates run the budget sweep on fewer attacker domains.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr int kBudgetDomains = 10'000;
#else
constexpr int kBudgetDomains = 100'000;
#endif

TEST(Recursive, ZoneBudgetMapForgetsExpiredWindows) {
  // NXNS referrals from many distinct attacker domains over advancing sim
  // time.  The per-domain fetch-budget map must stay within twice the
  // domains charged in one window, and its verdicts must match a model
  // that never forgets a domain.
  DnsHierarchy hierarchy;
  const auto addr = *IPv4::parse("203.0.113.66");
  hierarchy.register_domain(DomainName::must("ns-host.net"), addr);
  const std::vector<DomainName> targets = {DomainName::must("ns1.ns-host.net"),
                                           DomainName::must("ns2.ns-host.net")};
  RecursiveResolver resolver(hierarchy);
  ResolverDefenses defenses;
  defenses.zone_fetch_budget = 3;
  defenses.budget_window = 60;
  resolver.set_defenses(defenses);

  struct Window {
    util::SimTime start = 0;
    int spent = 0;
  };
  std::unordered_map<int, Window> model;
  std::map<util::SimTime, std::size_t> window_starts;  // over model entries
  std::uint64_t expected_capped = 0;
  std::size_t max_active = 0;
  std::size_t max_entries = 0;

  // One client query below attacker domain d: a referral to two glueless
  // NS targets, each charged to d's budget.
  const auto referral_from = [&](int d, util::SimTime now) {
    const auto domain = DomainName::must("d" + std::to_string(d) + ".com");
    const auto cut = *domain.child("cut");
    ASSERT_TRUE(hierarchy.register_domain(domain, addr));
    for (const auto& target : targets) {
      hierarchy.zone_of(domain)->add(dns::make_ns(cut, target));
    }
    resolver.resolve(dns::make_query(1, *cut.child("www")), now);
    hierarchy.deregister_domain(domain);

    auto [it, fresh] = model.try_emplace(d);
    Window& window = it->second;
    if (fresh) ++window_starts[window.start];
    for (std::size_t k = 0; k < targets.size(); ++k) {
      if (now >= window.start + defenses.budget_window) {
        --window_starts[window.start];
        window.start = now;
        window.spent = 0;
        ++window_starts[window.start];
      }
      if (window.spent >= defenses.zone_fetch_budget) {
        ++expected_capped;
      } else {
        ++window.spent;
      }
    }
    std::size_t active = 0;
    for (auto w = window_starts.upper_bound(now - defenses.budget_window);
         w != window_starts.end(); ++w) {
      active += w->second;
    }
    max_active = std::max(max_active, active);
    max_entries = std::max(max_entries, resolver.zone_budget_entries());
    ASSERT_LE(resolver.zone_budget_entries(), 2 * max_active) << "d=" << d;
    ASSERT_EQ(resolver.stats().delegation_capped, expected_capped) << "d=" << d;
  };

  // New domains per sim second: 50 in the full run, so about 3000 are
  // charged in each 60 s window.
  constexpr int kPerSecond = kBudgetDomains / 2'000;
  for (int d = 0; d < kBudgetDomains; ++d) {
    const util::SimTime now = d / kPerSecond;
    // Two referrals spend the budget of 3: the fourth NS target is capped.
    referral_from(d, now);
    referral_from(d, now);
    if (d % 10 == 0 && d >= 100) referral_from(d - 100, now);  // in window
    if (d % 10 == 5 && d >= 5000) referral_from(d - 5000, now);  // expired
  }
  // Every verdict kind occurred, and the map stayed far below the number
  // of domains it has seen.
  EXPECT_GT(expected_capped, static_cast<std::uint64_t>(kBudgetDomains));
  EXPECT_GT(resolver.stats().delegation_fetches, 0u);
  EXPECT_LE(max_entries, 2 * max_active);
  EXPECT_LT(max_entries, static_cast<std::size_t>(kBudgetDomains) / 2);
}

// ------------------------------------------------------------- UDP server

TEST(UdpDnsServer, AnswersOverLoopback) {
  AuthoritativeServer auth;
  Zone& zone = auth.add_zone(DomainName::must("example.com"), test_soa());
  zone.add(dns::make_a(DomainName::must("www.example.com"),
                       *IPv4::parse("192.0.2.2")));

  auto server = UdpDnsServer::create(
      net::Endpoint{*IPv4::parse("127.0.0.1"), 0}, auth);
  ASSERT_NE(server, nullptr);

  net::EventLoop loop;
  server->attach(loop);

  // Fire the query from a background thread while the loop runs.
  const auto query = dns::make_query(77, DomainName::must("www.example.com"));
  std::optional<dns::Message> reply;
  std::thread client([&] { reply = udp_query(server->local(), query, 2000); });
  loop.run_for(std::chrono::milliseconds(500), /*idle_exit=*/false);
  client.join();

  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->header.id, 77);
  EXPECT_EQ(reply->header.rcode, RCode::NoError);
  ASSERT_EQ(reply->answers.size(), 1u);
  EXPECT_EQ(server->answered(), 1u);
}

TEST(UdpDnsServer, NxDomainOverLoopback) {
  AuthoritativeServer auth;
  auth.add_zone(DomainName::must("example.com"), test_soa());
  auto server = UdpDnsServer::create(
      net::Endpoint{*IPv4::parse("127.0.0.1"), 0}, auth);
  ASSERT_NE(server, nullptr);

  net::EventLoop loop;
  server->attach(loop);
  const auto query = dns::make_query(78, DomainName::must("gone.example.com"));
  std::optional<dns::Message> reply;
  std::thread client([&] { reply = udp_query(server->local(), query, 2000); });
  loop.run_for(std::chrono::milliseconds(500), /*idle_exit=*/false);
  client.join();

  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->is_nxdomain());
}

}  // namespace
}  // namespace nxd::resolver
