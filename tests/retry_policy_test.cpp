// RetryPolicy unit tests: backoff arithmetic, jitter bounds, SimTime
// accounting through the resolver's network path, and the SERVFAIL
// degradation contract (a dead upstream must look like failure, never like
// non-existence).
#include <gtest/gtest.h>

#include <limits>

#include "net/fault.hpp"
#include "net/sim_network.hpp"
#include "resolver/recursive.hpp"
#include "resolver/retry.hpp"
#include "util/rng.hpp"

namespace nxd::resolver {
namespace {

// ------------------------------------------------------------- backoff math

struct BackoffCase {
  int attempt;
  util::SimTime base;
  double multiplier;
  util::SimTime max;
  util::SimTime expected;
};

class BackoffTest : public ::testing::TestWithParam<BackoffCase> {};

TEST_P(BackoffTest, DeterministicWithoutJitter) {
  const auto& c = GetParam();
  RetryPolicy policy;
  policy.backoff_base = c.base;
  policy.backoff_multiplier = c.multiplier;
  policy.backoff_max = c.max;
  policy.jitter = 0;
  util::Rng rng(1);
  EXPECT_EQ(policy.backoff_before(c.attempt, rng), c.expected);
  // jitter == 0 must not have consumed any randomness: the generator still
  // produces the same next value as a fresh same-seed one.
  EXPECT_EQ(rng.next(), util::Rng(1).next());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BackoffTest,
    ::testing::Values(
        // Exponential ladder: 1, 2, 4, 8, 16, then clamped at 30.
        BackoffCase{1, 1, 2.0, 30, 1}, BackoffCase{2, 1, 2.0, 30, 2},
        BackoffCase{3, 1, 2.0, 30, 4}, BackoffCase{4, 1, 2.0, 30, 8},
        BackoffCase{5, 1, 2.0, 30, 16}, BackoffCase{6, 1, 2.0, 30, 30},
        BackoffCase{10, 1, 2.0, 30, 30},
        // Multiplier 1: constant waits.
        BackoffCase{1, 5, 1.0, 30, 5}, BackoffCase{4, 5, 1.0, 30, 5},
        // attempt <= 0 or base <= 0: no wait.
        BackoffCase{0, 1, 2.0, 30, 0}, BackoffCase{-1, 1, 2.0, 30, 0},
        BackoffCase{3, 0, 2.0, 30, 0}));

TEST(RetryPolicy, HugeAttemptCountsClampToMaxInsteadOfOverflowing) {
  // Regression: pow(2, attempt) overflows double to +inf around attempt 1024
  // and llround(+inf) is UB (observed wrapping to LLONG_MIN, which the final
  // max() turned into a zero-second backoff — a retry hot-loop against a
  // dead upstream).  Every large attempt must clamp to exactly backoff_max.
  RetryPolicy policy;  // base=1, mult=2, max=30
  policy.jitter = 0;
  util::Rng rng(9);
  for (const int attempt :
       {32, 63, 64, 65, 1000, 1024, 1'000'000, std::numeric_limits<int>::max()}) {
    EXPECT_EQ(policy.backoff_before(attempt, rng), 30) << attempt;
  }
  // The ladder is monotone non-decreasing all the way up — no wrap-around
  // anywhere between the exact range and the clamped range.
  util::SimTime prev = 0;
  for (int attempt = 1; attempt <= 128; ++attempt) {
    const auto wait = policy.backoff_before(attempt, rng);
    EXPECT_GE(wait, prev) << attempt;
    prev = wait;
  }
  // With jitter on, huge attempts stay within the symmetric band around
  // backoff_max rather than collapsing to zero.
  policy.jitter = 0.25;
  for (int trial = 0; trial < 100; ++trial) {
    const auto wait = policy.backoff_before(5000, rng);
    EXPECT_GE(wait, 22);  // floor(30 * 0.75)
    EXPECT_LE(wait, 38);  // ceil(30 * 1.25)
  }
}

TEST(RetryPolicy, JitterStaysWithinSymmetricBounds) {
  RetryPolicy policy;
  policy.backoff_base = 8;
  policy.backoff_multiplier = 2.0;
  policy.backoff_max = 600;
  policy.jitter = 0.25;
  util::Rng rng(7);
  for (int attempt = 1; attempt <= 4; ++attempt) {
    const double nominal = 8.0 * std::pow(2.0, attempt - 1);
    for (int trial = 0; trial < 200; ++trial) {
      const auto wait = policy.backoff_before(attempt, rng);
      EXPECT_GE(wait, static_cast<util::SimTime>(std::floor(nominal * 0.75)));
      EXPECT_LE(wait, static_cast<util::SimTime>(std::ceil(nominal * 1.25)));
    }
  }
}

TEST(RetryPolicy, JitterIsSeedDeterministic) {
  RetryPolicy policy;
  policy.jitter = 0.5;
  std::vector<util::SimTime> a, b;
  util::Rng ra(3), rb(3);
  for (int attempt = 1; attempt <= 10; ++attempt) {
    a.push_back(policy.backoff_before(attempt, ra));
    b.push_back(policy.backoff_before(attempt, rb));
  }
  EXPECT_EQ(a, b);
}

// --------------------------------------------------- SimTime accounting

TEST(RetryAccounting, TotalOutageCostsAttemptsTimeoutsPlusBackoffs) {
  DnsHierarchy hierarchy;
  const auto name = dns::DomainName::must("anything.com");
  hierarchy.register_domain(name, dns::IPv4::from_octets(203, 0, 113, 1));

  net::SimNetwork network;
  network.set_fault_plan(net::FaultPlan(1));
  hierarchy.attach(network);

  RetryPolicy policy;  // attempts=3, try_timeout=2, base=1, mult=2
  policy.jitter = 0;
  RecursiveResolver resolver(hierarchy);
  resolver.use_network(network, {}, policy);

  net::FaultWindow dark(network.fault_plan());  // everything down
  const auto query = dns::make_query(1, name, dns::RRType::A);
  const auto outcome = resolver.resolve(query, 0);
  EXPECT_EQ(outcome.response.header.rcode, dns::RCode::ServFail);
  // Root tier never answers: 3 tries x 2s timeout + backoffs 1s + 2s = 9s.
  EXPECT_EQ(outcome.elapsed, 9);
  const auto& stats = resolver.stats();
  EXPECT_EQ(stats.timeouts, 3u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.servfail_responses, 1u);
}

TEST(RetryAccounting, SingleAttemptPolicyNeverRetries) {
  DnsHierarchy hierarchy;
  net::SimNetwork network;
  network.set_fault_plan(net::FaultPlan(1));
  hierarchy.attach(network);

  RetryPolicy one_shot;
  one_shot.attempts = 1;
  one_shot.try_timeout = 5;
  RecursiveResolver resolver(hierarchy);
  resolver.use_network(network, {}, one_shot);

  net::FaultWindow dark(network.fault_plan());
  const auto outcome =
      resolver.resolve(dns::make_query(1, dns::DomainName::must("a.com")), 0);
  EXPECT_EQ(outcome.response.header.rcode, dns::RCode::ServFail);
  EXPECT_EQ(outcome.elapsed, 5);
  EXPECT_EQ(resolver.stats().retries, 0u);
  EXPECT_EQ(resolver.stats().timeouts, 1u);
}

// Without a health model a failed try costs its injected transit delay plus
// the fixed try timeout — also when the delayed reply is mangled, and when
// the delayed packet reaches no service at all.  These two cases pin that
// SimTime accounting and the packet counters to exact values.

TEST(RetryAccounting, DelayedMangledReplyCostsDelayPlusTimeout) {
  DnsHierarchy hierarchy;
  net::SimNetwork network;
  const HierarchyEndpoints endpoints;
  // The root answers every query with a reply whose id does not match.
  network.attach(endpoints.root, net::Protocol::UDP,
                 [](const net::SimPacket& packet) {
                   std::vector<std::uint8_t> reply = packet.payload;
                   reply[0] ^= 0xff;
                   reply[2] |= 0x80;  // QR: a response, but not to this query
                   return std::optional<std::vector<std::uint8_t>>(reply);
                 });
  net::FaultPlan plan(1);
  net::FaultSpec slow;
  slow.delay = 1.0;
  slow.delay_min = slow.delay_max = 3;
  plan.set_for(endpoints.root, slow);
  network.set_fault_plan(plan);

  RetryPolicy policy;  // attempts=3, try_timeout=2, base=1, mult=2
  policy.jitter = 0;
  RecursiveResolver resolver(hierarchy);
  resolver.use_network(network, endpoints, policy);

  const auto outcome =
      resolver.resolve(dns::make_query(1, dns::DomainName::must("a.com")), 0);
  EXPECT_EQ(outcome.response.header.rcode, dns::RCode::ServFail);
  // 3 tries x (3s delay + 2s timeout) + backoffs 1s + 2s.
  EXPECT_EQ(outcome.elapsed, 18);
  EXPECT_EQ(resolver.stats().retries, 2u);
  EXPECT_EQ(resolver.stats().timeouts, 3u);
  EXPECT_EQ(resolver.stats().upstream_sends, 3u);
}

TEST(RetryAccounting, DelayedSendToUnattachedEndpointCostsDelayPlusTimeout) {
  DnsHierarchy hierarchy;
  net::SimNetwork network;
  net::FaultPlan plan(1);
  net::FaultSpec slow;
  slow.delay = 1.0;
  slow.delay_min = slow.delay_max = 1;
  plan.set_default(slow);
  network.set_fault_plan(plan);  // nothing attached: every send is dropped

  RetryPolicy policy;
  policy.attempts = 2;
  policy.try_timeout = 4;
  policy.jitter = 0;
  RecursiveResolver resolver(hierarchy);
  resolver.use_network(network, {}, policy);

  const auto outcome =
      resolver.resolve(dns::make_query(1, dns::DomainName::must("b.org")), 0);
  EXPECT_EQ(outcome.response.header.rcode, dns::RCode::ServFail);
  // 2 tries x (1s delay + 4s timeout) + backoff 1s.
  EXPECT_EQ(outcome.elapsed, 11);
  EXPECT_EQ(resolver.stats().retries, 1u);
  EXPECT_EQ(resolver.stats().timeouts, 2u);
  EXPECT_EQ(resolver.stats().upstream_sends, 2u);
}

// ------------------------------------------------- SERVFAIL degradation

TEST(ServFailDegradation, AuthorityOutageIsServFailNotNXDomain) {
  DnsHierarchy hierarchy;
  const auto name = dns::DomainName::must("living.com");
  hierarchy.register_domain(name, dns::IPv4::from_octets(203, 0, 113, 1));

  net::SimNetwork network;
  network.set_fault_plan(net::FaultPlan(1));
  hierarchy.attach(network);
  RecursiveResolver resolver(hierarchy);
  resolver.use_network(network);

  const HierarchyEndpoints endpoints;
  net::FaultWindow auth_down(network.fault_plan(), endpoints.auth);
  // Root and TLD still answer (the referral chain works), but the
  // authoritative server is dark: the walk must degrade to SERVFAIL.
  EXPECT_EQ(resolver.resolve_rcode(name, 0), dns::RCode::ServFail);
  EXPECT_EQ(resolver.stats().servfail_responses, 1u);
  EXPECT_GT(resolver.stats().timeouts, 0u);
}

TEST(ServFailDegradation, NXDomainStillProvableWhileAuthDown) {
  // An undelegated name is proven non-existent by the TLD server, which is
  // up — so a dead authoritative farm must not suppress real NXDomains.
  DnsHierarchy hierarchy;
  hierarchy.register_domain(dns::DomainName::must("other.com"),
                            dns::IPv4::from_octets(203, 0, 113, 1));
  net::SimNetwork network;
  network.set_fault_plan(net::FaultPlan(1));
  hierarchy.attach(network);
  RecursiveResolver resolver(hierarchy);
  resolver.use_network(network);

  const HierarchyEndpoints endpoints;
  net::FaultWindow auth_down(network.fault_plan(), endpoints.auth);
  EXPECT_EQ(resolver.resolve_rcode(dns::DomainName::must("ghost.com"), 0),
            dns::RCode::NXDomain);
}

TEST(ServFailDegradation, ServFailIsNeverCachedAndRecoveryIsImmediate) {
  DnsHierarchy hierarchy;
  const auto name = dns::DomainName::must("flaky.net");
  hierarchy.register_domain(name, dns::IPv4::from_octets(203, 0, 113, 1));

  net::SimNetwork network;
  network.set_fault_plan(net::FaultPlan(1));
  hierarchy.attach(network);
  RecursiveResolver resolver(hierarchy);
  resolver.use_network(network);

  {
    net::FaultWindow dark(network.fault_plan());
    EXPECT_EQ(resolver.resolve_rcode(name, 0), dns::RCode::ServFail);
  }
  // No flush: were SERVFAIL cached, this would still fail.
  EXPECT_EQ(resolver.resolve_rcode(name, 1), dns::RCode::NoError);
  // And the answer now populates the cache as usual.
  EXPECT_EQ(resolver.resolve_rcode(name, 2), dns::RCode::NoError);
  EXPECT_EQ(resolver.stats().cache_hits, 1u);
}

// ----------------------------------------------- parity with direct path

TEST(NetworkPath, PerfectWireMatchesDirectPathAndCountsNoFailures) {
  DnsHierarchy hierarchy;
  hierarchy.register_domain(dns::DomainName::must("alpha.com"),
                            dns::IPv4::from_octets(203, 0, 113, 1));
  hierarchy.register_domain(dns::DomainName::must("beta.org"),
                            dns::IPv4::from_octets(203, 0, 113, 2));

  net::SimNetwork network;
  hierarchy.attach(network);
  RecursiveResolver via_net(hierarchy);
  via_net.use_network(network);
  RecursiveResolver direct(hierarchy);

  const char* cases[] = {"alpha.com", "www.alpha.com", "beta.org",
                         "gone.com", "nope.org", "no.suchtld"};
  for (const char* text : cases) {
    const auto name = dns::DomainName::must(text);
    EXPECT_EQ(via_net.resolve_rcode(name, 0), direct.resolve_rcode(name, 0))
        << text;
    via_net.flush_cache();
    direct.flush_cache();
  }
  const auto& stats = via_net.stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.servfail_responses, 0u);
}

}  // namespace
}  // namespace nxd::resolver
