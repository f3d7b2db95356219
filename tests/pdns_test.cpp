// Unit tests for nxd::pdns — observations, store indexes, SIE channel,
// sampling.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "pdns/observation.hpp"
#include "pdns/sampler.hpp"
#include "pdns/sie_channel.hpp"
#include "pdns/store.hpp"
#include "util/rng.hpp"

namespace nxd::pdns {
namespace {

using dns::DomainName;
using dns::RCode;

Observation nx_obs(const char* name, util::Day day) {
  Observation obs;
  obs.name = DomainName::must(name);
  obs.rcode = RCode::NXDomain;
  obs.when = day * util::kSecondsPerDay;
  return obs;
}

Observation ok_obs(const char* name, util::Day day) {
  Observation obs = nx_obs(name, day);
  obs.rcode = RCode::NoError;
  return obs;
}

// ------------------------------------------------------------ Observation

TEST(Observation, FromQueryResponsePair) {
  const auto query = dns::make_query(9, DomainName::must("gone.example.com"));
  const auto response = dns::make_response(query, RCode::NXDomain);
  const auto obs = observe(query, response, 86'400 * 3 + 5);
  EXPECT_EQ(obs.name.to_string(), "gone.example.com");
  EXPECT_TRUE(obs.is_nxdomain());
  EXPECT_EQ(obs.day(), 3);
}

TEST(SensorId, Labels) {
  EXPECT_EQ((SensorId{SensorClass::Academia, 3}).to_string(), "academia-3");
  EXPECT_EQ(to_string(SensorClass::Isp), "isp");
}

// ------------------------------------------------------------------ Store

TEST(Store, CountsNxVersusOk) {
  PassiveDnsStore store;
  store.ingest(nx_obs("a.com", 10));
  store.ingest(nx_obs("a.com", 11));
  store.ingest(ok_obs("b.com", 10));
  EXPECT_EQ(store.total_observations(), 3u);
  EXPECT_EQ(store.nx_responses(), 2u);
  EXPECT_EQ(store.distinct_nxdomains(), 1u);
  EXPECT_EQ(store.distinct_domains(), 2u);

  const auto* agg = store.domain("a.com");
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->nx_queries, 2u);
  EXPECT_EQ(agg->first_nx_seen, 10);
  EXPECT_EQ(agg->last_seen, 11);
  EXPECT_TRUE(agg->ever_nx());
  EXPECT_FALSE(store.domain("b.com")->ever_nx());
}

TEST(Store, AggregatesAtRegisteredDomainLevel) {
  PassiveDnsStore store;
  store.ingest(nx_obs("www.a.com", 1));
  store.ingest(nx_obs("mail.a.com", 1));
  EXPECT_EQ(store.distinct_nxdomains(), 1u);
  EXPECT_NE(store.domain("a.com"), nullptr);
}

TEST(Store, MonthlySeries) {
  PassiveDnsStore store;
  const util::Day jan = util::to_day(util::CivilDate{2021, 1, 15});
  const util::Day feb = util::to_day(util::CivilDate{2021, 2, 3});
  store.ingest(nx_obs("a.com", jan));
  store.ingest(nx_obs("b.com", jan + 1));
  store.ingest(nx_obs("c.com", feb));
  const std::map<std::int64_t, std::uint64_t> want = {
      {util::month_index(jan), 2}, {util::month_index(feb), 1}};
  EXPECT_EQ(store.monthly_nx_series(), want);
}

TEST(Store, TldIndex) {
  PassiveDnsStore store;
  store.ingest(nx_obs("a.com", 1));
  store.ingest(nx_obs("b.com", 1));
  store.ingest(nx_obs("b.com", 2));
  store.ingest(nx_obs("c.ru", 1));
  const auto top = store.top_tlds(10);
  ASSERT_GE(top.size(), 2u);
  EXPECT_EQ(top[0].first, "com");
  EXPECT_EQ(top[0].second.distinct_nx_names, 2u);
  EXPECT_EQ(top[0].second.nx_queries, 3u);
  EXPECT_EQ(top[1].first, "ru");
}

TEST(Store, HighTrafficSelection) {
  PassiveDnsStore store;
  const util::Day base = util::to_day(util::CivilDate{2022, 3, 1});
  // "hot.com": 12000 queries in one month; "cold.com": 500.
  for (int i = 0; i < 12'000; ++i) {
    store.ingest(nx_obs("hot.com", base + (i % 28)));
  }
  for (int i = 0; i < 500; ++i) {
    store.ingest(nx_obs("cold.com", base + (i % 28)));
  }
  const auto hot = store.high_traffic_nxdomains(10'000);
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_EQ(hot[0], "hot.com");
}

TEST(Store, DailyTrackingOptional) {
  StoreConfig config;
  config.track_daily = false;
  PassiveDnsStore store(config);
  store.ingest(nx_obs("a.com", 1));
  EXPECT_TRUE(store.domain("a.com")->daily_nx.empty());
}

TEST(Store, SensorBreakdown) {
  PassiveDnsStore store;
  Observation obs = nx_obs("a.com", 1);
  obs.sensor.cls = SensorClass::Academia;
  store.ingest(obs);
  obs.sensor.cls = SensorClass::Isp;
  store.ingest(obs);
  store.ingest(obs);
  EXPECT_EQ(store.sensor_volume().get("isp"), 2u);
  EXPECT_EQ(store.sensor_volume().get("academia"), 1u);
}

// ------------------------------------------------------------ SieChannel

TEST(SieChannel, FiltersNonNx) {
  SieChannel channel = SieChannel::nxdomain_channel();
  int received = 0;
  channel.subscribe([&](const Observation&) { ++received; });
  EXPECT_TRUE(channel.publish(nx_obs("a.com", 1)));
  EXPECT_FALSE(channel.publish(ok_obs("b.com", 1)));
  EXPECT_EQ(received, 1);
  EXPECT_EQ(channel.offered(), 2u);
  EXPECT_EQ(channel.forwarded(), 1u);
  EXPECT_EQ(channel.number(), 221);
}

TEST(SieChannel, FansOutToAllSubscribers) {
  SieChannel channel(1, "test", nullptr);
  int a = 0, b = 0;
  channel.subscribe([&](const Observation&) { ++a; });
  channel.subscribe([&](const Observation&) { ++b; });
  channel.publish(nx_obs("x.com", 1));
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

// --------------------------------------------------------------- Sampler

TEST(Sampler, DeterministicPerName) {
  const DomainSampler sampler(1000, 42);
  for (const char* name : {"a.com", "b.net", "c.org"}) {
    EXPECT_EQ(sampler.selected(name), sampler.selected(name));
  }
}

TEST(Sampler, DifferentSeedsDifferentSamples) {
  const DomainSampler s1(10, 1), s2(10, 2);
  int differing = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::string name = "domain-" + std::to_string(i) + ".com";
    if (s1.selected(name) != s2.selected(name)) ++differing;
  }
  EXPECT_GT(differing, 50);
}

class SamplerRatioTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SamplerRatioTest, HitsExpectedFraction) {
  const std::uint64_t denom = GetParam();
  const DomainSampler sampler(denom, 7);
  const int population = 200'000;
  int selected = 0;
  for (int i = 0; i < population; ++i) {
    if (sampler.selected("name-" + std::to_string(i) + ".com")) ++selected;
  }
  const double expected = static_cast<double>(population) /
                          static_cast<double>(denom);
  EXPECT_NEAR(static_cast<double>(selected), expected,
              4 * std::sqrt(expected) + 2)
      << "denominator " << denom;
}

INSTANTIATE_TEST_SUITE_P(Ratios, SamplerRatioTest,
                         ::testing::Values(1, 2, 10, 100, 1000));

TEST(Sampler, FilterPreservesOrder) {
  const DomainSampler sampler(2, 3);
  std::vector<std::string> names;
  for (int i = 0; i < 100; ++i) names.push_back("n" + std::to_string(i) + ".com");
  const auto kept = sampler.filter(names);
  // Kept subset must appear in the original relative order.
  std::size_t cursor = 0;
  for (const auto& name : kept) {
    while (cursor < names.size() && names[cursor] != name) ++cursor;
    ASSERT_LT(cursor, names.size());
  }
  EXPECT_GT(kept.size(), 25u);
  EXPECT_LT(kept.size(), 75u);
}

TEST(Sampler, ZeroDenominatorTreatedAsOne) {
  const DomainSampler sampler(0, 1);
  EXPECT_TRUE(sampler.selected("anything.com"));
}

}  // namespace
}  // namespace nxd::pdns
