// Unit tests for nxd::synth — Table 1 data, the honeypot traffic model
// (round-trip through the categorizer), scale models, and the origin corpus.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "honeypot/categorizer.hpp"
#include "honeypot/filter.hpp"
#include "honeypot/forensics.hpp"
#include "synth/origin_model.hpp"
#include "synth/scale_models.hpp"
#include "synth/table1.hpp"
#include "synth/traffic_model.hpp"
#include "synth/user_agents.hpp"

namespace nxd::synth {
namespace {

using honeypot::TrafficCategory;

// ----------------------------------------------------------------- Table 1

TEST(Table1, NineteenDomainsGrandTotalMatchesPaper) {
  const auto& rows = table1_profiles();
  EXPECT_EQ(rows.size(), 19u);
  // Paper: 5,925,311 total HTTP/HTTPS requests — but the paper's printed
  // column totals sum to 5,925,310 (a one-off inconsistency in the paper
  // itself).  Our transcription is reconciled against the column totals.
  EXPECT_EQ(table1_grand_total(), 5'925'310u);
}

TEST(Table1, ColumnTotalsMatchPaper) {
  const auto totals = table1_column_totals();
  // Printed column totals from Table 1.
  const std::uint64_t paper[10] = {82'942,  422'296, 4'151'762, 1'035'096,
                                   29'317,  20'092,  8'317,     39'592,
                                   3'808,   132'088};
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(totals[i], paper[i]) << "column " << i;
  }
}

TEST(Table1, EightMaliciousDomains) {
  int malicious = 0;
  for (const auto& row : table1_profiles()) {
    if (row.malicious) ++malicious;
  }
  EXPECT_EQ(malicious, 8);  // paper: "8 malicious domains and 11 benign"
}

TEST(Table1, GpclickDominatedByMaliciousRequests) {
  for (const auto& row : table1_profiles()) {
    if (row.domain != "gpclick.com") continue;
    const auto malicious = row.count(TrafficCategory::AutoMaliciousRequest);
    EXPECT_EQ(malicious, 939'420u);
    // 98.1% of gpclick's traffic per the paper.
    EXPECT_GT(static_cast<double>(malicious) / row.total(), 0.97);
    return;
  }
  FAIL() << "gpclick.com missing";
}

// -------------------------------------------------------------- user agents

TEST(UserAgents, InAppDistributionTotals3808) {
  std::uint64_t total = 0;
  for (const auto& [app, count] : in_app_distribution()) total += count;
  EXPECT_EQ(total, 3'808u);  // Fig 13 total
}

TEST(UserAgents, SampledAppsFollowDistribution) {
  util::Rng rng(3);
  util::Counter counter;
  for (int i = 0; i < 20'000; ++i) {
    counter.add(honeypot::to_string(sample_in_app(rng)));
  }
  // WhatsApp (26%) must lead, Facebook (16%) second.
  const auto top = counter.top();
  EXPECT_EQ(top[0].first, "WhatsApp");
  EXPECT_EQ(top[1].first, "Facebook");
}

// ---------------------------------------------------------- traffic model

class TrafficModelFixture : public ::testing::Test {
 protected:
  TrafficModelFixture() : model_(make_config()) {}

  static TrafficModelConfig make_config() {
    TrafficModelConfig config;
    config.seed = 11;
    config.scale = 0.002;  // ~12k requests across all domains
    return config;
  }

  HoneypotTrafficModel model_;
};

TEST_F(TrafficModelFixture, RoundTripCategorization) {
  // The heart of the Table-1 reproduction: generated traffic, when pushed
  // through the categorizer, must land in the intended category for the
  // overwhelming majority of requests.
  honeypot::TrafficCategorizer::Config config;
  config.referer_verifier = [this](const std::string& url,
                                   const std::string& domain) {
    return model_.verify_referer(url, domain);
  };
  const auto vuln_db = vuln::VulnDb::with_defaults();
  honeypot::TrafficCategorizer categorizer(vuln_db, model_.rdns(), config);

  std::uint64_t total = 0, matched = 0;
  for (const auto& profile : table1_profiles()) {
    const auto records = model_.generate_domain(profile);
    // Reconstruct intended counts at this scale.
    std::size_t index = 0;
    for (std::size_t ci = 0; ci < 10; ++ci) {
      const auto intended = static_cast<std::uint64_t>(
          static_cast<double>(profile.counts[ci]) * 0.002 + 0.5);
      for (std::uint64_t i = 0; i < intended; ++i, ++index) {
        ASSERT_LT(index, records.size());
        const auto result = categorizer.categorize(records[index]);
        ++total;
        if (static_cast<std::size_t>(result.category) == ci) ++matched;
      }
    }
    EXPECT_EQ(index, records.size()) << profile.domain;
  }
  ASSERT_GT(total, 5'000u);
  EXPECT_GT(static_cast<double>(matched) / static_cast<double>(total), 0.995)
      << matched << "/" << total;
}

TEST_F(TrafficModelFixture, NoiseIsFullyFiltered) {
  honeypot::TrafficRecorder no_hosting, control;
  model_.fill_no_hosting_baseline(no_hosting);
  model_.fill_control_group(control);

  honeypot::TrafficFilter filter;
  filter.learn_no_hosting(no_hosting);
  filter.learn_control_group(control);

  const auto noise = model_.generate_noise("resheba.online", 500);
  const auto kept = filter.apply(noise);
  EXPECT_TRUE(kept.empty()) << kept.size() << " noise records survived";
}

TEST_F(TrafficModelFixture, MeasurementTrafficSurvivesFilter) {
  honeypot::TrafficRecorder no_hosting, control;
  model_.fill_no_hosting_baseline(no_hosting);
  model_.fill_control_group(control);
  honeypot::TrafficFilter filter;
  filter.learn_no_hosting(no_hosting);
  filter.learn_control_group(control);

  const auto records = model_.generate_domain(table1_profiles()[0]);
  const auto kept = filter.apply(records);
  // Real measurement traffic must pass nearly untouched.
  EXPECT_GT(static_cast<double>(kept.size()) /
                static_cast<double>(records.size()),
            0.99);
}

TEST_F(TrafficModelFixture, DeterministicUnderSeed) {
  HoneypotTrafficModel twin(make_config());
  const auto a = model_.generate_domain(table1_profiles()[3]);
  const auto b = twin.generate_domain(table1_profiles()[3]);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].payload, b[i].payload);
    EXPECT_EQ(a[i].source.ip, b[i].source.ip);
  }
}

TEST_F(TrafficModelFixture, GpclickBeaconsParseable) {
  for (const auto& profile : table1_profiles()) {
    if (profile.domain != "gpclick.com") continue;
    const auto records = model_.generate_domain(profile);
    std::size_t beacons = 0;
    for (const auto& record : records) {
      if (const auto http = record.http()) {
        if (honeypot::parse_beacon(*http)) ++beacons;
      }
    }
    // ~939420 * 0.002 ≈ 1879 malicious beacons expected.
    EXPECT_GT(beacons, 1'500u);
    return;
  }
}

// ------------------------------------------------------------ scale models

TEST(MonthlyVolume, PaperTrendShape) {
  const auto& averages = MonthlyVolumeModel::yearly_average_billions();
  // Rising 2014-2016.
  EXPECT_LT(averages.at(2014), averages.at(2015));
  EXPECT_LT(averages.at(2015), averages.at(2016));
  // Near-flat 2016-2020 (within 25%).
  EXPECT_LT(averages.at(2020) / averages.at(2016), 1.25);
  // Steep jump in 2021 (~20 B), above 22 B in 2022.
  EXPECT_GT(averages.at(2021), averages.at(2020) * 1.5);
  EXPECT_GT(averages.at(2021), 19.0);
  EXPECT_GT(averages.at(2022), 22.0);
}

TEST(TldModel, SharesTop5MatchPaper) {
  const auto& shares = TldModel::shares();
  ASSERT_EQ(shares.size(), 20u);
  EXPECT_EQ(shares[0].tld, "com");
  EXPECT_EQ(shares[1].tld, "net");
  EXPECT_EQ(shares[2].tld, "cn");
  EXPECT_EQ(shares[3].tld, "ru");
  EXPECT_EQ(shares[4].tld, "org");
  double name_total = 0;
  for (const auto& share : shares) {
    name_total += share.name_share;
    // Paper: query distribution aligns with name distribution per TLD.
    EXPECT_NEAR(share.query_share, share.name_share, 0.02) << share.tld;
  }
  EXPECT_NEAR(name_total, 0.943, 0.06);  // top-20 covers most of the mass
}

TEST(LifespanModel, SteepThenSlowDecay) {
  EXPECT_DOUBLE_EQ(LifespanModel::survival(0), 1.0);
  // Fast phase: big drop over the first 10 days.
  EXPECT_LT(LifespanModel::survival(10), 0.55);
  // Slow phase: days 30->60 lose far less than days 0->10.
  const double early_drop =
      LifespanModel::survival(0) - LifespanModel::survival(10);
  const double late_drop =
      LifespanModel::survival(30) - LifespanModel::survival(60);
  EXPECT_GT(early_drop, 3 * late_drop);
  // Monotone nonincreasing.
  for (int day = 1; day <= 60; ++day) {
    EXPECT_LE(LifespanModel::survival(day), LifespanModel::survival(day - 1));
  }
}

TEST(LifespanModel, QueriesTrackDomains) {
  const auto series = LifespanModel::expected_series();
  ASSERT_EQ(series.size(), 61u);
  for (const auto& point : series) {
    EXPECT_NEAR(point.queries / point.domains, 7.5, 1e-6);
  }
}

TEST(ExpiryWindowModel, SpikeNearDayThirty) {
  // The spike: the post-expiry day with the highest expectation.
  int spike = 1;
  for (const auto& [day, value] : ExpiryWindowModel::expected_series()) {
    if (day >= 1 && value > ExpiryWindowModel::expected(spike)) spike = day;
  }
  EXPECT_GE(spike, 25);
  EXPECT_LE(spike, 35);
  // The spike exceeds the pre-expiry level (paper: "the number of queries
  // even exceeds that before domain expiration").
  EXPECT_GT(ExpiryWindowModel::expected(spike),
            ExpiryWindowModel::expected(-10));
  // Long-run decline: day 120 well below pre-expiry.
  EXPECT_LT(ExpiryWindowModel::expected(120),
            ExpiryWindowModel::expected(-10) * 0.5);
}

TEST(FillStore, RealizesMonthlyShape) {
  pdns::PassiveDnsStore store;
  const auto total = fill_store_with_history(store, 2e-9, 99);
  EXPECT_GT(total, 500u);
  EXPECT_EQ(store.nx_responses(), total);
  // 2021 volume far exceeds 2016 in the ingested series too.
  std::uint64_t y2016 = 0, y2021 = 0;
  for (const auto& [idx, count] : store.monthly_nx_series()) {
    const int year = static_cast<int>(idx / 12);
    if (year == 2016) y2016 += count;
    if (year == 2021) y2021 += count;
  }
  EXPECT_GT(y2021, y2016);
}

// ------------------------------------------------------------ origin model

TEST(OriginCorpus, PlantedGroundTruthProportions) {
  OriginCorpusConfig config;
  config.expired_count = 20'000;
  const auto corpus = build_origin_corpus(config);

  // Expired + never-registered all present.
  EXPECT_EQ(corpus.all_names.size(),
            corpus.expired.size() + config.expired_count *
                                        config.never_registered_per_expired);
  // Every expired name has WHOIS history; never-registered names have none.
  EXPECT_EQ(corpus.whois_db.domain_count(), corpus.expired.size());

  // DGA fraction ~3% of the base expired set.
  const double dga_fraction = static_cast<double>(corpus.planted_dga.size()) /
                              static_cast<double>(config.expired_count);
  EXPECT_NEAR(dga_fraction, 0.03, 0.006);

  // Squat mix ordering mirrors Fig 7: typo > combo > dot > bit >= homo.
  const auto& squats = corpus.planted_squats_by_type;
  EXPECT_GT(squats[0], squats[1]);
  EXPECT_GT(squats[1], squats[2]);
  EXPECT_GT(squats[2], squats[3]);
  EXPECT_GE(squats[3], squats[4]);

  // Blocklist mix ordering mirrors Fig 8: malware >> grayware ~ phishing > c&c.
  const auto& listed = corpus.planted_blocklist_by_category;
  EXPECT_GT(listed[0], listed[1] * 4);
  EXPECT_GT(listed[1] + listed[2], listed[3]);
  EXPECT_EQ(corpus.blocklist.size(),
            listed[0] + listed[1] + listed[2] + listed[3]);
}

TEST(OriginCorpus, NamesAreUnique) {
  OriginCorpusConfig config;
  config.expired_count = 5'000;
  const auto corpus = build_origin_corpus(config);
  std::set<std::string> seen;
  for (const auto& name : corpus.all_names) {
    EXPECT_TRUE(seen.insert(name.to_string()).second)
        << "duplicate " << name.to_string();
  }
}

TEST(PaperCounts, Figures7And8) {
  const auto fig7 = fig7_paper_counts();
  EXPECT_EQ(fig7[0] + fig7[1] + fig7[2] + fig7[3] + fig7[4], 90'604u);
  const auto fig8 = fig8_paper_counts();
  EXPECT_EQ(fig8[0] + fig8[1] + fig8[2] + fig8[3], 483'887u);
}

}  // namespace
}  // namespace nxd::synth
