// Tests for nxd::analysis — the §4/§5/§6 pipelines end to end on synthetic
// corpora, verifying that the analyses *recover* the planted ground truth.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "analysis/origin.hpp"
#include "analysis/scale.hpp"
#include "analysis/security.hpp"
#include "synth/origin_model.hpp"
#include "synth/scale_models.hpp"
#include "synth/traffic_model.hpp"
#include "util/rng.hpp"

namespace nxd::analysis {
namespace {

// ----------------------------------------------------------------- §4 scale

class ScaleFixture : public ::testing::Test {
 protected:
  ScaleFixture() {
    synth::fill_store_with_history(store_, /*scale=*/3e-9, /*seed=*/17);
  }
  pdns::PassiveDnsStore store_;
};

TEST_F(ScaleFixture, SummaryCountsConsistent) {
  const ScaleAnalysis analysis(store_);
  const auto summary = analysis.summary();
  EXPECT_GT(summary.nx_responses, 0u);
  EXPECT_GT(summary.distinct_nxdomains, 0u);
  // The paper's core observation: far more NX responses than distinct
  // NXDomains (the same names are queried again and again).
  EXPECT_GT(summary.responses_per_nxdomain, 2.0);
}

TEST_F(ScaleFixture, YearlyAveragesFollowFig3) {
  const ScaleAnalysis analysis(store_);
  const auto yearly = analysis.yearly_monthly_average();
  ASSERT_TRUE(yearly.contains(2014));
  ASSERT_TRUE(yearly.contains(2022));
  EXPECT_GT(yearly.at(2016), yearly.at(2014));
  EXPECT_GT(yearly.at(2021), yearly.at(2020) * 1.3);
  EXPECT_GT(yearly.at(2022), yearly.at(2021) * 0.95);
}

TEST_F(ScaleFixture, TopTldsLedByCom) {
  const ScaleAnalysis analysis(store_);
  const auto tlds = analysis.top_tlds(20);
  ASSERT_FALSE(tlds.empty());
  EXPECT_EQ(tlds[0].tld, "com");
  // Query volume ordering roughly follows name ordering (paper Fig 4).
  EXPECT_GT(tlds[0].nx_queries, tlds.back().nx_queries);
}

TEST_F(ScaleFixture, MonthlySeriesCoversWholeSpan) {
  const ScaleAnalysis analysis(store_);
  const auto series = analysis.monthly_series();
  ASSERT_FALSE(series.empty());
  EXPECT_EQ(series.front().label.substr(0, 4), "2014");
  EXPECT_EQ(series.back().label.substr(0, 4), "2022");
}

TEST(ScaleLifespan, TracksDomainAges) {
  // Hand-build a store where domains age predictably.
  pdns::PassiveDnsStore store;
  auto ingest = [&store](const char* name, util::Day day) {
    pdns::Observation obs;
    obs.name = dns::DomainName::must(name);
    obs.rcode = dns::RCode::NXDomain;
    obs.when = day * util::kSecondsPerDay;
    store.ingest(obs);
  };
  // d1: queried on its first NX day and 10 days later.
  ingest("d1.com", 100);
  ingest("d1.com", 110);
  // d2: only on day 0.
  ingest("d2.com", 100);

  const ScaleAnalysis analysis(store);
  const pdns::DomainSampler keep_all(1, 0);
  const auto series = analysis.lifespan_series(keep_all);
  ASSERT_EQ(series.size(), 61u);
  EXPECT_EQ(series[0].domains, 2u);
  EXPECT_EQ(series[0].queries, 2u);
  EXPECT_EQ(series[10].domains, 1u);
  EXPECT_EQ(series[10].queries, 1u);
  EXPECT_EQ(series[5].domains, 0u);
}

TEST(ScaleLifespan, IndependentOfIngestOrder) {
  // Seeded NX/NOERROR observations over a few hundred domains and a
  // 90-day window, ingested forwards into one store and reversed into
  // another: the two stores index their domains in different orders.
  util::Rng rng(29);
  std::vector<pdns::Observation> observations;
  for (int i = 0; i < 6'000; ++i) {
    pdns::Observation obs;
    obs.name = dns::DomainName::must(
        "d" + std::to_string(rng.bounded(400)) + ".com");
    obs.rcode =
        rng.bounded(5) == 0 ? dns::RCode::NoError : dns::RCode::NXDomain;
    obs.when = static_cast<util::SimTime>(1'000 + rng.bounded(90)) *
               util::kSecondsPerDay;
    observations.push_back(std::move(obs));
  }
  pdns::PassiveDnsStore forward, reversed;
  for (const auto& obs : observations) forward.ingest(obs);
  for (auto it = observations.rbegin(); it != observations.rend(); ++it) {
    reversed.ingest(*it);
  }
  ASSERT_NE(forward.intern_table().name_of(0),
            reversed.intern_table().name_of(0));

  const auto as_tuples = [](const std::vector<LifespanPoint>& series) {
    std::vector<std::tuple<int, std::uint64_t, std::uint64_t>> out;
    for (const auto& p : series) out.emplace_back(p.days_in_nx, p.domains, p.queries);
    return out;
  };
  // The series as a scan in sorted name order computes it.
  const auto sorted_scan = [](const pdns::PassiveDnsStore& store,
                              const pdns::DomainSampler& sampler) {
    std::vector<std::tuple<int, std::uint64_t, std::uint64_t>> out;
    for (int day = 0; day <= 60; ++day) out.emplace_back(day, 0, 0);
    for (const auto& name : store.domain_names_sorted()) {
      const auto* agg = store.domain(name);
      if (!sampler.selected(name) || !agg->ever_nx()) continue;
      for (const auto& [day, count] : agg->daily_nx) {
        const auto age = day - agg->first_nx_seen;
        if (age < 0 || age > 60) continue;
        ++std::get<1>(out[static_cast<std::size_t>(age)]);
        std::get<2>(out[static_cast<std::size_t>(age)]) += count;
      }
    }
    return out;
  };

  for (const auto& sampler :
       {pdns::DomainSampler(1, 0), pdns::DomainSampler(3, 11)}) {
    const auto a = as_tuples(ScaleAnalysis(forward).lifespan_series(sampler));
    const auto b = as_tuples(ScaleAnalysis(reversed).lifespan_series(sampler));
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, sorted_scan(forward, sampler));
    EXPECT_GT(std::get<1>(a[30]), 0u);
  }
}

// ---------------------------------------------------------------- §5 origin

class OriginFixture : public ::testing::Test {
 protected:
  OriginFixture()
      : corpus_([] {
          synth::OriginCorpusConfig config;
          config.expired_count = 15'000;
          config.seed = 23;
          return synth::build_origin_corpus(config);
        }()),
        classifier_(synth::trained_dga_classifier()),
        detector_(squat::SquatDetector::with_defaults()),
        analysis_(corpus_.whois_db, classifier_, detector_, corpus_.blocklist) {}

  synth::OriginCorpus corpus_;
  dga::DgaClassifier classifier_;
  squat::SquatDetector detector_;
  OriginAnalysis analysis_;
};

TEST_F(OriginFixture, WhoisJoinRecoversExpiredSplit) {
  const auto report = analysis_.run(corpus_.all_names);
  EXPECT_EQ(report.total_nxdomains, corpus_.all_names.size());
  EXPECT_EQ(report.expired, corpus_.expired.size());
  EXPECT_EQ(report.never_registered,
            corpus_.all_names.size() - corpus_.expired.size());
  // Paper shape: the expired fraction is a small minority of all NXDomains.
  EXPECT_LT(report.expired_fraction, 0.5);
}

TEST_F(OriginFixture, DgaDetectionNearPlantedFraction) {
  const auto report = analysis_.run(corpus_.all_names);
  const double planted = static_cast<double>(corpus_.planted_dga.size()) /
                         static_cast<double>(corpus_.expired.size());
  const double detected = report.dga_fraction_of_expired;
  // The classifier has imperfect recall on pronounceable families and a
  // small FPR, so require the detected rate to land in a band around the
  // planted 3%: within a factor of two.
  EXPECT_GT(detected, planted * 0.5);
  EXPECT_LT(detected, planted * 2.0);
}

TEST_F(OriginFixture, SquatCountsOrderedLikeFig7) {
  const auto report = analysis_.run(corpus_.all_names);
  const auto& by_type = report.squats_by_type;  // typo, combo, dot, bit, homo
  EXPECT_GT(report.squats_total, 0u);
  // Fig 7 ordering: typo > combo > dot > bit >= homo.
  EXPECT_GT(by_type[0], by_type[1]);
  EXPECT_GT(by_type[1], by_type[2]);
  EXPECT_GE(by_type[2], by_type[3]);
  // Recovery: detected squats within 25% of planted total (detection can
  // also pick up incidental squat-shaped names from the generic pool).
  const double planted = static_cast<double>(corpus_.planted_squats.size());
  EXPECT_GT(static_cast<double>(report.squats_total), planted * 0.75);
}

TEST_F(OriginFixture, BlocklistMixMatchesFig8Proportions) {
  const auto report = analysis_.run(corpus_.all_names);
  ASSERT_GT(report.blocklisted, 0u);
  const double malware_share =
      static_cast<double>(report.blocklisted_by_category[0]) /
      static_cast<double>(report.blocklisted);
  // Paper: malware 79% of blocklisted domains.
  EXPECT_NEAR(malware_share, 0.79, 0.08);
  // Ordering: malware >> grayware, phishing > c&c.
  EXPECT_GT(report.blocklisted_by_category[0],
            report.blocklisted_by_category[1] * 3);
  EXPECT_GT(report.blocklisted_by_category[1] +
                report.blocklisted_by_category[2],
            report.blocklisted_by_category[3]);
}

TEST_F(OriginFixture, RateLimitBoundsBlocklistSample) {
  OriginAnalysisConfig config;
  config.blocklist_qps = 0.000001;
  config.blocklist_burst = 100;  // only ~100 lookups possible
  OriginAnalysis limited(corpus_.whois_db, classifier_, detector_,
                         corpus_.blocklist, config);
  const auto report = limited.run(corpus_.all_names);
  EXPECT_EQ(report.blocklist_sampled, 100u);
  EXPECT_EQ(report.blocklist_skipped, report.expired - 100u);
}

// -------------------------------------------------------------- §6 security

TEST(SecurityPipeline, EndToEndMatrixMatchesTable1Shape) {
  synth::TrafficModelConfig model_config;
  model_config.seed = 31;
  model_config.scale = 0.002;
  const synth::HoneypotTrafficModel model(model_config);

  // Learn the filter exactly as the paper does.
  honeypot::TrafficRecorder no_hosting, control;
  model.fill_no_hosting_baseline(no_hosting);
  model.fill_control_group(control);
  honeypot::TrafficFilter filter;
  filter.learn_no_hosting(no_hosting);
  filter.learn_control_group(control);

  const auto vuln_db = vuln::VulnDb::with_defaults();
  honeypot::TrafficCategorizer::Config cat_config;
  cat_config.referer_verifier = [&model](const std::string& url,
                                         const std::string& domain) {
    return model.verify_referer(url, domain);
  };
  const honeypot::TrafficCategorizer categorizer(vuln_db, model.rdns(),
                                                 cat_config);
  honeypot::BotnetAnalysis botnet(model.rdns());
  SecurityAnalysis analysis(filter, categorizer, botnet);

  // Raw capture: measurement traffic + noise for every domain.
  std::vector<honeypot::TrafficRecord> raw;
  for (const auto& profile : synth::table1_profiles()) {
    const auto records = model.generate_domain(profile);
    raw.insert(raw.end(), records.begin(), records.end());
    const auto noise = model.generate_noise(profile.domain, 50);
    raw.insert(raw.end(), noise.begin(), noise.end());
  }

  const auto report = analysis.run(raw);

  // Noise removed: 19 * 50 records dropped.
  EXPECT_GE(report.filter.dropped_ip_scanning +
                report.filter.dropped_establishment,
            800u);

  // Column dominance mirrors Table 1: script&software is the largest
  // category, malicious requests second.
  using honeypot::TrafficCategory;
  const auto script = report.matrix.category_total(TrafficCategory::AutoScriptSoftware);
  const auto malicious =
      report.matrix.category_total(TrafficCategory::AutoMaliciousRequest);
  const auto crawler_se =
      report.matrix.category_total(TrafficCategory::CrawlerSearchEngine);
  const auto grabber =
      report.matrix.category_total(TrafficCategory::CrawlerFileGrabber);
  EXPECT_GT(script, malicious);
  EXPECT_GT(malicious, grabber);
  EXPECT_GT(grabber, crawler_se);

  // Row dominance: resheba.online is the biggest domain; gpclick.com's
  // traffic is overwhelmingly malicious requests.
  const auto order = report.matrix.domains_by_total();
  ASSERT_FALSE(order.empty());
  EXPECT_EQ(order[0], "resheba.online");
  const auto gpclick_total = report.matrix.domain_total("gpclick.com");
  const auto gpclick_malicious =
      report.matrix.at("gpclick.com", TrafficCategory::AutoMaliciousRequest);
  EXPECT_GT(static_cast<double>(gpclick_malicious) /
                static_cast<double>(gpclick_total),
            0.95);

  // Botnet forensics populated from the malicious stream (Figs 14/15).
  EXPECT_GT(botnet.beacons(), 1'000u);
  const auto hostnames = botnet.by_hostname().top(1);
  ASSERT_FALSE(hostnames.empty());
  EXPECT_NE(hostnames[0].first.find("google-proxy"), std::string::npos);
  EXPECT_NEAR(static_cast<double>(hostnames[0].second) /
                  static_cast<double>(botnet.beacons()),
              0.561, 0.05);
  EXPECT_GT(botnet.by_country_code().get("+7"), botnet.by_country_code().get("+61"));

  // Fig 13: in-app browser identification populated (the exact WhatsApp-led
  // mix is asserted at larger sample sizes in synth_test).
  EXPECT_FALSE(report.in_app_browsers.empty());

  // Fig 10a: HTTP(S) dominates post-filter port mix, and the AWS monitor
  // port 52646 is gone.
  const auto ports = report.ports.top(2);
  ASSERT_GE(ports.size(), 2u);
  EXPECT_TRUE(ports[0].first == "80" || ports[0].first == "443");
  EXPECT_EQ(report.ports.get("52646"), 0u);
}

}  // namespace
}  // namespace nxd::analysis
