// Unit tests for nxd::blocklist (categorized blocklist + rate limiter) and
// nxd::vuln (NVD-substitute sensitive-URI database).
#include <gtest/gtest.h>

#include "blocklist/blocklist.hpp"
#include "util/token_bucket.hpp"
#include "vuln/vuln_db.hpp"

namespace nxd {
namespace {

using blocklist::Blocklist;
using blocklist::RateLimitedClient;
using blocklist::ThreatCategory;
using util::TokenBucket;
using dns::DomainName;

// ------------------------------------------------------------ TokenBucket

TEST(TokenBucket, ConsumesCapacityThenDenies) {
  TokenBucket bucket(3, 0);  // no refill
  EXPECT_TRUE(bucket.try_acquire(0));
  EXPECT_TRUE(bucket.try_acquire(0));
  EXPECT_TRUE(bucket.try_acquire(0));
  EXPECT_FALSE(bucket.try_acquire(0));
  EXPECT_EQ(bucket.granted(), 3u);
  EXPECT_EQ(bucket.denied(), 1u);
}

TEST(TokenBucket, RefillsOverTime) {
  TokenBucket bucket(1, 2.0);  // 2 tokens/sec
  EXPECT_TRUE(bucket.try_acquire(0));
  EXPECT_FALSE(bucket.try_acquire(0));
  EXPECT_TRUE(bucket.try_acquire(1));  // 2 tokens refilled, capped at 1
  EXPECT_FALSE(bucket.try_acquire(1));
}

TEST(TokenBucket, CapacityCapped) {
  TokenBucket bucket(5, 100.0);
  EXPECT_NEAR(bucket.tokens_at(1000), 5.0, 1e-9);  // never exceeds capacity
}

TEST(TokenBucket, NonMonotonicTimeSafe) {
  TokenBucket bucket(2, 1.0);
  EXPECT_TRUE(bucket.try_acquire(10));
  // Clock going backwards must not mint tokens.
  EXPECT_TRUE(bucket.try_acquire(5));
  EXPECT_FALSE(bucket.try_acquire(5));
}

// -------------------------------------------------------------- Blocklist

TEST(BlocklistStore, AddCheckCount) {
  Blocklist list;
  list.add(DomainName::must("evil.com"), ThreatCategory::Malware, 100, "seen");
  list.add(DomainName::must("phish.net"), ThreatCategory::Phishing);
  list.add(DomainName::must("cc.org"), ThreatCategory::CommandAndControl);

  EXPECT_TRUE(list.contains(DomainName::must("evil.com")));
  EXPECT_FALSE(list.contains(DomainName::must("good.com")));
  const auto entry = list.check(DomainName::must("evil.com"));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->category, ThreatCategory::Malware);
  EXPECT_EQ(entry->listed, 100);
  EXPECT_EQ(list.count(ThreatCategory::Malware), 1u);
  EXPECT_EQ(list.count(ThreatCategory::Grayware), 0u);
  EXPECT_EQ(list.size(), 3u);
}

TEST(BlocklistStore, CategoryNames) {
  EXPECT_EQ(to_string(ThreatCategory::Malware), "malware");
  EXPECT_EQ(to_string(ThreatCategory::CommandAndControl), "c&c");
}

TEST(RateLimitedCrossRef, BudgetBoundsSample) {
  Blocklist list;
  std::vector<DomainName> corpus;
  for (int i = 0; i < 1000; ++i) {
    const auto name = DomainName::must("d" + std::to_string(i) + ".com");
    corpus.push_back(name);
    if (i % 10 == 0) list.add(name, ThreatCategory::Malware);
  }
  // 100 queries of burst, zero refill at the timescale used: the client can
  // only examine the first ~100 names — the paper's "20 M of 91 M" effect.
  RateLimitedClient client(list, /*qps=*/0.0001, /*burst=*/100);
  const auto result = client.cross_reference(corpus, 0, /*sec/query=*/0.001);
  EXPECT_EQ(result.queried, 100u);
  EXPECT_EQ(result.skipped_rate_limited, 900u);
  EXPECT_EQ(result.listed, 10u);  // every 10th of the first 100
  EXPECT_EQ(result.category_count(ThreatCategory::Malware), 10u);
}

TEST(RateLimitedCrossRef, UnlimitedBudgetSeesAll) {
  Blocklist list;
  std::vector<DomainName> corpus;
  for (int i = 0; i < 100; ++i) {
    corpus.push_back(DomainName::must("d" + std::to_string(i) + ".com"));
  }
  list.add(corpus[7], ThreatCategory::Grayware);
  RateLimitedClient client(list, 1e9, 1e9);
  const auto result = client.cross_reference(corpus, 0);
  EXPECT_EQ(result.queried, 100u);
  EXPECT_EQ(result.skipped_rate_limited, 0u);
  EXPECT_EQ(result.listed, 1u);
}

// ------------------------------------------------------------------ vuln

TEST(Severity, BandsFromCvss) {
  using vuln::Severity;
  EXPECT_EQ(vuln::severity_from_score(0.0), Severity::None);
  EXPECT_EQ(vuln::severity_from_score(2.0), Severity::Low);
  EXPECT_EQ(vuln::severity_from_score(4.0), Severity::Medium);
  EXPECT_EQ(vuln::severity_from_score(6.9), Severity::Medium);
  EXPECT_EQ(vuln::severity_from_score(7.0), Severity::High);
  EXPECT_EQ(vuln::severity_from_score(9.0), Severity::Critical);
  EXPECT_EQ(vuln::to_string(Severity::Critical), "critical");
}

TEST(VulnDb, UriBasename) {
  using vuln::VulnDb;
  EXPECT_EQ(VulnDb::uri_basename("/admin/wp-login.php?redirect=1"),
            "wp-login.php");
  EXPECT_EQ(VulnDb::uri_basename("/WP-LOGIN.PHP"), "wp-login.php");
  EXPECT_EQ(VulnDb::uri_basename("/"), "");
  EXPECT_EQ(VulnDb::uri_basename("status.json"), "status.json");
  EXPECT_EQ(VulnDb::uri_basename("/a/b/c.txt#frag"), "c.txt");
}

TEST(VulnDb, DefaultsFlagPaperFiles) {
  const auto db = vuln::VulnDb::with_defaults();
  EXPECT_TRUE(db.is_sensitive_uri("/wp-login.php"));
  EXPECT_TRUE(db.is_sensitive_uri("/changepasswd.php"));
  EXPECT_TRUE(db.is_sensitive_uri("/getTask.php?imei=1&phone=2"));
  EXPECT_TRUE(db.is_sensitive_uri("/boaform/admin/formlogin"));  // path key
  EXPECT_FALSE(db.is_sensitive_uri("/index.html"));
  EXPECT_FALSE(db.is_sensitive_uri("/status.json"));
  EXPECT_FALSE(db.is_sensitive_uri("/robots.txt"));  // listed but Low
}

TEST(VulnDb, HighestSeverityWins) {
  vuln::VulnDb db;
  db.add("multi.php", vuln::Advisory{"CVE-1", 3.0, "low issue"});
  db.add("multi.php", vuln::Advisory{"CVE-2", 9.5, "critical issue"});
  EXPECT_EQ(db.file_severity("multi.php"), vuln::Severity::Critical);
  EXPECT_EQ(db.advisories("multi.php").size(), 2u);
  EXPECT_EQ(db.file_severity("unknown.php"), vuln::Severity::None);
}

}  // namespace
}  // namespace nxd
