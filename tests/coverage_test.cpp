// Targeted edge-case coverage across modules: corners the main suites
// skirt (categorizer precedence conflicts, filter port semantics, calendar
// boundaries, registry templates, zone-cut subtleties, DGA attribution).
#include <gtest/gtest.h>

#include "dga/attribution.hpp"
#include "honeypot/categorizer.hpp"
#include "honeypot/filter.hpp"
#include "net/reverse_dns.hpp"
#include "resolver/zone.hpp"
#include "util/civil_time.hpp"
#include "vuln/vuln_db.hpp"

namespace nxd {
namespace {

using dns::DomainName;

// --------------------------------------------------- categorizer precedence

class PrecedenceFixture : public ::testing::Test {
 protected:
  PrecedenceFixture()
      : vuln_db_(vuln::VulnDb::with_defaults()),
        categorizer_(vuln_db_, rdns_) {}

  honeypot::Categorization run(const std::string& payload,
                               const char* src = "198.18.7.7") {
    honeypot::TrafficRecord record;
    record.source = net::Endpoint{*dns::IPv4::parse(src), 40000};
    record.dst_port = 80;
    record.domain = "test.com";
    record.payload = payload;
    return categorizer_.categorize(record);
  }

  static std::string req(const char* path, const char* ua,
                         const char* referer = nullptr) {
    std::string out = std::string("GET ") + path + " HTTP/1.1\r\nhost: test.com\r\n";
    if (ua && *ua) out += std::string("user-agent: ") + ua + "\r\n";
    if (referer) out += std::string("referer: ") + referer + "\r\n";
    out += "\r\n";
    return out;
  }

  net::ReverseDnsRegistry rdns_;
  vuln::VulnDb vuln_db_;
  honeypot::TrafficCategorizer categorizer_;
};

TEST_F(PrecedenceFixture, CrawlerIdentityBeatsReferer) {
  // A declared crawler carrying a Referer is still a crawler.
  const auto result = run(req(
      "/index.html",
      "Mozilla/5.0 (compatible; Googlebot/2.1; +http://www.google.com/bot.html)",
      "https://www.google.com/search?q=x"));
  EXPECT_EQ(result.category, honeypot::TrafficCategory::CrawlerSearchEngine);
}

TEST_F(PrecedenceFixture, RefererBeatsSensitiveUri) {
  // Browser + referer + sensitive path: the referral signal wins (a human
  // followed a link to the login page).
  const auto result = run(req("/wp-login.php",
                              "Mozilla/5.0 (Windows NT 10.0) Chrome/114",
                              "https://www.google.com/search?q=login"));
  EXPECT_EQ(result.category, honeypot::TrafficCategory::ReferralSearchEngine);
}

TEST_F(PrecedenceFixture, BrowserUaWithSensitivePathStaysUserVisit) {
  // A real browser hitting wp-login.php without referer is a user visit —
  // only automated processes are escalated to Malicious Request (§6.2).
  const auto result = run(req(
      "/wp-login.php",
      "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, "
      "like Gecko) Chrome/114.0.0.0 Safari/537.36"));
  EXPECT_EQ(result.category, honeypot::TrafficCategory::UserPcMobile);
}

TEST_F(PrecedenceFixture, PostAndHeadMethodsCategorize) {
  const auto post = run("POST /getTask.php?imei=1&phone=%2B1 HTTP/1.1\r\n"
                        "host: test.com\r\nuser-agent: okhttp/4.10\r\n\r\nx=1");
  EXPECT_EQ(post.category, honeypot::TrafficCategory::AutoMaliciousRequest);
  const auto head = run("HEAD / HTTP/1.1\r\nhost: test.com\r\n"
                        "user-agent: curl/7.88\r\n\r\n");
  EXPECT_EQ(head.category, honeypot::TrafficCategory::AutoScriptSoftware);
}

TEST_F(PrecedenceFixture, ExtensionlessPathCountsAsHtmlForCrawlers) {
  const auto result = run(req(
      "/about", "Mozilla/5.0 (compatible; bingbot/2.0; +http://bing.com/bot)"));
  EXPECT_EQ(result.category, honeypot::TrafficCategory::CrawlerSearchEngine);
  const auto file = run(req(
      "/about/logo.svg",
      "Mozilla/5.0 (compatible; bingbot/2.0; +http://bing.com/bot)"));
  EXPECT_EQ(file.category, honeypot::TrafficCategory::CrawlerFileGrabber);
}

// ------------------------------------------------------------ filter corners

TEST(FilterCorners, HttpPortNoiseNotDroppedByPortFingerprint) {
  // Control group saw traffic on port 443; measurement HTTPS must NOT be
  // dropped by the port fingerprint (ports only apply to non-HTTP ports).
  honeypot::TrafficRecorder control;
  honeypot::TrafficRecord le;
  le.source = net::Endpoint{*dns::IPv4::parse("23.178.112.5"), 1};
  le.dst_port = 443;
  le.domain = "control.net";
  le.payload = "GET /.well-known/acme-challenge/tok HTTP/1.1\r\n"
               "host: control.net\r\nuser-agent: LE\r\n\r\n";
  control.record(le);

  honeypot::TrafficFilter filter;
  filter.learn_control_group(control);

  honeypot::TrafficRecord real;
  real.source = net::Endpoint{*dns::IPv4::parse("92.10.10.10"), 2};
  real.dst_port = 443;
  real.domain = "test.com";
  real.payload = "GET /page.html HTTP/1.1\r\nhost: test.com\r\n"
                 "user-agent: Mozilla/5.0 (Windows)\r\n\r\n";
  const auto kept = filter.apply({real});
  EXPECT_EQ(kept.size(), 1u);
}

TEST(FilterCorners, StatsAccumulateAcrossApplyCalls) {
  honeypot::TrafficFilter filter;
  honeypot::TrafficRecorder baseline;
  honeypot::TrafficRecord scan;
  scan.source = net::Endpoint{*dns::IPv4::parse("9.9.9.9"), 1};
  scan.dst_port = 22;
  scan.payload = "x";
  baseline.record(scan);
  filter.learn_no_hosting(baseline);

  filter.apply({scan});
  filter.apply({scan});
  EXPECT_EQ(filter.stats().input, 2u);
  EXPECT_EQ(filter.stats().dropped_ip_scanning, 2u);
}

// --------------------------------------------------------- calendar corners

TEST(CalendarCorners, YearBoundariesAndMonthIndex) {
  using namespace util;
  const Day new_years_eve = to_day(CivilDate{2021, 12, 31});
  const Day new_year = to_day(CivilDate{2022, 1, 1});
  EXPECT_EQ(new_year - new_years_eve, 1);
  EXPECT_EQ(month_index(new_year) - month_index(new_years_eve), 1);
  EXPECT_EQ(format_month(month_index(new_year)), "2022-01");
  // Century non-leap vs 400-year leap.
  EXPECT_EQ(to_day(CivilDate{2100, 3, 1}) - to_day(CivilDate{2100, 2, 28}), 1);
  EXPECT_EQ(to_day(CivilDate{2400, 3, 1}) - to_day(CivilDate{2400, 2, 28}), 2);
}

TEST(CalendarCorners, PreEpochDates) {
  using namespace util;
  const Day d = to_day(CivilDate{1969, 12, 31});
  EXPECT_EQ(d, -1);
  EXPECT_EQ(from_day(d), (CivilDate{1969, 12, 31}));
}

// ------------------------------------------------------------- rDNS corners

TEST(RdnsCorners, TemplateWithoutPlaceholderIsLiteral) {
  net::ReverseDnsRegistry rdns;
  rdns.add_block(*net::Prefix::parse("10.0.0.0/8"), "static.example.org");
  EXPECT_EQ(*rdns.lookup(*dns::IPv4::parse("10.1.2.3")), "static.example.org");
}

TEST(RdnsCorners, EqualLengthPrefixesFirstRegisteredWins) {
  net::ReverseDnsRegistry rdns;
  rdns.add_block(*net::Prefix::parse("10.0.0.0/16"), "first");
  rdns.add_block(*net::Prefix::parse("10.0.0.0/16"), "second");
  EXPECT_EQ(*rdns.lookup(*dns::IPv4::parse("10.0.1.1")), "first");
}

// --------------------------------------------------------- zone-cut corners

TEST(ZoneCorners, ApexNsIsAnswerNotDelegation) {
  dns::SoaData soa;
  soa.mname = DomainName::must("ns1.example.com");
  soa.rname = DomainName::must("admin.example.com");
  resolver::Zone zone(DomainName::must("example.com"), soa);
  zone.add(dns::make_ns(DomainName::must("example.com"),
                        DomainName::must("ns1.example.com")));
  // NS at the apex is authoritative data, not a cut.
  const auto result =
      zone.lookup(DomainName::must("example.com"), dns::RRType::NS);
  EXPECT_EQ(result.kind, resolver::LookupKind::Answer);
  // But a query *below* the apex still resolves inside the zone.
  EXPECT_EQ(zone.lookup(DomainName::must("x.example.com"), dns::RRType::A).kind,
            resolver::LookupKind::NxDomain);
}

TEST(ZoneCorners, DeepDelegationShadowsDeeperRecords) {
  dns::SoaData soa;
  soa.mname = DomainName::must("ns1.example.com");
  soa.rname = DomainName::must("admin.example.com");
  resolver::Zone zone(DomainName::must("example.com"), soa);
  zone.add(dns::make_ns(DomainName::must("sub.example.com"),
                        DomainName::must("ns.elsewhere.net")));
  // A (stale) record below the cut must not be served: the cut wins.
  zone.add(dns::make_a(DomainName::must("www.sub.example.com"),
                       *dns::IPv4::parse("192.0.2.66")));
  const auto result =
      zone.lookup(DomainName::must("www.sub.example.com"), dns::RRType::A);
  EXPECT_EQ(result.kind, resolver::LookupKind::Delegation);
}

// ------------------------------------------------------------- vuln corners

TEST(VulnCorners, CaseInsensitiveAndFragmentHandling) {
  const auto db = vuln::VulnDb::with_defaults();
  EXPECT_TRUE(db.is_sensitive_uri("/WP-LOGIN.PHP"));
  EXPECT_TRUE(db.is_sensitive_uri("/blog/wp-login.php#top"));
  EXPECT_FALSE(db.is_sensitive_uri(""));
  EXPECT_FALSE(db.is_sensitive_uri("/"));
}

// --------------------------------------------------------- DGA attribution

TEST(Attribution, IdentifiesFamilyAndDay) {
  const auto families = dga::all_families();
  dga::FamilyAttributor attributor(families, 19'000, 19'006, 120);
  EXPECT_GT(attributor.index_size(), 1000u);

  // A name from day 19003 of the conficker-style family attributes back.
  const auto probe = families[0]->generate(19'003, 120);
  int attributed = 0;
  for (const auto& name : probe) {
    const auto hit = attributor.attribute(name);
    if (hit) {
      EXPECT_EQ(hit->family, "conficker-style");
      EXPECT_EQ(hit->generation_day, 19'003);
      ++attributed;
    }
  }
  EXPECT_EQ(attributed, 120);
}

TEST(Attribution, OutsideWindowUnattributed) {
  const auto families = dga::all_families();
  dga::FamilyAttributor attributor(families, 19'000, 19'002, 50);
  const auto far_away = families[0]->generate(25'000, 10);
  for (const auto& name : far_away) {
    EXPECT_FALSE(attributor.attribute(name).has_value()) << name.to_string();
  }
  EXPECT_FALSE(
      attributor.attribute(DomainName::must("wikipedia.org")).has_value());
}

}  // namespace
}  // namespace nxd
