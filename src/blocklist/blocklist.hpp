// Categorized domain blocklist — the Palo Alto Networks URL-filtering
// substitute (paper §5.2 "Blocklisted Domains").
//
// Entries carry a threat category and the day they were listed; lookups can
// be wrapped in a rate-limited client mirroring the commercial API the
// authors hit ("due to the rate limit ... we randomly select 20 million
// expired NXDomains").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dns/name.hpp"
#include "util/civil_time.hpp"
#include "util/token_bucket.hpp"

namespace nxd::blocklist {

enum class ThreatCategory : std::uint8_t {
  Malware,
  Grayware,
  Phishing,
  CommandAndControl,
};

constexpr ThreatCategory kAllCategories[] = {
    ThreatCategory::Malware, ThreatCategory::Grayware, ThreatCategory::Phishing,
    ThreatCategory::CommandAndControl};

std::string to_string(ThreatCategory c);

struct BlocklistEntry {
  ThreatCategory category;
  util::Day listed = 0;
  std::string note;  // free-form analyst annotation
};

class Blocklist {
 public:
  void add(const dns::DomainName& domain, ThreatCategory category,
           util::Day listed = 0, std::string note = {});

  std::optional<BlocklistEntry> check(const dns::DomainName& domain) const;
  bool contains(const dns::DomainName& domain) const;

  std::size_t size() const noexcept { return entries_.size(); }
  std::uint64_t count(ThreatCategory c) const;

 private:
  std::unordered_map<dns::DomainName, BlocklistEntry, dns::DomainNameHash> entries_;
};

struct CrossRefResult {
  std::uint64_t queried = 0;
  std::uint64_t skipped_rate_limited = 0;
  std::uint64_t listed = 0;
  std::uint64_t per_category[4] = {0, 0, 0, 0};

  std::uint64_t category_count(ThreatCategory c) const noexcept {
    return per_category[static_cast<std::size_t>(c)];
  }
};

/// Rate-limited query client.  `queries_per_second` shapes the budget; the
/// cross-reference consumes domains in order, counting (not retrying) the
/// ones the limiter rejects — matching how a fixed analysis window bounds
/// the sample size.
class RateLimitedClient {
 public:
  RateLimitedClient(const Blocklist& blocklist, double queries_per_second,
                    double burst = 1000)
      : blocklist_(blocklist), bucket_(burst, queries_per_second) {}

  std::optional<BlocklistEntry> check(const dns::DomainName& domain,
                                      util::SimTime now);

  /// Cross-reference `domains` sequentially, advancing the simulated clock
  /// by `seconds_per_query` between lookups.
  CrossRefResult cross_reference(const std::vector<dns::DomainName>& domains,
                                 util::SimTime start,
                                 double seconds_per_query = 0.001);

 private:
  const Blocklist& blocklist_;
  util::TokenBucket bucket_;
};

}  // namespace nxd::blocklist
