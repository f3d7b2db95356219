// Scale analysis (paper §4): queries the passive-DNS store for the Fig 3-6
// aggregates.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pdns/sampler.hpp"
#include "pdns/store.hpp"

namespace nxd::analysis {

struct ScaleSummary {
  std::uint64_t nx_responses = 0;
  std::uint64_t distinct_nxdomains = 0;
  double responses_per_nxdomain = 0;
  /// SERVFAIL observations excluded from the NXDomain aggregates — reported
  /// so a scale figure can show how much of the feed was failure noise
  /// rather than genuine non-existence.
  std::uint64_t servfail_responses = 0;
};

struct MonthlyPoint {
  std::int64_t month_idx;
  std::string label;       // "2021-07"
  std::uint64_t responses;
};

struct TldRow {
  std::string tld;
  std::uint64_t distinct_nxdomains;
  std::uint64_t nx_queries;
};

struct LifespanPoint {
  int days_in_nx;
  std::uint64_t domains;
  std::uint64_t queries;
};

class ScaleAnalysis {
 public:
  explicit ScaleAnalysis(const pdns::PassiveDnsStore& store) : store_(store) {}

  ScaleSummary summary() const;

  /// Fig 3: per-month NXDomain responses over the store's whole span.
  std::vector<MonthlyPoint> monthly_series() const;

  /// Per-year average of the monthly series (the Fig 3 bars).
  std::map<int, double> yearly_monthly_average() const;

  /// Fig 4: top-k TLDs by distinct NXDomains, with query volume.
  std::vector<TldRow> top_tlds(std::size_t k = 20) const;

  /// Fig 5: for each "days since first NX observation" bucket in [0, 60],
  /// how many sampled domains were still being queried at that age and how
  /// many queries they received.  `sampler` reproduces the paper's 1/1000
  /// sampling step (§4.2); pass denominator 1 to disable.
  std::vector<LifespanPoint> lifespan_series(
      const pdns::DomainSampler& sampler) const;

 private:
  const pdns::PassiveDnsStore& store_;
};

}  // namespace nxd::analysis
