#include "analysis/scale.hpp"

#include "util/civil_time.hpp"

namespace nxd::analysis {

ScaleSummary ScaleAnalysis::summary() const {
  ScaleSummary out;
  out.nx_responses = store_.nx_responses();
  out.distinct_nxdomains = store_.distinct_nxdomains();
  out.responses_per_nxdomain =
      out.distinct_nxdomains == 0
          ? 0
          : static_cast<double>(out.nx_responses) /
                static_cast<double>(out.distinct_nxdomains);
  out.servfail_responses = store_.servfail_responses();
  return out;
}

std::vector<MonthlyPoint> ScaleAnalysis::monthly_series() const {
  std::vector<MonthlyPoint> out;
  for (const auto& [idx, count] : store_.monthly_nx_series()) {
    out.push_back(MonthlyPoint{idx, util::format_month(idx), count});
  }
  return out;
}

std::map<int, double> ScaleAnalysis::yearly_monthly_average() const {
  std::map<int, std::pair<std::uint64_t, int>> acc;  // year -> (sum, months)
  for (const auto& [idx, count] : store_.monthly_nx_series()) {
    const int year = static_cast<int>(idx / 12);
    acc[year].first += count;
    acc[year].second += 1;
  }
  std::map<int, double> out;
  for (const auto& [year, sum_months] : acc) {
    out[year] = static_cast<double>(sum_months.first) /
                static_cast<double>(sum_months.second);
  }
  return out;
}

std::vector<TldRow> ScaleAnalysis::top_tlds(std::size_t k) const {
  std::vector<TldRow> out;
  for (const auto& [tld, agg] : store_.top_tlds(k)) {
    out.push_back(TldRow{tld, agg.distinct_nx_names, agg.nx_queries});
  }
  return out;
}

std::vector<LifespanPoint> ScaleAnalysis::lifespan_series(
    const pdns::DomainSampler& sampler) const {
  // Only sums per age, so the store's index order is as good as any.
  std::vector<std::uint64_t> domains(61, 0), queries(61, 0);
  store_.for_each_domain([&](std::string_view name,
                             const pdns::DomainAggregate& agg) {
    if (!agg.ever_nx() || !sampler.selected(name)) return;
    for (const auto& [day, count] : agg.daily_nx) {
      const auto age = day - agg.first_nx_seen;
      if (age < 0 || age > 60) continue;
      ++domains[static_cast<std::size_t>(age)];
      queries[static_cast<std::size_t>(age)] += count;
    }
  });
  std::vector<LifespanPoint> out;
  out.reserve(61);
  for (int day = 0; day <= 60; ++day) {
    out.push_back(LifespanPoint{day, domains[static_cast<std::size_t>(day)],
                                queries[static_cast<std::size_t>(day)]});
  }
  return out;
}

}  // namespace nxd::analysis
