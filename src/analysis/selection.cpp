#include "analysis/selection.hpp"

#include <algorithm>

namespace nxd::analysis {

std::optional<Candidate> DomainSelector::evaluate(
    const std::string& name, util::Day today,
    const SelectionCriteria& criteria) const {
  const auto* agg = store_.domain(name);
  if (agg == nullptr || !agg->ever_nx()) return std::nullopt;

  // Criterion 2: continuously non-existent for >= min_nx_days.  A positive
  // (NOERROR) observation after first_nx_seen means the name was
  // re-registered meanwhile — not a stable NXDomain.
  const std::int64_t days_in_nx = today - agg->first_nx_seen;
  if (days_in_nx < criteria.min_nx_days) return std::nullopt;
  if (agg->ok_queries > 0 && agg->last_seen > agg->first_nx_seen &&
      agg->nx_queries < agg->ok_queries) {
    return std::nullopt;
  }

  // Criterion 1: peak calendar-month NX query volume.
  const std::uint64_t peak = pdns::peak_monthly_nx(agg->daily_nx);
  if (peak < criteria.min_monthly_queries) return std::nullopt;

  Candidate c;
  c.domain = name;
  c.peak_monthly_queries = peak;
  c.first_nx_seen = agg->first_nx_seen;
  c.days_in_nx = days_in_nx;

  // Criterion 3 annotation: malicious origin?
  const auto parsed = dns::DomainName::parse(name);
  if (parsed) {
    if (const auto entry = blocklist_.check(*parsed)) {
      c.malicious = true;
      c.malicious_reason = "blocklist:" + blocklist::to_string(entry->category);
    } else if (const auto verdict = squat_.classify(*parsed)) {
      c.malicious = true;
      c.malicious_reason = "squat:" + squat::to_string(verdict->type);
    } else if (dga_.classify(*parsed).is_dga) {
      c.malicious = true;
      c.malicious_reason = "dga";
    }
  }
  return c;
}

std::vector<Candidate> DomainSelector::candidates(
    util::Day today, const SelectionCriteria& criteria) const {
  std::vector<Candidate> out;
  for (const auto& name : store_.domain_names_sorted()) {
    if (auto candidate = evaluate(name, today, criteria)) {
      out.push_back(*std::move(candidate));
    }
  }
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    if (a.peak_monthly_queries != b.peak_monthly_queries) {
      return a.peak_monthly_queries > b.peak_monthly_queries;
    }
    return a.domain < b.domain;
  });
  return out;
}

std::vector<Candidate> DomainSelector::select(
    util::Day today, const SelectionCriteria& criteria) const {
  const auto all = candidates(today, criteria);
  std::vector<Candidate> picked;

  // First pass: take by traffic rank.
  for (const auto& candidate : all) {
    if (picked.size() >= criteria.target_count) break;
    picked.push_back(candidate);
  }
  // Quota pass: if too few malicious picks, replace the lowest-traffic
  // benign picks with the highest-traffic unpicked malicious candidates.
  auto malicious_count = [&picked] {
    return static_cast<std::size_t>(
        std::count_if(picked.begin(), picked.end(),
                      [](const Candidate& c) { return c.malicious; }));
  };
  std::size_t next_malicious = 0;
  while (malicious_count() < criteria.min_malicious) {
    // Find the next malicious candidate not already picked.
    while (next_malicious < all.size() &&
           (!all[next_malicious].malicious ||
            std::any_of(picked.begin(), picked.end(),
                        [&](const Candidate& c) {
                          return c.domain == all[next_malicious].domain;
                        }))) {
      ++next_malicious;
    }
    if (next_malicious >= all.size()) break;  // supply exhausted
    // Replace the lowest-traffic benign pick (or just append if short).
    const auto victim =
        std::find_if(picked.rbegin(), picked.rend(),
                     [](const Candidate& c) { return !c.malicious; });
    if (picked.size() < criteria.target_count) {
      picked.push_back(all[next_malicious]);
    } else if (victim != picked.rend()) {
      *victim = all[next_malicious];
    } else {
      break;
    }
    ++next_malicious;
  }
  std::sort(picked.begin(), picked.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.peak_monthly_queries > b.peak_monthly_queries;
            });
  return picked;
}

}  // namespace nxd::analysis
