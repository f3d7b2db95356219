#include "net/fault.hpp"

#include <algorithm>

namespace nxd::net {

void FaultPlan::set_default(const FaultSpec& spec) {
  default_spec_ = spec;
  has_default_ = true;
}

void FaultPlan::set_for(const Endpoint& dst, const FaultSpec& spec) {
  per_endpoint_[dst] = spec;
}

void FaultPlan::add_outage(const Endpoint& dst, util::SimTime from,
                           util::SimTime until) {
  timed_outages_.push_back(TimedOutage{dst, from, until});
}

bool FaultPlan::in_outage(const Endpoint& dst, util::SimTime now) const {
  if (scoped_total_outages_ > 0) return true;
  if (const auto it = scoped_outages_.find(dst);
      it != scoped_outages_.end() && it->second > 0) {
    return true;
  }
  return std::any_of(timed_outages_.begin(), timed_outages_.end(),
                     [&](const TimedOutage& o) {
                       return now >= o.from && now < o.until && o.dst == dst;
                     });
}

bool FaultPlan::empty() const noexcept {
  if (scoped_total_outages_ > 0 || !scoped_outages_.empty() ||
      !timed_outages_.empty()) {
    return false;
  }
  if (has_default_ && !default_spec_.is_noop()) return false;
  return std::all_of(per_endpoint_.begin(), per_endpoint_.end(),
                     [](const auto& entry) { return entry.second.is_noop(); });
}

const FaultSpec* FaultPlan::spec_for(const Endpoint& dst) const {
  if (const auto it = per_endpoint_.find(dst); it != per_endpoint_.end()) {
    return &it->second;
  }
  return has_default_ ? &default_spec_ : nullptr;
}

FaultVerdict FaultPlan::apply(const Endpoint& dst,
                              std::vector<std::uint8_t>& payload,
                              util::SimTime now) {
  FaultVerdict verdict;
  if (in_outage(dst, now)) {
    ++stats_.outage_drops;
    verdict.drop = true;
    verdict.outage = true;
    return verdict;
  }
  const FaultSpec* spec = spec_for(dst);
  if (spec == nullptr || spec->is_noop()) return verdict;

  // Fixed draw order per fault class, and no draw for a disabled class:
  // the injected sequence depends only on the seed, the spec, and the
  // packet sequence — the determinism the chaos tests pin down.
  if (spec->drop > 0 && rng_.chance(spec->drop)) {
    ++stats_.injected_drops;
    verdict.drop = true;
    return verdict;
  }
  if (spec->corrupt > 0 && !payload.empty() && rng_.chance(spec->corrupt)) {
    const int flips =
        1 + static_cast<int>(rng_.bounded(
                static_cast<std::uint64_t>(std::max(1, spec->max_corrupt_bytes))));
    for (int f = 0; f < flips; ++f) {
      payload[rng_.bounded(payload.size())] ^=
          static_cast<std::uint8_t>(1u << rng_.bounded(8));
    }
    ++stats_.injected_corruptions;
    verdict.corrupted = true;
  }
  if (spec->truncate > 0 && !payload.empty() && rng_.chance(spec->truncate)) {
    payload.resize(rng_.bounded(payload.size()));
    ++stats_.injected_truncations;
    verdict.truncated = true;
  }
  if (spec->duplicate > 0 && rng_.chance(spec->duplicate)) {
    ++stats_.injected_duplicates;
    verdict.duplicate = true;
  }
  if (spec->delay > 0 && rng_.chance(spec->delay)) {
    verdict.delay = rng_.range(spec->delay_min,
                               std::max(spec->delay_min, spec->delay_max));
    ++stats_.injected_delays;
    stats_.total_delay += verdict.delay;
    verdict.delayed = true;
  }
  return verdict;
}

FaultWindow::FaultWindow(FaultPlan& plan) : plan_(plan) {
  ++plan_.scoped_total_outages_;
}

FaultWindow::FaultWindow(FaultPlan& plan, const Endpoint& dst)
    : plan_(plan), dst_(dst) {
  ++plan_.scoped_outages_[dst];
}

FaultWindow::~FaultWindow() {
  if (dst_.has_value()) {
    auto it = plan_.scoped_outages_.find(*dst_);
    if (it != plan_.scoped_outages_.end() && --it->second <= 0) {
      plan_.scoped_outages_.erase(it);
    }
  } else {
    --plan_.scoped_total_outages_;
  }
}

}  // namespace nxd::net
