#include "synth/scale_models.hpp"

#include <cmath>

#include "pdns/store.hpp"

namespace nxd::synth {

// ------------------------------------------------------------------- Fig 3

const std::map<int, double>& MonthlyVolumeModel::yearly_average_billions() {
  // Read off Fig 3: growth 2014-2016, plateau to 2020, steep 2021 rise to
  // ~20 B/month, > 22 B/month in 2022.
  static const std::map<int, double> kAverages = {
      {2014, 4.2},  {2015, 7.1},  {2016, 9.8},  {2017, 10.2}, {2018, 10.6},
      {2019, 11.0}, {2020, 11.8}, {2021, 19.8}, {2022, 22.3},
  };
  return kAverages;
}

double MonthlyVolumeModel::expected(int year, unsigned month) {
  const auto& averages = yearly_average_billions();
  const auto it = averages.find(year);
  if (it == averages.end()) return 0;
  // Mean-preserving within-year slope: interpolate around the year's own
  // average using the neighbouring years, so the series is smooth but each
  // year's monthly mean equals the configured value exactly.
  const double own = it->second;
  const auto prev = averages.find(year - 1);
  const auto next = averages.find(year + 1);
  const double lo = prev != averages.end() ? prev->second : own;
  const double hi = next != averages.end() ? next->second : own;
  const double slope = (hi - lo) / 2.0;
  const double t = (static_cast<double>(month) - 6.5) / 12.0;  // [-0.458, 0.458]
  return (own + slope * t * 0.5) * 1e9;
}

// ------------------------------------------------------------------- Fig 4

const std::vector<TldShare>& TldModel::shares() {
  // Fig 4's top-20; the top five (.com .net .cn .ru .org) lead both
  // the name and the query distribution, and query rank follows name rank.
  static const std::vector<TldShare> kShares = {
      {"com", 0.340, 0.355}, {"net", 0.095, 0.095}, {"cn", 0.082, 0.080},
      {"ru", 0.068, 0.066},  {"org", 0.060, 0.058}, {"info", 0.040, 0.038},
      {"de", 0.032, 0.031},  {"top", 0.030, 0.029}, {"uk", 0.026, 0.026},
      {"br", 0.022, 0.022},  {"xyz", 0.021, 0.021}, {"nl", 0.019, 0.019},
      {"jp", 0.017, 0.017},  {"fr", 0.016, 0.016},  {"it", 0.015, 0.015},
      {"in", 0.014, 0.014},  {"pl", 0.013, 0.013},  {"au", 0.012, 0.012},
      {"ir", 0.011, 0.011},  {"biz", 0.010, 0.010},
  };
  return kShares;
}

std::string TldModel::sample(util::Rng& rng) {
  static const util::DiscreteSampler sampler([] {
    std::vector<double> w;
    for (const auto& share : shares()) w.push_back(share.name_share);
    return w;
  }());
  return shares()[sampler.sample(rng)].tld;
}

// ------------------------------------------------------------------- Fig 5

double LifespanModel::survival(int day) {
  if (day < 0) return 1.0;
  // Two-phase decay: fast re-registration/abandonment over the first ~10
  // days, then a long slow tail — the Fig 5 bar profile.
  return 0.62 * std::exp(-static_cast<double>(day) / 4.5) +
         0.38 * std::exp(-static_cast<double>(day) / 90.0);
}

std::vector<LifespanModel::Point> LifespanModel::expected_series() {
  // Day-0 anchors from Fig 5: ~4e5 domains, ~3e6 queries.
  constexpr double kDomains0 = 4.0e5;
  constexpr double kQueriesPerDomain = 7.5;
  std::vector<Point> out;
  out.reserve(61);
  for (int day = 0; day <= 60; ++day) {
    const double domains = kDomains0 * survival(day);
    out.push_back(Point{day, domains, domains * kQueriesPerDomain});
  }
  return out;
}

// ------------------------------------------------------------------- Fig 6

double ExpiryWindowModel::expected(int day) {
  // Pre-expiry plateau ~1e4 queries/day with a slight decline; post-expiry
  // exponential decay; and the paper's unexplained spike centred near day
  // +30 (the end of the registrar grace period — when delegations are
  // pulled and retry storms hit), peaking near 1e6.
  constexpr double kBase = 1.1e4;
  if (day < 0) {
    return kBase * (1.0 + 0.002 * static_cast<double>(-day));
  }
  const double decay = kBase * std::exp(-static_cast<double>(day) / 55.0);
  const double d = static_cast<double>(day) - 30.0;
  const double spike = 9.5e5 * std::exp(-(d * d) / (2.0 * 4.5 * 4.5));
  return decay + spike + 1.0;
}

std::vector<std::pair<int, double>> ExpiryWindowModel::expected_series() {
  std::vector<std::pair<int, double>> out;
  out.reserve(181);
  for (int day = -60; day <= 120; ++day) {
    out.emplace_back(day, expected(day));
  }
  return out;
}

// ----------------------------------------------------------- name material

NxDomainNameModel::NxDomainNameModel(std::uint64_t seed)
    : words_{"cloud", "shop",  "media", "game",  "play",  "data",  "file",
             "mail",  "news",  "tech",  "host",  "link",  "site",  "blog",
             "live",  "zone",  "hub",   "port",  "cast",  "base",  "loop",
             "grid",  "apex",  "nova",  "flux",  "peak",  "dash",  "byte"} {
  (void)seed;
}

dns::DomainName NxDomainNameModel::next_registrable(util::Rng& rng) const {
  std::string label;
  switch (rng.bounded(3)) {
    case 0:  // dictionary compound ("cloudzone")
      label = words_[rng.bounded(words_.size())] +
              words_[rng.bounded(words_.size())];
      break;
    case 1:  // compound + number ("shophub24")
      label = words_[rng.bounded(words_.size())] +
              words_[rng.bounded(words_.size())] +
              std::to_string(rng.bounded(100));
      break;
    default:  // hyphenated pair ("tech-cast")
      label = words_[rng.bounded(words_.size())] + "-" +
              words_[rng.bounded(words_.size())];
      break;
  }
  return dns::DomainName::must(label + "." + TldModel::sample(rng));
}

dns::DomainName NxDomainNameModel::next(util::Rng& rng) const {
  if (rng.bounded(4) == 2) {
    // Random letters — the never-registered/DGA-looking tail.
    std::string label;
    const std::size_t len = 8 + rng.bounded(8);
    for (std::size_t i = 0; i < len; ++i) {
      label.push_back(static_cast<char>('a' + rng.bounded(26)));
    }
    return dns::DomainName::must(label + "." + TldModel::sample(rng));
  }
  return next_registrable(rng);
}

std::uint64_t fill_store_with_history(pdns::PassiveDnsStore& store,
                                      double scale, std::uint64_t seed) {
  util::Rng rng(seed);
  NxDomainNameModel names(seed);
  std::uint64_t total = 0;

  // A pool of recurring NXDomains: the paper's point is that the *same*
  // names keep being queried, so draw each month's queries over a pool that
  // churns slowly rather than fresh names every time.
  std::vector<dns::DomainName> pool;
  const std::size_t pool_target = 512;
  for (std::size_t i = 0; i < pool_target; ++i) pool.push_back(names.next(rng));

  for (int year = 2014; year <= 2022; ++year) {
    for (unsigned month = 1; month <= 12; ++month) {
      const util::Day month_day0 =
          util::to_day(util::CivilDate{year, month, 1});
      const std::uint64_t volume =
          rng.poisson(MonthlyVolumeModel::expected(year, month) * scale);
      for (std::uint64_t i = 0; i < volume; ++i) {
        // 70% of queries hit the recurring pool, 30% fresh names.
        pdns::Observation obs;
        if (rng.chance(0.7)) {
          obs.name = pool[rng.bounded(pool.size())];
        } else {
          obs.name = names.next(rng);
        }
        obs.rcode = dns::RCode::NXDomain;
        obs.when = (month_day0 + static_cast<util::Day>(rng.bounded(28))) *
                   util::kSecondsPerDay;
        obs.sensor.cls = static_cast<pdns::SensorClass>(rng.bounded(4));
        store.ingest(obs);
        ++total;
      }
      // Slow pool churn: a few names get re-registered and replaced.
      for (int c = 0; c < 4; ++c) {
        pool[rng.bounded(pool.size())] = names.next(rng);
      }
    }
  }
  return total;
}

// ------------------------------------------------ partitionable history

NxHistoryStream::NxHistoryStream(HistoryStreamConfig config)
    : config_(config) {
  const NxDomainNameModel names(config_.seed);
  // One sequential planning pass owns all cross-month state: the recurring
  // pool's churn and the Poisson volume draws.  Everything a month needs
  // afterwards is frozen into its plan.
  util::Rng rng(config_.seed ^ 0x9b1d0a7a11e17ULL);
  constexpr std::size_t kPoolSize = 512;
  std::vector<std::uint32_t> pool(kPoolSize);
  arena_.reserve(kPoolSize + 9 * 12 * 4);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    arena_.push_back(names.next(rng));
    pool[i] = static_cast<std::uint32_t>(i);
  }

  std::uint64_t month_counter = 0;
  for (int year = 2014; year <= 2022; ++year) {
    for (unsigned month = 1; month <= 12; ++month) {
      MonthPlan plan;
      plan.day0 = util::to_day(util::CivilDate{year, month, 1});
      plan.volume = rng.poisson(MonthlyVolumeModel::expected(year, month) *
                                config_.scale);
      util::SplitMix64 child(config_.seed ^
                             (0x9e3779b97f4a7c15ULL * (month_counter + 1)));
      plan.child_seed = child.next();
      plan.pool = pool;  // snapshot before churn, like the serial filler
      planned_total_ += plan.volume;
      months_.push_back(std::move(plan));
      ++month_counter;

      // Slow pool churn: a few names get re-registered and replaced.
      for (int c = 0; c < 4; ++c) {
        arena_.push_back(names.next(rng));
        pool[rng.bounded(kPoolSize)] =
            static_cast<std::uint32_t>(arena_.size() - 1);
      }
    }
  }
}

void NxHistoryStream::generate_month_into(
    const MonthPlan& plan, std::span<pdns::Observation> out) const {
  const NxDomainNameModel names(config_.seed);
  util::Rng rng(plan.child_seed);
  for (std::uint64_t i = 0; i < plan.volume; ++i) {
    pdns::Observation obs;
    // 70% of queries hit the recurring pool, 30% fresh names.
    if (rng.chance(0.7)) {
      obs.name = arena_[plan.pool[rng.bounded(plan.pool.size())]];
    } else {
      obs.name = names.next(rng);
    }
    obs.rcode = dns::RCode::NXDomain;
    if (config_.ok_fraction > 0 && rng.chance(config_.ok_fraction)) {
      obs.rcode = dns::RCode::NoError;
    } else if (config_.servfail_fraction > 0 &&
               rng.chance(config_.servfail_fraction)) {
      obs.rcode = dns::RCode::ServFail;
    }
    obs.when = (plan.day0 + static_cast<util::Day>(rng.bounded(28))) *
               util::kSecondsPerDay;
    obs.sensor.cls = static_cast<pdns::SensorClass>(rng.bounded(4));
    obs.sensor.index = static_cast<std::uint16_t>(rng.bounded(16));
    out[i] = std::move(obs);
  }
}

std::vector<pdns::Observation> NxHistoryStream::month(std::size_t index) const {
  const MonthPlan& plan = months_[index];
  std::vector<pdns::Observation> out(plan.volume);
  generate_month_into(plan, out);
  return out;
}

std::vector<pdns::Observation> NxHistoryStream::all() const {
  std::vector<pdns::Observation> out(planned_total_);
  std::size_t offset = 0;
  for (const auto& plan : months_) {
    generate_month_into(plan,
                        std::span(out).subspan(offset, plan.volume));
    offset += plan.volume;
  }
  return out;
}

std::vector<pdns::Observation> NxHistoryStream::all_parallel(
    util::WorkerPool& pool) const {
  std::vector<std::size_t> offsets(months_.size());
  std::size_t offset = 0;
  for (std::size_t m = 0; m < months_.size(); ++m) {
    offsets[m] = offset;
    offset += months_[m].volume;
  }
  // Each task writes a disjoint range of the preallocated output.
  std::vector<pdns::Observation> out(planned_total_);
  pool.run_indexed(months_.size(), [&](std::size_t m) {
    generate_month_into(
        months_[m], std::span(out).subspan(offsets[m], months_[m].volume));
  });
  return out;
}

}  // namespace nxd::synth
