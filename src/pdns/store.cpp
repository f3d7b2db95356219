#include "pdns/store.hpp"

#include <algorithm>
#include <type_traits>

namespace nxd::pdns {

namespace {

/// TLD portion of a registered-domain key ("com" for "example.com"); the
/// whole key when it has no dot (single-label names).
std::string_view tld_of_key(std::string_view key) {
  const auto dot = key.rfind('.');
  return dot == std::string_view::npos ? key : key.substr(dot + 1);
}

// Growing domains_ must move each aggregate (keeping its series buffer, which
// cached day cells point into), never copy it.
static_assert(std::is_nothrow_move_constructible_v<DomainAggregate>);

}  // namespace

std::uint64_t peak_monthly_nx(const DailySeries& daily_nx) {
  std::uint64_t peak = 0;
  std::uint64_t month_total = 0;
  std::int64_t month = INT64_MIN;
  for (const auto& [day, count] : daily_nx) {
    const std::int64_t m = util::month_index(day);
    if (m != month) {
      month = m;
      month_total = 0;
    }
    month_total += count;
    peak = std::max(peak, month_total);
  }
  return peak;
}

PassiveDnsStore::PassiveDnsStore(const PassiveDnsStore& other)
    : config_(other.config_),
      totals_(other.totals_),
      intern_(other.intern_),
      domains_(other.domains_),
      tlds_(other.tlds_),
      monthly_nx_(other.monthly_nx_),
      sensor_volume_(other.sensor_volume_),
      caches_(other.caches_.size()),
      m_(other.m_) {
  // The pointer caches (caches_, cached_month_slot_, sensor_slots_) start
  // empty: `other`'s point into `other`.  They refill lazily on ingest.
}

PassiveDnsStore& PassiveDnsStore::operator=(const PassiveDnsStore& other) {
  if (this != &other) *this = PassiveDnsStore(other);  // copy, then move-in
  return *this;
}

IngestCounters::IngestCounters(obs::MetricsRegistry& registry,
                               const obs::LabelSet& labels)
    : observations(registry.counter("nxd_pdns_observations_total",
                                    "Observations ingested", labels)),
      nx_responses(registry.counter("nxd_pdns_nx_responses_total",
                                    "NXDomain observations ingested", labels)),
      servfail_responses(
          registry.counter("nxd_pdns_servfail_responses_total",
                           "SERVFAIL observations ingested", labels)),
      distinct_nxdomains(registry.counter(
          "nxd_pdns_distinct_nxdomains_total",
          "Domains first seen NXDomain during ingest", labels)),
      intern_hits(registry.counter(
          "nxd_pdns_intern_hits_total",
          "Registered-domain keys resolved via the intern table", labels)),
      intern_misses(registry.counter(
          "nxd_pdns_intern_misses_total",
          "Registered-domain keys interned for the first time", labels)) {}

void IngestCounters::add(const IngestTotals& before, const IngestTotals& after) {
  observations.inc(after.observations - before.observations);
  nx_responses.inc(after.nx_responses - before.nx_responses);
  servfail_responses.inc(after.servfail_responses - before.servfail_responses);
  distinct_nxdomains.inc(after.distinct_nxdomains - before.distinct_nxdomains);
  intern_hits.inc(after.intern_hits - before.intern_hits);
  intern_misses.inc(after.intern_misses - before.intern_misses);
}

void PassiveDnsStore::bind_metrics(obs::MetricsRegistry& registry,
                                   const obs::LabelSet& labels) {
  m_ = IngestCounters(registry, labels);
  m_.add({}, ingest_totals());
}

void PassiveDnsStore::ingest(const Observation& obs) {
  std::array<char, 160> key_buf;
  ingest_keyed(registered_domain_key(obs.name, key_buf), obs.rcode, obs.when,
               obs.sensor.cls);
}

void PassiveDnsStore::ingest_view(const ObservationView& view) {
  ingest_keyed(view.registered_key(), view.rcode, view.when, view.sensor.cls);
}

void PassiveDnsStore::ingest_keyed(std::string_view key, dns::RCode rcode,
                                   util::SimTime when, SensorClass cls) {
  ++totals_.observations;
  m_.observations.inc();
  const auto ci = std::min<std::size_t>(static_cast<std::size_t>(cls), 4);
  std::uint64_t*& sensor_cell = sensor_slots_[ci];
  if (sensor_cell == nullptr) {
    sensor_cell = &sensor_volume_.slot(sensor_class_label(cls));
  }
  ++*sensor_cell;

  if (rcode == dns::RCode::ServFail) {
    // A resolution failure says nothing about the name's existence; keep it
    // out of the per-domain aggregates so selection thresholds see only
    // genuine answers.
    ++totals_.servfail_responses;
    m_.servfail_responses.inc();
    return;
  }

  // One intern probe resolves the domain; its aggregate and pointer cache
  // sit at that id.
  const auto [id, inserted] = index_domain(key);
  if (inserted) {
    ++totals_.intern_misses;
    m_.intern_misses.inc();
  } else {
    ++totals_.intern_hits;
    m_.intern_hits.inc();
  }
  IdCache& slot = caches_[id];
  DomainAggregate& agg = domains_[id];
  const util::Day day = when / util::kSecondsPerDay;
  agg.first_seen = std::min(agg.first_seen, day);
  agg.last_seen = std::max(agg.last_seen, day);

  if (rcode != dns::RCode::NXDomain) {
    ++agg.ok_queries;
    return;
  }

  ++totals_.nx_responses;
  m_.nx_responses.inc();
  ++agg.nx_queries;
  const std::int64_t month = util::month_index(day);
  if (cached_month_slot_ == nullptr || month != cached_month_) {
    cached_month_slot_ = &monthly_nx_[month];
    cached_month_ = month;
  }
  *cached_month_slot_ += 1;
  if (config_.track_daily) {
    if (slot.daily_day == day) {
      ++*slot.daily_cell;
    } else {
      slot.daily_cell = &agg.daily_nx[day];
      ++*slot.daily_cell;
      slot.daily_day = day;
    }
  }

  if (slot.tld == nullptr) {
    // The TLD is only needed once per domain (first NX response); derive it
    // lazily from the registered key instead of paying for it per
    // observation.  The key's last label is the name's TLD by construction.
    const std::string_view tld = tld_of_key(key);
    auto tld_it = tlds_.find(tld);
    if (tld_it == tlds_.end()) {
      tld_it = tlds_.try_emplace(std::string(tld)).first;
    }
    slot.tld = &tld_it->second;
  }
  TldAggregate& tld_agg = *slot.tld;
  ++tld_agg.nx_queries;
  if (agg.first_nx_seen == INT64_MAX) {
    agg.first_nx_seen = day;
    ++totals_.distinct_nxdomains;
    m_.distinct_nxdomains.inc();
    ++tld_agg.distinct_nx_names;
  } else {
    agg.first_nx_seen = std::min(agg.first_nx_seen, day);
  }
}

InternTable::Result PassiveDnsStore::index_domain(std::string_view name) {
  const auto result = intern_.intern(name);
  if (result.inserted) {
    domains_.emplace_back();
    caches_.emplace_back();
  }
  return result;
}

void PassiveDnsStore::absorb(const PassiveDnsStore& other) {
  totals_.observations += other.totals_.observations;
  totals_.nx_responses += other.totals_.nx_responses;
  totals_.distinct_nxdomains += other.totals_.distinct_nxdomains;
  totals_.servfail_responses += other.totals_.servfail_responses;

  for (const auto& [month, count] : other.monthly_nx_) {
    monthly_nx_[month] += count;
  }

  // TLD sums first: the domain pass below may need to correct a TLD's
  // distinct count, which requires the entry to exist already.
  for (const auto& [tld, agg] : other.tlds_) {
    TldAggregate& mine = tlds_[tld];
    mine.nx_queries += agg.nx_queries;
    mine.distinct_nx_names += agg.distinct_nx_names;
  }

  for (std::uint32_t other_id = 0; other_id < other.domains_.size();
       ++other_id) {
    const std::string_view name = other.intern_.name_of(other_id);
    const DomainAggregate& agg = other.domains_[other_id];
    const auto [id, inserted] = index_domain(name);
    DomainAggregate& mine = domains_[id];
    if (inserted) {
      mine = agg;
      continue;
    }
    // Both stores saw this domain.  If both saw it go NX, the summed
    // distinct counters double-counted it — correct globally and per TLD.
    if (mine.ever_nx() && agg.ever_nx()) {
      --totals_.distinct_nxdomains;
      const auto tld_it = tlds_.find(tld_of_key(name));
      if (tld_it != tlds_.end()) --tld_it->second.distinct_nx_names;
    }
    mine.first_seen = std::min(mine.first_seen, agg.first_seen);
    mine.last_seen = std::max(mine.last_seen, agg.last_seen);
    mine.first_nx_seen = std::min(mine.first_nx_seen, agg.first_nx_seen);
    mine.nx_queries += agg.nx_queries;
    mine.ok_queries += agg.ok_queries;
    for (const auto& [day, count] : agg.daily_nx) {
      mine.daily_nx[day] += count;
    }
  }

  for (const auto& [sensor, count] : other.sensor_volume_.raw()) {
    sensor_volume_.add(sensor, count);
  }

  // The daily merges above may have reallocated series storage; the cached
  // day cells can dangle.  The TLD pointers stay valid (map nodes never
  // move), as do the month and sensor cells (node-stable maps).
  for (IdCache& slot : caches_) {
    slot.daily_day = INT64_MIN;
    slot.daily_cell = nullptr;
  }
}

const DomainAggregate* PassiveDnsStore::domain(
    std::string_view registered_name) const {
  const auto id = intern_.find(registered_name);
  return id == InternTable::kInvalidId ? nullptr : &domains_[id];
}

std::vector<std::string> PassiveDnsStore::domain_names_sorted() const {
  std::vector<std::string> names;
  names.reserve(intern_.size());
  for (std::uint32_t id = 0; id < intern_.size(); ++id) {
    names.emplace_back(intern_.name_of(id));
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::string> PassiveDnsStore::high_traffic_nxdomains(
    std::uint32_t threshold) const {
  std::vector<std::string> out;
  for (std::uint32_t id = 0; id < intern_.size(); ++id) {
    const DailySeries& daily_nx = domains_[id].daily_nx;
    if (!daily_nx.empty() && peak_monthly_nx(daily_nx) >= threshold) {
      out.emplace_back(intern_.name_of(id));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, TldAggregate>> PassiveDnsStore::top_tlds(
    std::size_t k) const {
  std::vector<std::pair<std::string, TldAggregate>> out(tlds_.begin(),
                                                        tlds_.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second.distinct_nx_names != b.second.distinct_nx_names) {
      return a.second.distinct_nx_names > b.second.distinct_nx_names;
    }
    return a.first < b.first;
  });
  if (k != 0 && out.size() > k) out.resize(k);
  return out;
}

}  // namespace nxd::pdns
