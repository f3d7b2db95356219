#include "pdns/snapshot.hpp"

#include <algorithm>
#include <numeric>

#include "util/bytes.hpp"

namespace nxd::pdns {

namespace {

constexpr std::uint32_t kMagic = 0x4e584450;  // "NXDP"
// v2: adds the servfail_responses counter after distinct_nx.
constexpr std::uint16_t kVersion = 2;
constexpr std::uint64_t kDayBias = 1ULL << 62;

std::uint64_t bias(std::int64_t v) {
  return static_cast<std::uint64_t>(v) + kDayBias;
}

std::int64_t unbias(std::uint64_t v) {
  return static_cast<std::int64_t>(v - kDayBias);
}

}  // namespace

std::vector<std::uint8_t> save_snapshot(const PassiveDnsStore& store) {
  util::ByteWriter w;
  w.u32(kMagic);
  w.u16(kVersion);
  w.u16(store.config_.track_daily ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(store.totals_.observations >> 32));
  w.u32(static_cast<std::uint32_t>(store.totals_.observations));
  w.u32(static_cast<std::uint32_t>(store.totals_.nx_responses >> 32));
  w.u32(static_cast<std::uint32_t>(store.totals_.nx_responses));
  w.u32(static_cast<std::uint32_t>(store.totals_.distinct_nxdomains >> 32));
  w.u32(static_cast<std::uint32_t>(store.totals_.distinct_nxdomains));
  w.u32(static_cast<std::uint32_t>(store.totals_.servfail_responses >> 32));
  w.u32(static_cast<std::uint32_t>(store.totals_.servfail_responses));

  auto u64 = [&w](std::uint64_t v) {
    w.u32(static_cast<std::uint32_t>(v >> 32));
    w.u32(static_cast<std::uint32_t>(v));
  };

  w.u32(static_cast<std::uint32_t>(store.monthly_nx_.size()));
  for (const auto& [month, count] : store.monthly_nx_) {
    u64(bias(month));
    u64(count);
  }

  // Deterministic order: sort keys.
  std::vector<const std::pair<const std::string, TldAggregate>*> tlds;
  for (const auto& entry : store.tlds_) tlds.push_back(&entry);
  std::sort(tlds.begin(), tlds.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  w.u32(static_cast<std::uint32_t>(tlds.size()));
  for (const auto* entry : tlds) {
    w.u8(static_cast<std::uint8_t>(entry->first.size()));
    w.bytes(entry->first);
    u64(entry->second.nx_queries);
    u64(entry->second.distinct_nx_names);
  }

  const InternTable& names = store.intern_;
  std::vector<std::uint32_t> ids(names.size());
  std::iota(ids.begin(), ids.end(), 0u);
  std::sort(ids.begin(), ids.end(), [&names](std::uint32_t a, std::uint32_t b) {
    return names.name_of(a) < names.name_of(b);
  });
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const std::uint32_t id : ids) {
    const std::string_view name = names.name_of(id);
    const auto& agg = store.domains_[id];
    w.u16(static_cast<std::uint16_t>(name.size()));
    w.bytes(name);
    u64(bias(agg.first_seen));
    u64(bias(agg.last_seen));
    u64(bias(agg.first_nx_seen));
    u64(agg.nx_queries);
    u64(agg.ok_queries);
    w.u32(static_cast<std::uint32_t>(agg.daily_nx.size()));
    for (const auto& [day, count] : agg.daily_nx) {
      u64(bias(day));
      w.u32(count);
    }
  }

  const auto sensors = store.sensor_volume_.top();
  w.u32(static_cast<std::uint32_t>(sensors.size()));
  for (const auto& [sensor, count] : sensors) {
    w.u8(static_cast<std::uint8_t>(sensor.size()));
    w.bytes(sensor);
    u64(count);
  }
  return std::move(w).take();
}

std::optional<PassiveDnsStore> load_snapshot(
    std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  auto u64 = [&r] {
    const std::uint64_t hi = r.u32();
    return (hi << 32) | r.u32();
  };

  if (r.u32() != kMagic) return std::nullopt;
  if (r.u16() != kVersion) return std::nullopt;
  const std::uint16_t flags = r.u16();

  StoreConfig config;
  config.track_daily = (flags & 1) != 0;
  PassiveDnsStore store(config);
  store.totals_.observations = u64();
  store.totals_.nx_responses = u64();
  store.totals_.distinct_nxdomains = u64();
  store.totals_.servfail_responses = u64();

  // Every section count is validated against the bytes actually present
  // (each entry has a known minimum encoding size) before its loop runs, so
  // a corrupted count field fails fast instead of iterating 2^32 times
  // inserting garbage entries.  save_snapshot writes the month, TLD, domain
  // and per-domain day sections in strictly ascending key order; a repeated
  // or out-of-order key is corruption (loading it would silently merge
  // entries), so it is rejected.
  auto plausible = [&r](std::uint32_t count, std::size_t min_entry_bytes) {
    return static_cast<std::uint64_t>(count) * min_entry_bytes <=
           r.remaining();
  };

  const std::uint32_t months = r.u32();
  if (!r.ok() || !plausible(months, 16)) return std::nullopt;
  for (std::uint32_t i = 0; i < months && r.ok(); ++i) {
    const auto month = unbias(u64());
    if (i > 0 && month <= store.monthly_nx_.rbegin()->first) {
      return std::nullopt;
    }
    store.monthly_nx_.emplace_hint(store.monthly_nx_.end(), month, u64());
  }

  const std::uint32_t tlds = r.u32();
  if (!r.ok() || !plausible(tlds, 17)) return std::nullopt;
  std::string prev_tld;
  for (std::uint32_t i = 0; i < tlds && r.ok(); ++i) {
    std::string tld = r.str(r.u8());
    if (i > 0 && tld <= prev_tld) return std::nullopt;
    TldAggregate agg;
    agg.nx_queries = u64();
    agg.distinct_nx_names = u64();
    store.tlds_.emplace(tld, agg);
    prev_tld = std::move(tld);
  }

  const std::uint32_t domains = r.u32();
  if (!r.ok() || !plausible(domains, 46)) return std::nullopt;
  for (std::uint32_t i = 0; i < domains && r.ok(); ++i) {
    const std::string name = r.str(r.u16());
    if (i > 0 && name <= store.intern_.name_of(store.intern_.size() - 1)) {
      return std::nullopt;
    }
    DomainAggregate agg;
    agg.first_seen = unbias(u64());
    agg.last_seen = unbias(u64());
    agg.first_nx_seen = unbias(u64());
    agg.nx_queries = u64();
    agg.ok_queries = u64();
    const std::uint32_t days = r.u32();
    if (!r.ok() || !plausible(days, 12)) return std::nullopt;
    util::Day prev_day = INT64_MIN;
    for (std::uint32_t d = 0; d < days && r.ok(); ++d) {
      const auto day = unbias(u64());
      if (d > 0 && day <= prev_day) return std::nullopt;
      agg.daily_nx[day] = r.u32();
      prev_day = day;
    }
    store.domains_[store.index_domain(name).id] = std::move(agg);
  }

  const std::uint32_t sensors = r.u32();
  if (!r.ok() || !plausible(sensors, 9)) return std::nullopt;
  for (std::uint32_t i = 0; i < sensors && r.ok(); ++i) {
    const std::string sensor = r.str(r.u8());
    store.sensor_volume_.add(sensor, u64());
  }

  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return store;
}

}  // namespace nxd::pdns
