#include "pdns/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "util/bytes.hpp"

namespace nxd::pdns {

namespace {

constexpr std::uint32_t kMagic = 0x4e584450;  // "NXDP"
// v2: adds the servfail_responses counter after distinct_nx.
constexpr std::uint16_t kVersion = 2;
constexpr std::uint64_t kDayBias = 1ULL << 62;

// Encoded sizes: the fixed part of each entry, before its variable bytes.
constexpr std::size_t kHeaderBytes = 4 + 2 + 2 + 4 * 8;  // magic..totals
constexpr std::size_t kCountBytes = 4;                   // each section's count
constexpr std::size_t kMonthBytes = 16;
constexpr std::size_t kTldBytes = 1 + 16;
constexpr std::size_t kDomainBytes = 2 + 5 * 8 + 4;
constexpr std::size_t kDayBytes = 12;
constexpr std::size_t kSensorBytes = 1 + 8;

std::uint64_t bias(std::int64_t v) {
  return static_cast<std::uint64_t>(v) + kDayBias;
}

std::int64_t unbias(std::uint64_t v) {
  return static_cast<std::int64_t>(v - kDayBias);
}

/// Writes big-endian fields front to back into a buffer sized beforehand.
class Cursor {
 public:
  explicit Cursor(std::uint8_t* p) noexcept : p_(p) {}

  void u8(std::uint8_t v) noexcept { *p_++ = v; }
  void u16(std::uint16_t v) noexcept {
    util::store_be16(p_, v);
    p_ += 2;
  }
  void u32(std::uint32_t v) noexcept {
    util::store_be32(p_, v);
    p_ += 4;
  }
  void u64(std::uint64_t v) noexcept {
    util::store_be64(p_, v);
    p_ += 8;
  }
  void bytes(std::string_view s) noexcept {
    std::memcpy(p_, s.data(), s.size());
    p_ += s.size();
  }

 private:
  std::uint8_t* p_;
};

/// A name's sort key: its first 16 bytes as two big-endian integers,
/// zero-padded.  A smaller key means a byte-wise smaller name, so only
/// equal keys need the whole names compared (most registered-domain keys
/// are shorter than 16 bytes, but many share their first 8).
struct NameKey {
  std::uint64_t hi;
  std::uint64_t lo;
  std::uint32_t id;
};

NameKey name_key(std::string_view name, std::uint32_t id) noexcept {
  std::uint8_t head[16] = {};
  std::memcpy(head, name.data(), std::min<std::size_t>(name.size(), 16));
  return {util::load_be64(head), util::load_be64(head + 8), id};
}

/// The counting-sort bucket: a key's first two bytes.
constexpr std::size_t kBuckets = 1u << 16;
std::size_t bucket_of(const NameKey& key) noexcept { return key.hi >> 48; }

std::string_view as_view(std::span<const std::uint8_t> bytes) noexcept {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

}  // namespace

std::vector<std::uint8_t> save_snapshot(const PassiveDnsStore& store,
                                        std::size_t headroom) {
  // Put every keyed section in format order and add up its exact size, so
  // the image is written in one pass into a buffer allocated once.
  std::size_t size = kHeaderBytes + 4 * kCountBytes +
                     kMonthBytes * store.monthly_nx_.size();

  std::vector<std::pair<std::string_view, const TldAggregate*>> tlds;
  tlds.reserve(store.tlds_.size());
  for (const auto& [tld, agg] : store.tlds_) {
    tlds.emplace_back(tld, &agg);
    size += kTldBytes + tld.size();
  }
  std::sort(tlds.begin(), tlds.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Domains: a counting sort on each name's first two bytes, then each
  // bucket sorted by the whole key.  The buckets are small (a few hundred
  // names at most at feed scale), so the comparison sort stays in cache.
  const InternTable& names = store.intern_;
  std::vector<NameKey> keys(names.size());
  std::vector<std::uint32_t> bucket_end(kBuckets + 1, 0);
  for (std::uint32_t id = 0; id < names.size(); ++id) {
    const std::string_view name = names.name_of(id);
    keys[id] = name_key(name, id);
    ++bucket_end[bucket_of(keys[id]) + 1];
    size += kDomainBytes + name.size() +
            kDayBytes * store.domains_[id].daily_nx.size();
  }
  for (std::size_t b = 1; b <= kBuckets; ++b) bucket_end[b] += bucket_end[b - 1];
  std::vector<NameKey> order(keys.size());
  for (const NameKey& key : keys) order[bucket_end[bucket_of(key)]++] = key;
  for (std::size_t b = 0, begin = 0; b < kBuckets; begin = bucket_end[b++]) {
    std::sort(order.begin() + begin, order.begin() + bucket_end[b],
              [&names](const NameKey& x, const NameKey& y) {
                if (x.hi != y.hi) return x.hi < y.hi;
                if (x.lo != y.lo) return x.lo < y.lo;
                return names.name_of(x.id) < names.name_of(y.id);
              });
  }

  const auto sensors = store.sensor_volume_.top();
  for (const auto& entry : sensors) size += kSensorBytes + entry.first.size();

  std::vector<std::uint8_t> out(headroom + size);
  Cursor w(out.data() + headroom);
  w.u32(kMagic);
  w.u16(kVersion);
  w.u16(store.config_.track_daily ? 1 : 0);
  w.u64(store.totals_.observations);
  w.u64(store.totals_.nx_responses);
  w.u64(store.totals_.distinct_nxdomains);
  w.u64(store.totals_.servfail_responses);

  w.u32(static_cast<std::uint32_t>(store.monthly_nx_.size()));
  for (const auto& [month, count] : store.monthly_nx_) {
    w.u64(bias(month));
    w.u64(count);
  }

  w.u32(static_cast<std::uint32_t>(tlds.size()));
  for (const auto& [tld, agg] : tlds) {
    w.u8(static_cast<std::uint8_t>(tld.size()));
    w.bytes(tld);
    w.u64(agg->nx_queries);
    w.u64(agg->distinct_nx_names);
  }

  w.u32(static_cast<std::uint32_t>(order.size()));
  for (std::size_t i = 0; i < order.size(); ++i) {
    const NameKey& key = order[i];
    // Name order is random in id order, so each domain's name, aggregate
    // and day series are cache misses: fetch them a few domains ahead.
    if (i + 16 < order.size()) {
      __builtin_prefetch(&store.domains_[order[i + 16].id]);
      __builtin_prefetch(names.name_of(order[i + 16].id).data());
    }
    if (i + 8 < order.size()) {
      const auto& ahead = store.domains_[order[i + 8].id].daily_nx;
      if (!ahead.empty()) __builtin_prefetch(&*ahead.begin());
    }
    const std::string_view name = names.name_of(key.id);
    const auto& agg = store.domains_[key.id];
    w.u16(static_cast<std::uint16_t>(name.size()));
    w.bytes(name);
    w.u64(bias(agg.first_seen));
    w.u64(bias(agg.last_seen));
    w.u64(bias(agg.first_nx_seen));
    w.u64(agg.nx_queries);
    w.u64(agg.ok_queries);
    w.u32(static_cast<std::uint32_t>(agg.daily_nx.size()));
    for (const auto& [day, count] : agg.daily_nx) {
      w.u64(bias(day));
      w.u32(count);
    }
  }

  w.u32(static_cast<std::uint32_t>(sensors.size()));
  for (const auto& [sensor, count] : sensors) {
    w.u8(static_cast<std::uint8_t>(sensor.size()));
    w.bytes(sensor);
    w.u64(count);
  }
  return out;
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
  // inserting garbage entries — and a validated count is safe to reserve
  // for.  save_snapshot writes the month, TLD, domain and per-domain day
  // sections in strictly ascending key order; a repeated or out-of-order
  // key is corruption (loading it would silently merge entries), so it is
  // rejected.  Names are compared and interned as views into `bytes`.
  auto plausible = [&r](std::uint32_t count, std::size_t min_entry_bytes) {
    return static_cast<std::uint64_t>(count) * min_entry_bytes <=
           r.remaining();
  };

  const std::uint32_t months = r.u32();
  if (!r.ok() || !plausible(months, kMonthBytes)) return std::nullopt;
  for (std::uint32_t i = 0; i < months && r.ok(); ++i) {
    const auto month = unbias(u64());
    if (i > 0 && month <= store.monthly_nx_.rbegin()->first) {
      return std::nullopt;
    }
    store.monthly_nx_.emplace_hint(store.monthly_nx_.end(), month, u64());
  }

  const std::uint32_t tlds = r.u32();
  if (!r.ok() || !plausible(tlds, kTldBytes)) return std::nullopt;
  store.tlds_.reserve(tlds);
  std::string_view prev_tld;
  for (std::uint32_t i = 0; i < tlds && r.ok(); ++i) {
    const std::string_view tld = as_view(r.bytes(r.u8()));
    if (i > 0 && tld <= prev_tld) return std::nullopt;
    TldAggregate agg;
    agg.nx_queries = u64();
    agg.distinct_nx_names = u64();
    store.tlds_.emplace(tld, agg);
    prev_tld = tld;
  }

  const std::uint32_t domains = r.u32();
  if (!r.ok() || !plausible(domains, kDomainBytes)) return std::nullopt;
  store.intern_.reserve(domains);
  store.domains_.reserve(domains);
  store.caches_.reserve(domains);
  std::string_view prev_name;
  for (std::uint32_t i = 0; i < domains; ++i) {
    const std::string_view name = as_view(r.bytes(r.u16()));
    const auto fixed = r.bytes(kDomainBytes - 2);
    if (!r.ok() || (i > 0 && name <= prev_name)) return std::nullopt;
    prev_name = name;
    const std::uint8_t* p = fixed.data();
    const std::uint32_t days = util::load_be32(p + 40);
    if (!plausible(days, kDayBytes)) return std::nullopt;
    DomainAggregate& agg = store.domains_[store.index_domain(name).id];
    agg.first_seen = unbias(util::load_be64(p));
    agg.last_seen = unbias(util::load_be64(p + 8));
    agg.first_nx_seen = unbias(util::load_be64(p + 16));
    agg.nx_queries = util::load_be64(p + 24);
    agg.ok_queries = util::load_be64(p + 32);
    agg.daily_nx.reserve(days);
    const std::uint8_t* q = r.bytes(days * kDayBytes).data();
    util::Day prev_day = INT64_MIN;
    for (std::uint32_t d = 0; d < days; ++d, q += kDayBytes) {
      const auto day = unbias(util::load_be64(q));
      if (d > 0 && day <= prev_day) return std::nullopt;
      agg.daily_nx[day] = util::load_be32(q + 8);
      prev_day = day;
    }
  }

  const std::uint32_t sensors = r.u32();
  if (!r.ok() || !plausible(sensors, kSensorBytes)) return std::nullopt;
  for (std::uint32_t i = 0; i < sensors && r.ok(); ++i) {
    const std::string sensor = r.str(r.u8());
    store.sensor_volume_.add(sensor, u64());
  }

  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return store;
}

}  // namespace nxd::pdns
