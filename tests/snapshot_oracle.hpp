// Reference writer for snapshot v2, the differential oracle for
// pdns::save_snapshot.
//
// It appends every field through util::ByteWriter and takes each section's
// content and order from the store's public query surface only:
// domain_names_sorted() and domain() for the domains, top_tlds(0) sorted
// again by name, monthly_nx_series() and sensor_volume().top().  So it
// shares nothing with the production writer (which reads the store's
// internals, sizes the image first and sorts intern ids by a prefix key)
// except the format itself.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "pdns/store.hpp"
#include "util/bytes.hpp"

namespace nxd::oracle {

inline std::vector<std::uint8_t> reference_snapshot(
    const pdns::PassiveDnsStore& store) {
  util::ByteWriter w;
  const auto u64 = [&w](std::uint64_t v) {
    w.u32(static_cast<std::uint32_t>(v >> 32));
    w.u32(static_cast<std::uint32_t>(v));
  };
  const auto bias = [](std::int64_t v) {
    return static_cast<std::uint64_t>(v) + (1ULL << 62);
  };

  w.u32(0x4e584450);  // "NXDP"
  w.u16(2);           // version
  w.u16(store.config().track_daily ? 1 : 0);
  u64(store.total_observations());
  u64(store.nx_responses());
  u64(store.distinct_nxdomains());
  u64(store.servfail_responses());

  const auto months = store.monthly_nx_series();
  w.u32(static_cast<std::uint32_t>(months.size()));
  for (const auto& [month, count] : months) {
    u64(bias(month));
    u64(count);
  }

  auto tlds = store.top_tlds(0);
  std::sort(tlds.begin(), tlds.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.u32(static_cast<std::uint32_t>(tlds.size()));
  for (const auto& [tld, agg] : tlds) {
    w.u8(static_cast<std::uint8_t>(tld.size()));
    w.bytes(tld);
    u64(agg.nx_queries);
    u64(agg.distinct_nx_names);
  }

  const auto names = store.domain_names_sorted();
  w.u32(static_cast<std::uint32_t>(names.size()));
  for (const auto& name : names) {
    const pdns::DomainAggregate& agg = *store.domain(name);
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

  const auto sensors = store.sensor_volume().top();
  w.u32(static_cast<std::uint32_t>(sensors.size()));
  for (const auto& [sensor, count] : sensors) {
    w.u8(static_cast<std::uint8_t>(sensor.size()));
    w.bytes(sensor);
    u64(count);
  }
  return std::move(w).take();
}

}  // namespace nxd::oracle
