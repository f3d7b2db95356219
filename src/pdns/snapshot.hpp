// Passive-DNS store snapshots: compact binary serialization of the indexed
// aggregates — the "mirror the database" step (§3.1: the authors mirrored
// Farsight's feed into BigQuery before analysis).
//
// Format v2 (all integers big-endian; u64s are written high word first):
//   magic "NXDP" u32 | version u16 | flags u16 (bit 0: track_daily)
//   totals: observations u64, nx_responses u64, distinct_nx u64,
//           servfail_responses u64
//   monthly section: count u32, then (month_idx i64 as u64, count u64)*
//   tld section: count u32, then (len u8, bytes, nx_queries u64,
//                                 distinct u64)*
//   domain section: count u32, then per domain:
//     len u16, name bytes, first_seen/last_seen/first_nx i64,
//     nx_queries u64, ok_queries u64,
//     daily count u32, then (day i64, count u32)*
//   sensor section: count u32, then (len u8, bytes, count u64)*, in
//     util::Counter::top() order (count descending, then name)
// Days/months are biased by +2^62 when stored (they can be negative).  The
// monthly, tld, domain and per-domain daily entries are in strictly
// ascending key order; names compare byte-wise as unsigned bytes.
//
// The writer sizes the image exactly, then fills it in one pass; the
// loader reads names as views into the input and reserves from the section
// counts it has validated.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "pdns/store.hpp"

namespace nxd::pdns {

/// Serialize the store to its snapshot bytes.  With `headroom`, the image
/// starts that many zero bytes into the buffer, for a caller to frame it in
/// place (a checkpoint file puts its record and file headers there).
std::vector<std::uint8_t> save_snapshot(const PassiveDnsStore& store,
                                        std::size_t headroom = 0);

/// Rebuild a store from snapshot bytes; nullopt on corrupt/unsupported
/// input, including a month, TLD, domain or day key that does not strictly
/// follow the one before it.  The restored store compares equal on every
/// query surface.
std::optional<PassiveDnsStore> load_snapshot(
    std::span<const std::uint8_t> bytes);

}  // namespace nxd::pdns
