// Passive-DNS observation store — the in-process Farsight-database
// substitute that the scale/origin analyses query.
//
// Indexes maintained on ingest:
//   - per registered domain: first/last seen, NX vs OK query counts, and
//     (optionally) a compressed per-day NX count series
//   - per TLD: distinct NXDomain names + NXDomain query volume (Fig 4)
//   - per month: total NXDomain responses (Fig 3)
//   - per sensor class: volume (vantage-point breakdown)
//
// The domain index is the intern table (pdns/intern.hpp): each registered
// domain's name is stored once there, and its aggregate sits in a dense
// vector indexed by the name's intern id.  The hot path is allocation-light:
// the registered-domain key is composed into a stack buffer, and the TLD
// index uses transparent (heterogeneous) hashing so a lookup never
// materializes a std::string.  Stores merge exactly via absorb() — every
// aggregate is a commutative fold (sum, min, max), so N hash-partitioned
// shards collapse into the same store serial ingest would have produced
// (see pdns/sharded_store.hpp).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <utility>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "pdns/frame_view.hpp"
#include "pdns/intern.hpp"
#include "pdns/observation.hpp"
#include "util/histogram.hpp"

namespace nxd::pdns {

struct StoreConfig {
  /// Keep a per-day NX-count series per domain (needed by the lifespan and
  /// expiry-window analyses; costs memory proportional to active days).
  bool track_daily = true;
};

/// Per-day NX-count series: a map<Day, u32> interface over a sorted array.
/// Most domains are seen on one day only, so the first entry lives inline,
/// in the 24 bytes a std::vector header would take; the series spills to
/// one heap array when a second day arrives.  A copy allocates only for a
/// series of two or more days.  The ingest stream is chronological, so
/// nearly every update lands on the last entry (O(1) bump) or appends a new
/// day (amortized O(1)).  Out-of-order days (absorb of overlapping stores,
/// arbitrary frames) fall back to binary search + mid-array insert;
/// iteration is always in ascending day order, so snapshot bytes do not
/// depend on the storage.
class DailySeries {
 public:
  using value_type = std::pair<util::Day, std::uint32_t>;
  using const_iterator = const value_type*;

  DailySeries() noexcept : heap_(nullptr) {}
  DailySeries(const DailySeries& other);
  DailySeries(DailySeries&& other) noexcept : heap_(nullptr) { take(other); }
  DailySeries& operator=(const DailySeries& other) {
    if (this != &other) *this = DailySeries(other);
    return *this;
  }
  DailySeries& operator=(DailySeries&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  ~DailySeries() { release(); }

  std::uint32_t& operator[](util::Day day) {
    value_type* const first = data();
    if (size_ == 0 || first[size_ - 1].first < day) return insert(size_, day);
    if (first[size_ - 1].first == day) return first[size_ - 1].second;
    value_type* const it = std::lower_bound(
        first, first + size_, day,
        [](const value_type& e, util::Day d) { return e.first < d; });
    if (it->first == day) return it->second;
    return insert(static_cast<std::uint32_t>(it - first), day);
  }

  /// Presize for `days` entries; one entry fits inline and allocates nothing.
  void reserve(std::size_t days) {
    if (days > std::max<std::uint32_t>(capacity_, 1)) {
      grow(static_cast<std::uint32_t>(days));
    }
  }

  const_iterator begin() const noexcept { return data(); }
  const_iterator end() const noexcept { return data() + size_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  bool operator==(const DailySeries& other) const noexcept {
    return std::equal(begin(), end(), other.begin(), other.end());
  }

 private:
  value_type* data() noexcept { return capacity_ == 0 ? &one_ : heap_; }
  const value_type* data() const noexcept {
    return capacity_ == 0 ? &one_ : heap_;
  }
  /// Free the heap array, if any (leaves the members stale: take() or
  /// destruction must follow).
  void release() noexcept {
    if (capacity_ != 0) std::allocator<value_type>().deallocate(heap_, capacity_);
  }
  /// Adopt `other`'s entries and leave it empty; this holds no heap array.
  void take(DailySeries& other) noexcept {
    size_ = other.size_;
    capacity_ = other.capacity_;
    if (capacity_ != 0) {
      heap_ = other.heap_;
    } else if (size_ != 0) {
      std::construct_at(&one_, other.one_);
    }
    other.size_ = other.capacity_ = 0;
  }
  /// Move the entries to a heap array of `capacity` (> 1) entries.
  void grow(std::uint32_t capacity);
  /// Insert (day, 0) at index `at`, shifting the entries from `at` up.
  std::uint32_t& insert(std::uint32_t at, util::Day day);

  // capacity_ == 0: inline, one_ holds the entry when size_ == 1.
  // capacity_ > 0: heap_ holds capacity_ slots, the first size_ in use.
  // Either way the entries ascend by day.
  union {
    value_type one_;
    value_type* heap_;
  };
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;
};

struct DomainAggregate {
  util::Day first_seen = INT64_MAX;
  util::Day last_seen = INT64_MIN;
  util::Day first_nx_seen = INT64_MAX;  // first day an NXDomain response was observed
  std::uint64_t nx_queries = 0;
  std::uint64_t ok_queries = 0;
  // day -> NXDomain responses that day (present only when track_daily).
  // Its counts sum to nx_queries under ingest and absorb, and to at most
  // nx_queries in any store load_snapshot accepts: the selection scans
  // skip a domain whose nx_queries is below their monthly threshold.
  DailySeries daily_nx;

  bool ever_nx() const noexcept { return first_nx_seen != INT64_MAX; }
};

/// Largest calendar-month total of an ascending per-day series (0 when
/// empty): one pass, since a month's days are adjacent in day order.
std::uint64_t peak_monthly_nx(const DailySeries& daily_nx);

struct TldAggregate {
  std::uint64_t nx_queries = 0;
  std::uint64_t distinct_nx_names = 0;
};

/// Transparent hasher so the string-keyed indexes accept string_view lookups
/// without constructing a key.
struct TransparentStringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Compose `name`'s registered-domain key (the store's domain index key)
/// into `buf` without allocating; the returned view aliases `buf` or the
/// name's own bytes.  Mirrors DomainName::registered_domain(): the last two
/// labels, the single label, or "." for the root.
inline std::string_view registered_domain_key(const dns::DomainName& name,
                                              std::array<char, 160>& buf) {
  const std::size_t n = name.label_count();
  if (n == 0) return ".";
  if (n == 1) return name.label(0);
  const std::string_view sld = name.sld();
  const std::string_view tld = name.tld();
  char* p = buf.data();
  std::memcpy(p, sld.data(), sld.size());
  p += sld.size();
  *p++ = '.';
  std::memcpy(p, tld.data(), tld.size());
  p += tld.size();
  return std::string_view{buf.data(), static_cast<std::size_t>(p - buf.data())};
}

/// A store's scalar ingest totals (see the PassiveDnsStore accessors).
struct IngestTotals {
  std::uint64_t observations = 0;
  std::uint64_t nx_responses = 0;
  std::uint64_t servfail_responses = 0;
  std::uint64_t distinct_nxdomains = 0;
  std::uint64_t intern_hits = 0;
  std::uint64_t intern_misses = 0;
};

/// The registry series of those totals (nxd_pdns_*_total) under one label
/// set.  Default-constructed handles are null no-ops.
struct IngestCounters {
  IngestCounters() = default;
  IngestCounters(obs::MetricsRegistry& registry, const obs::LabelSet& labels);
  /// Count the growth from `before` to `after`.
  void add(const IngestTotals& before, const IngestTotals& after);

  obs::Counter observations;
  obs::Counter nx_responses;
  obs::Counter servfail_responses;
  obs::Counter distinct_nxdomains;
  obs::Counter intern_hits;
  obs::Counter intern_misses;
};

class PassiveDnsStore {
 public:
  explicit PassiveDnsStore(StoreConfig config = {}) : config_(config) {}

  /// Copies reset the ingest pointer caches (they point into the source
  /// store); the caches refill lazily on the next ingest.  Moves keep them —
  /// the pointers target map nodes, which survive a move.
  PassiveDnsStore(const PassiveDnsStore& other);
  PassiveDnsStore& operator=(const PassiveDnsStore& other);
  PassiveDnsStore(PassiveDnsStore&&) = default;
  PassiveDnsStore& operator=(PassiveDnsStore&&) = default;

  void ingest(const Observation& obs);

  /// Zero-copy fast path: ingest a frame-decoded view.  Produces exactly the
  /// aggregates ingest(view.materialize()) would — both paths funnel into
  /// one keyed implementation, and the differential suite pins snapshot
  /// byte-identity.
  void ingest_view(const ObservationView& view);

  /// Exact merge: fold `other` into this store so the result equals serial
  /// ingest of both stores' input streams (in any order).  All counters are
  /// commutative folds; distinct-NXDomain counts are corrected for domains
  /// present in both stores, so the fold is exact even for non-disjoint
  /// partitions.  Both stores must share the same StoreConfig.
  void absorb(const PassiveDnsStore& other);

  const StoreConfig& config() const noexcept { return config_; }

  // ---- scalar totals ------------------------------------------------------
  std::uint64_t total_observations() const noexcept { return totals_.observations; }
  std::uint64_t nx_responses() const noexcept { return totals_.nx_responses; }
  std::uint64_t distinct_domains() const noexcept { return intern_.size(); }
  std::uint64_t distinct_nxdomains() const noexcept { return totals_.distinct_nxdomains; }
  /// SERVFAIL observations — resolution failures, not proof of
  /// non-existence.  Tracked separately so scale analyses can distinguish
  /// genuine NXDomain volume from failure noise; never mixed into the
  /// per-domain OK/NX aggregates that drive selection.
  std::uint64_t servfail_responses() const noexcept { return totals_.servfail_responses; }

  // ---- per-domain ---------------------------------------------------------
  const DomainAggregate* domain(std::string_view registered_name) const;

  /// All domains, sorted, for scans whose result depends on visit order.
  std::vector<std::string> domain_names_sorted() const;

  /// Visit every domain in index order as fn(name, aggregate), without
  /// copying or sorting names: for scans whose result is order-free.
  template <typename Fn>
  void for_each_domain(Fn&& fn) const {
    for (std::uint32_t id = 0; id < intern_.size(); ++id) {
      fn(intern_.name_of(id), domains_[id]);
    }
  }

  /// Domains whose NXDomain query volume in some calendar month reached
  /// `threshold` — the paper's §3.3 selection criterion ("more than 10,000
  /// DNS queries per month").  Requires track_daily.
  std::vector<std::string> high_traffic_nxdomains(std::uint32_t threshold) const;

  // ---- per-TLD (Fig 4) ----------------------------------------------------
  std::vector<std::pair<std::string, TldAggregate>> top_tlds(std::size_t k) const;

  // ---- per-month (Fig 3) --------------------------------------------------
  std::map<std::int64_t, std::uint64_t> monthly_nx_series() const {
    return monthly_nx_;
  }

  // ---- per-sensor ---------------------------------------------------------
  const util::Counter& sensor_volume() const noexcept { return sensor_volume_; }

  // ---- intern table (the domain index) ------------------------------------
  /// Hits/misses of ingest()/ingest_view() over the domain index.  Every
  /// non-SERVFAIL ingest is exactly one of them, so hits + misses +
  /// servfail_responses == observations ingested, and a miss is exactly a
  /// domain that ingest added to the index — also in a store restored by
  /// load_snapshot or filled by absorb(), which index without counting.
  std::uint64_t intern_hits() const noexcept { return totals_.intern_hits; }
  std::uint64_t intern_misses() const noexcept { return totals_.intern_misses; }
  const InternTable& intern_table() const noexcept { return intern_; }

  // ---- observability ------------------------------------------------------
  /// The scalar totals the ingest counters publish.
  const IngestTotals& ingest_totals() const noexcept { return totals_; }

  /// Mirror ingest counts into a shared registry; current totals carry over
  /// (they are snapshot data, so a restored store publishes them too).
  /// Only ingest() feeds the handles — absorb() and snapshot loads bypass
  /// them, so a merge into an instrumented head store never double counts.
  /// Handles are raw pointers into the registry: bind (or re-bind) after
  /// any move/assign of the store.  `labels` distinguishes co-registered
  /// stores (e.g. {{"stage","chaos"}}).
  void bind_metrics(obs::MetricsRegistry& registry,
                    const obs::LabelSet& labels = {});

 private:
  // Snapshot (de)serialization rebuilds the private indexes directly.
  friend std::optional<PassiveDnsStore> load_snapshot(
      std::span<const std::uint8_t> bytes);
  friend std::vector<std::uint8_t> save_snapshot(const PassiveDnsStore& store,
                                                 std::size_t headroom);

  using TldMap = std::unordered_map<std::string, TldAggregate,
                                    TransparentStringHash, std::equal_to<>>;

  /// Shared keyed ingest: both ingest() and ingest_view() reduce an
  /// observation to (registered key, rcode, when, sensor class) — the only
  /// fields the aggregates consume — and meet here, so the two paths cannot
  /// diverge.  The TLD is derived from the key lazily, on a domain's first
  /// NXDomain response.
  void ingest_keyed(std::string_view key, dns::RCode rcode, util::SimTime when,
                    SensorClass cls);

  /// Find-or-insert `name` in the domain index, growing domains_ and
  /// caches_ with it on insertion.
  InternTable::Result index_domain(std::string_view name);

  StoreConfig config_;
  IngestTotals totals_;

  // The domain index: registered-domain name -> dense id, and the id's
  // aggregate.
  InternTable intern_;
  std::vector<DomainAggregate> domains_;  // indexed by intern id
  TldMap tlds_;
  std::map<std::int64_t, std::uint64_t> monthly_nx_;
  util::Counter sensor_volume_;

  // Ingest pointer caches, indexed by intern id and always sized to the
  // index.  No cache points into a domain's daily_nx: an inline entry moves
  // whenever domains_ grows, and in a chronological stream the series'
  // own last-entry test is already O(1).
  struct IdCache {
    TldAggregate* tld = nullptr;  // tlds_ node, cached on the first NX response
  };
  std::vector<IdCache> caches_;
  std::int64_t cached_month_ = INT64_MIN;
  std::uint64_t* cached_month_slot_ = nullptr;  // monthly_nx_ node (stable)
  // Per-class count cells of sensor_volume_ (stable heap nodes), fetched on
  // first use; index 4 holds the out-of-range "unknown" label.
  std::array<std::uint64_t*, 5> sensor_slots_{};

  IngestCounters m_;  // null handles until bind_metrics()
};

}  // namespace nxd::pdns
