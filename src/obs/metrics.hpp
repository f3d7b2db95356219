// Unified metrics substrate for the whole pipeline.
//
// Every serving and ingest layer (pdns stores, resolver, honeypot, sim
// network) keeps its existing public stats struct, but the fields are backed
// by handles into one `MetricsRegistry` so a single snapshot shows the whole
// pipeline at once.  Design constraints, in order:
//
//  * Hot-path cost: a handle is one relaxed atomic RMW on registry-owned
//    storage.  A default-constructed handle is null and every operation on
//    it is a no-op, so un-instrumented components pay one branch.
//  * Determinism: values are integers (counts, SimTime seconds, bytes);
//    nothing here reads the wall clock.  Snapshots iterate a std::map keyed
//    by (name, sorted labels), so rendering order is reproducible and golden
//    tests are byte-stable.
//  * Mergeability: shards snapshot independently and `MetricsSnapshot::merge`
//    folds them (counters/gauges/buckets add, max takes max) exactly like
//    the pdns shard merge does for observation tables.
//
// Naming convention (see DESIGN.md §4f): `nxd_<module>_<name>` with
// `_total` for counters, plus optional labels, e.g.
// `nxd_resolver_queries_total{proto=udp}`.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace nxd::obs {

enum class MetricType : std::uint8_t { Counter, Gauge, Histogram };

/// Label set, kept sorted by key so series identity is canonical.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Log-scale histogram geometry: bucket i counts samples with
/// value <= 2^i for i in [0, kHistogramBuckets), one overflow bucket after.
/// 2^39 seconds is ~17k years and 2^39 ns is ~9 minutes, so one geometry
/// serves both sim-second and nanosecond observations.
constexpr std::size_t kHistogramBuckets = 40;

/// Raw cells for one histogram series; lives in registry-owned storage.
struct HistogramCells {
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets + 1> buckets{};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> max{0};
  // Last sampled-trace exemplar (OpenMetrics-style): a trace id plus the
  // observed value it tagged.  trace 0 means "no exemplar recorded".
  std::atomic<std::uint64_t> exemplar_value{0};
  std::atomic<std::uint64_t> exemplar_trace{0};
};

/// Bucket index for a sample value: smallest i with value <= 2^i, or the
/// overflow slot.  Exposed for tests.
std::size_t histogram_bucket_index(std::uint64_t value) noexcept;

/// Upper bound (2^i) of a non-overflow bucket.
std::uint64_t histogram_bucket_bound(std::size_t index) noexcept;

/// Monotonic counter handle.  Copyable; null (default) handles are no-ops.
class Counter {
 public:
  Counter() = default;

  void inc(std::uint64_t n = 1) noexcept {
    if (cell_ != nullptr) cell_->fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return cell_ != nullptr ? cell_->load(std::memory_order_relaxed) : 0;
  }
  bool valid() const noexcept { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::atomic<std::uint64_t>* cell) noexcept : cell_(cell) {}
  std::atomic<std::uint64_t>* cell_ = nullptr;
};

/// Signed gauge handle (current level, e.g. open connections).
class Gauge {
 public:
  Gauge() = default;

  void set(std::int64_t v) noexcept {
    if (cell_ != nullptr) cell_->store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) noexcept {
    if (cell_ != nullptr) cell_->fetch_add(n, std::memory_order_relaxed);
  }
  void sub(std::int64_t n) noexcept { add(-n); }
  std::int64_t value() const noexcept {
    return cell_ != nullptr ? cell_->load(std::memory_order_relaxed) : 0;
  }
  bool valid() const noexcept { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<std::int64_t>* cell) noexcept : cell_(cell) {}
  std::atomic<std::int64_t>* cell_ = nullptr;
};

/// Fixed-boundary log2 latency/size histogram handle.
class LatencyHistogram {
 public:
  LatencyHistogram() = default;

  void observe(std::uint64_t value) noexcept;
  /// observe() plus an exemplar: remember (value, trace_id) so the rendered
  /// histogram can link a real sampled trace to the latency it represents.
  /// trace_id 0 degrades to plain observe().
  void observe_exemplar(std::uint64_t value, std::uint64_t trace_id) noexcept;
  std::uint64_t count() const noexcept;
  std::uint64_t sum() const noexcept;
  std::uint64_t max() const noexcept;
  bool valid() const noexcept { return cells_ != nullptr; }

  /// Deterministic quantile estimate: the upper bound of the bucket holding
  /// the rank-q sample; samples in the overflow bucket report the exact max.
  /// q in [0,1]; empty histogram -> 0.
  std::uint64_t quantile(double q) const noexcept;

 private:
  friend class MetricsRegistry;
  explicit LatencyHistogram(HistogramCells* cells) noexcept : cells_(cells) {}
  HistogramCells* cells_ = nullptr;
};

/// One series in a snapshot: plain values, no atomics.
struct SnapshotSeries {
  std::string name;
  LabelSet labels;
  MetricType type = MetricType::Counter;
  std::string help;

  std::uint64_t counter = 0;  // Counter
  std::int64_t gauge = 0;     // Gauge

  // Histogram only.
  std::vector<std::uint64_t> buckets;  // kHistogramBuckets + 1 when present
  std::uint64_t hist_count = 0;
  std::uint64_t hist_sum = 0;
  std::uint64_t hist_max = 0;
  std::uint64_t exemplar_value = 0;  // see HistogramCells
  std::uint64_t exemplar_trace = 0;

  /// Same deterministic quantile rule as LatencyHistogram::quantile.
  std::uint64_t quantile(double q) const noexcept;
};

/// Point-in-time copy of a registry (or a merge of several).  Serialises to
/// a versioned text format ("nxd-metrics v1", one `<type> <series> <values>`
/// line per series plus optional `help <series> <text>` lines) that carries
/// everything the Prometheus exposition shows, so `nxdtool metrics` re-renders
/// a snapshot offline byte-identically to the live endpoint.
struct MetricsSnapshot {
  std::vector<SnapshotSeries> series;  // sorted by (name, labels)

  const SnapshotSeries* find(const std::string& name,
                             const LabelSet& labels = {}) const noexcept;

  /// Fold another snapshot in: counters, gauges, bucket counts, hist
  /// count/sum add; hist max takes the max.  Series present on either side
  /// appear in the result; merge is associative and commutative.
  void merge(const MetricsSnapshot& other);

  std::string to_text() const;
  static bool parse(const std::string& text, MetricsSnapshot* out,
                    std::string* error);
};

/// Owns all metric storage; hands out stable handles.  Registering the same
/// (name, labels) twice returns a handle to the same cell, so components
/// re-bound to a shared registry naturally aggregate.  A type conflict on an
/// existing name returns a null handle instead of corrupting the series.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter counter(const std::string& name, const std::string& help = "",
                  const LabelSet& labels = {});
  Gauge gauge(const std::string& name, const std::string& help = "",
              const LabelSet& labels = {});
  LatencyHistogram histogram(const std::string& name,
                             const std::string& help = "",
                             const LabelSet& labels = {});

  MetricsSnapshot snapshot() const;

  /// Fold a snapshot into the live cells by MetricsSnapshot::merge's rule:
  /// counters, gauges, bucket counts and hist count/sum add; hist max takes
  /// the max.  Missing series are created; a series whose type conflicts
  /// with the snapshot's is left untouched.  This is how a component hands
  /// what it counted in its private registry to a shared one on bind.
  void absorb(const MetricsSnapshot& snapshot);

  /// Zero every cell (series registrations stay; handles stay valid).
  void reset();

  std::size_t series_count() const;

 private:
  struct Series {
    MetricType type;
    std::string help;
    std::atomic<std::uint64_t> counter{0};
    std::atomic<std::int64_t> gauge{0};
    std::unique_ptr<HistogramCells> hist;
  };

  struct SeriesKey {
    std::string name;
    LabelSet labels;
    bool operator<(const SeriesKey& o) const noexcept {
      if (name != o.name) return name < o.name;
      return labels < o.labels;
    }
  };

  Series* find_or_create(const std::string& name, const std::string& help,
                         const LabelSet& labels, MetricType type);

  mutable std::mutex mu_;  // guards map structure; cells are atomics
  std::map<SeriesKey, std::unique_ptr<Series>> series_;
};

}  // namespace nxd::obs
