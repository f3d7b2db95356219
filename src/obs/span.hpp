// Causal span tracing with deterministic sampling.
//
// A *trace* is one end-to-end unit of work (a client query, a honeypot
// connection, a WAL commit group); a *span* is one timed stage inside it
// (upstream try 2, wal_fsync, checkpoint).  Spans carry parent links, so an
// offline pass can reconstruct the stage tree and attribute latency: "p99
// queries spend X in upstream try 2, Y in WAL ack".
//
// Sampling is head-based and deterministic: the decision for a trace is a
// pure function of (seed, key) where key is the component's stable id for
// the unit of work (resolver query seq, connection id, commit-group seq).
// The same seed therefore samples the same traces on every run, which keeps
// the exported JSONL byte-stable under sim time and lets tests reconcile
// sampled span counts against registry counters exactly.
//
// Unsampled work costs one branch: `trace_root` returns a null SpanId and
// every operation on a null id is a no-op, mirroring the null-handle rule of
// MetricsRegistry.  Finished spans land in a bounded, drop-counted ring
// that overwrites oldest-first; unbounded per-name counters are NOT kept
// here — reconciliation uses `traces_started()` / `spans_recorded()` plus
// `spans_dropped()`, and per-event counts live in the registry.
//
// Timestamps are int64 in whatever unit the emitting layer uses: SimTime
// seconds on sim-driven paths (resolver, honeypot — deterministic), or
// steady-clock nanoseconds since store open on the durable-store thread
// (real time; tests assert nesting invariants, not exact values).  Units
// never mix within one trace tree.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "util/rng.hpp"  // SplitMix64 for the inline sampling hash

namespace nxd::obs {

/// Hard cap on SpanRecord detail strings, in bytes (DESIGN.md §4k).  A
/// water-torture flood of maximum-length random qnames must not be able to
/// bloat the bounded ring: with the cap, ring memory is
/// O(capacity × kDetailCap) regardless of workload.
constexpr std::size_t kDetailCap = 128;

/// Identity of an open span: (trace id, span id).  trace == 0 means "not
/// sampled" and every SpanTracer operation on it is a no-op.
struct SpanId {
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  bool sampled() const noexcept { return trace != 0; }
};

/// One finished span.  parent_id == 0 marks a trace root.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::string name;        // stage label ("resolve", "try", "wal_fsync", ...)
  std::int64_t start = 0;  // layer time base (SimTime s, or steady ns)
  std::int64_t end = 0;
  std::int64_t value = 0;  // stage payload (attempt #, rcode, bytes, ...)
  std::string detail;      // qname / server / reason, capped at kDetailCap

  std::int64_t duration() const noexcept { return end - start; }
};

class SpanTracer {
 public:
  struct Config {
    double sample_rate = 1.0;     // fraction of traces kept, [0,1]
    std::uint64_t seed = 1;       // sampling-hash seed
    std::size_t capacity = 8192;  // finished-span ring slots
  };

  SpanTracer() : SpanTracer(Config{}) {}
  explicit SpanTracer(Config config);

  /// Pure sampling decision for a unit-of-work key (no state touched).
  /// Inline so the unsampled fast path costs one hash and one compare.
  bool sampled(std::uint64_t key) const noexcept {
    return threshold_ == ~std::uint64_t{0} ||
           sample_hash(key) < threshold_;
  }

  /// Trace id a sampled key maps to (nonzero, deterministic); 0 if the key
  /// is not sampled.  Exposed so exemplars can tag histograms.
  std::uint64_t trace_id_for(std::uint64_t key) const noexcept {
    const std::uint64_t h = sample_hash(key);
    if (threshold_ != ~std::uint64_t{0} && h >= threshold_) return 0;
    return h == 0 ? 1 : h;  // trace id 0 is reserved for "unsampled"
  }

  /// Start a root span for the unit of work identified by `key`.  Returns a
  /// null id when the key is not sampled — that rejection stays inline and
  /// never takes the lock.
  SpanId trace_root(std::uint64_t key, std::string_view name,
                    std::int64_t start, std::string_view detail = {}) {
    const std::uint64_t trace_id = trace_id_for(key);
    if (trace_id == 0) return {};
    return root_sampled(trace_id, name, start, detail);
  }

  /// Start a child span under `parent` (no-op null id if parent is null).
  SpanId begin(SpanId parent, std::string_view name, std::int64_t start,
               std::string_view detail = {}) {
    if (!parent.sampled()) return {};
    return begin_sampled(parent, name, start, detail);
  }

  /// Finish a span and move it into the ring.  Unknown/null ids are ignored.
  /// A non-empty `detail` replaces the one given at begin().
  void end(SpanId id, std::int64_t end_time, std::int64_t value = 0,
           std::string_view detail = {}) {
    if (!id.sampled()) return;
    end_sampled(id, end_time, value, detail);
  }

  /// Zero-duration child span (point event with causal attribution).
  void event(SpanId parent, std::string_view name, std::int64_t at,
             std::int64_t value = 0, std::string_view detail = {}) {
    if (!parent.sampled()) return;
    end_sampled(begin_sampled(parent, name, at, detail), at, value, {});
  }

  /// Finished spans still resident in the ring, oldest first.
  std::vector<SpanRecord> finished() const;

  std::uint64_t traces_started() const;   // sampled roots begun
  std::uint64_t spans_recorded() const;   // spans moved into the ring, ever
  std::uint64_t spans_dropped() const;    // recorded spans lost to wraparound
  std::uint64_t spans_open() const;       // begun but not yet ended
  std::uint64_t details_truncated() const;

  double sample_rate() const noexcept { return config_.sample_rate; }
  std::uint64_t seed() const noexcept { return config_.seed; }
  std::size_t capacity() const noexcept { return config_.capacity; }

  /// One JSON object per line, ring order:
  /// {"trace":N,"span":N,"parent":N,"name":"...","start":N,"end":N,
  ///  "value":N,"detail":"..."}
  std::string to_jsonl() const;

  /// Strict inverse of to_jsonl (accepts only its own output shape).
  static bool parse_jsonl(const std::string& text,
                          std::vector<SpanRecord>* out, std::string* error);

  /// Counters land as nxd_obs_spans_* / nxd_obs_traces_*; counts from
  /// before the bind carry over, so tracers sharing a registry add up.
  void bind_metrics(MetricsRegistry& registry);

  void clear();

 private:
  /// Mix (seed, key) into a uniform 64-bit value; two SplitMix64 steps so
  /// the seed and the (often sequential) key both diffuse fully.
  std::uint64_t sample_hash(std::uint64_t key) const noexcept {
    util::SplitMix64 sm{config_.seed ^ (key * 0x9e3779b97f4a7c15ULL)};
    sm.next();
    return sm.next();
  }

  SpanId root_sampled(std::uint64_t trace_id, std::string_view name,
                      std::int64_t start, std::string_view detail);
  SpanId begin_sampled(SpanId parent, std::string_view name,
                       std::int64_t start, std::string_view detail);
  void end_sampled(SpanId id, std::int64_t end_time, std::int64_t value,
                   std::string_view detail);
  SpanId begin_locked(std::uint64_t trace_id, std::uint64_t parent,
                      std::string_view name, std::int64_t start,
                      std::string_view detail);
  void acquire_metrics(MetricsRegistry& registry);

  Config config_;
  std::uint64_t threshold_;  // sampled iff hash(seed,key) < threshold_

  mutable std::mutex mu_;
  // Begun-but-unfinished spans.  A flat vector, not a map: nesting keeps the
  // live set tiny and LIFO (end() matches the most recent begin() almost
  // always), a reverse linear scan is one or two cache lines, and swap-remove
  // with retained capacity means no allocator traffic per span — the map's
  // node malloc/free dominated sampled-span cost at low sampling rates.
  std::vector<SpanRecord> open_;
  std::vector<SpanRecord> ring_;  // finished, [recorded_ % cap]
  std::uint64_t next_span_id_ = 1;
  std::uint64_t traces_started_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t truncated_ = 0;

  std::unique_ptr<MetricsRegistry> own_registry_;
  Counter m_traces_started_;
  Counter m_spans_recorded_;
  Counter m_spans_dropped_;
  Counter m_details_truncated_;
};

// ---------------------------------------------------------------------------
// Offline critical-path aggregation.

/// Per-stage-name latency attribution across all finished traces.
struct SpanStat {
  std::string name;
  std::uint64_t count = 0;
  std::int64_t total = 0;  // sum of span durations
  std::int64_t self = 0;   // total minus time covered by child spans
  std::int64_t max = 0;
};

struct CriticalPathReport {
  std::uint64_t traces = 0;       // roots seen
  std::uint64_t spans = 0;        // spans aggregated
  std::int64_t p50_root = 0;      // root-span duration quantiles
  std::int64_t p99_root = 0;
  std::int64_t max_root = 0;
  std::vector<SpanStat> stages;   // sorted by self time, descending
  std::vector<SpanRecord> slowest;  // the p99-rank trace, tree order

  /// Human-readable table plus an indented tree of the slowest trace.
  std::string to_text() const;
};

/// Build the report from finished spans (e.g. SpanTracer::finished() or a
/// parsed JSONL export).  Deterministic: ties break on name / span id.
CriticalPathReport aggregate_spans(const std::vector<SpanRecord>& spans);

}  // namespace nxd::obs
