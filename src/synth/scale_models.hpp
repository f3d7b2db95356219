// Workload models for the scale analyses (paper §4, Figs 3-6).
//
// Each model captures the *shape* the paper reports with parameters pinned
// to the published aggregates; benches scale absolute volume down so a run
// finishes in seconds.  All models are deterministic under (seed).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "dns/name.hpp"
#include "pdns/observation.hpp"
#include "pdns/store.hpp"
#include "util/civil_time.hpp"
#include "util/rng.hpp"
#include "util/worker_pool.hpp"

namespace nxd::synth {

// ------------------------------------------------------------------- Fig 3

/// Average NXDomain responses per month, 2014-2022: rising 2014-2016,
/// near-flat through 2020, steep jump in 2021 (~20 B/mo) and 2022 (>22 B/mo).
class MonthlyVolumeModel {
 public:
  /// Expected responses for a (year, month) at full paper scale.
  static double expected(int year, unsigned month);

  /// Paper's per-year monthly averages (billions), 2014..2022.
  static const std::map<int, double>& yearly_average_billions();
};

// ------------------------------------------------------------------- Fig 4

struct TldShare {
  std::string tld;
  double name_share;   // share of distinct NXDomain names
  double query_share;  // share of NXDomain queries (aligned, per the paper)
};

/// Top-20 TLD mix: .com/.net/.cn/.ru/.org lead both distributions.
class TldModel {
 public:
  static const std::vector<TldShare>& shares();

  /// Sample a TLD according to name share.
  static std::string sample(util::Rng& rng);
};

// ------------------------------------------------------------------- Fig 5

/// NXDomains (and their queries) vs days spent in NX status, 0-60 days:
/// steep decay over the first ~10 days (names get re-registered), slow
/// decline afterwards, queries tracking names.
class LifespanModel {
 public:
  struct Point {
    int day;
    double domains;  // expected # of NXDomains still queried at this age
    double queries;  // expected DNS queries to them
  };

  static std::vector<Point> expected_series();

  /// Expected number of domains at age `day`, relative to day 0 == 1.0.
  static double survival(int day);
};

// ------------------------------------------------------------------- Fig 6

/// Average DNS queries per domain from 60 days before to 120 days after the
/// status change, with the day-~30 spike the paper highlights.
class ExpiryWindowModel {
 public:
  /// Expected average queries at offset `day` in [-60, 120].
  static double expected(int day);

  static std::vector<std::pair<int, double>> expected_series();
};

// ------------------------------------------- domain-name material for feeds

/// Generator for plausible NXDomain names: mistyped brands, expired-looking
/// dictionary names, and DGA output, mixed in configurable proportions.
class NxDomainNameModel {
 public:
  explicit NxDomainNameModel(std::uint64_t seed);

  /// A fresh never-registered-looking name (deterministic stream): mixes
  /// dictionary compounds, numbered compounds, hyphenated pairs, and
  /// random-letter strings (the DGA-ish tail of never-registered space).
  dns::DomainName next(util::Rng& rng) const;

  /// A name shaped like a real (once-)registered domain: dictionary-based
  /// styles only, no random-letter strings.  Expired-domain corpora must
  /// draw from this stream or the DGA detector would "find" the synthetic
  /// junk.
  dns::DomainName next_registrable(util::Rng& rng) const;

 private:
  std::vector<std::string> words_;
};

/// Feed a passive-DNS store with a scaled 2014-2022 NXDomain observation
/// stream that realizes the Fig 3 monthly volumes and Fig 4 TLD mix.
/// Returns total observations ingested.
std::uint64_t fill_store_with_history(pdns::PassiveDnsStore& store,
                                      double scale, std::uint64_t seed);

// --------------------------------------------- partitionable history stream

struct HistoryStreamConfig {
  double scale = 1e-8;
  std::uint64_t seed = 42;
  /// Fractions of the stream emitted as NoError / ServFail observations.
  /// Channel 221 proper is NX-only (both zero, the default); the equivalence
  /// and fold tests raise these to exercise every store counter through the
  /// parallel path.
  double ok_fraction = 0.0;
  double servfail_fraction = 0.0;
};

/// The 2014-2022 NXDomain stream of fill_store_with_history, restructured so
/// it is *partitionable*: the construction pass sequentially plans every
/// month (Poisson volume, recurring-pool snapshot, per-month child seed),
/// after which each month's observations are a pure function of the plan —
/// month(i) can be generated on any worker, in any order, and the
/// concatenation month(0)..month(n-1) is byte-identical to all().
class NxHistoryStream {
 public:
  explicit NxHistoryStream(HistoryStreamConfig config);

  std::size_t months() const noexcept { return months_.size(); }
  /// Total observations across all months (known at plan time).
  std::uint64_t planned_total() const noexcept { return planned_total_; }

  /// Generate one month's observations (deterministic, independent).
  std::vector<pdns::Observation> month(std::size_t index) const;

  /// The whole stream in serial month order — the equivalence baseline.
  std::vector<pdns::Observation> all() const;

  /// Same stream, months generated across the pool (each worker fills a
  /// disjoint range of the output).  Identical content and order to all().
  std::vector<pdns::Observation> all_parallel(util::WorkerPool& pool) const;

 private:
  struct MonthPlan {
    util::Day day0 = 0;
    std::uint64_t volume = 0;
    std::uint64_t child_seed = 0;
    std::vector<std::uint32_t> pool;  // indices into arena_
  };

  void generate_month_into(const MonthPlan& plan,
                           std::span<pdns::Observation> out) const;

  HistoryStreamConfig config_;
  std::vector<dns::DomainName> arena_;  // every name a pool ever held
  std::vector<MonthPlan> months_;
  std::uint64_t planned_total_ = 0;
};

}  // namespace nxd::synth
