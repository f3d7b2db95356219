// SLO burn-rate monitoring and NXDomain-share anomaly detection over the
// windowed time series.
//
// Two consumers of TimeSeriesStore, closing the loop from the paper's
// measurement insight (NXDomain traffic has *temporal* signatures — spikes,
// sustained floods, slow drifts in the NXDomain share) to operations:
//
//  * SloMonitor tracks two objectives — availability (non-SERVFAIL fraction
//    of client responses) and tail latency (fraction of upstream exchanges
//    completing within a target) — with Google-SRE-style multi-window
//    burn-rate alerting.  Burn = (bad fraction over window) / error budget,
//    where budget = 1 - target; burn 1.0 consumes the budget exactly at the
//    window's end.  An alert requires BOTH the long and the short window to
//    burn above the threshold: the long window ensures significance, the
//    short window ensures the problem is still happening.
//
//  * NxAnomalyDetector watches the per-window NXDomain share of client
//    queries with an EWMA mean/variance z-score and classifies departures:
//    Spike (z above threshold), Flood (spike sustained for N consecutive
//    windows), Drift (fast-EWMA share diverged from slow-EWMA share without
//    tripping the z-score).  The mean/variance model only learns while the
//    detector is quiet, so a sustained flood cannot talk its way into the
//    baseline.  A detected flood can pin PressureSignal's external floor,
//    tightening RRL/admission until the share recovers.
//
// Everything is driven by explicit SimTime and integer counter deltas, so a
// seeded run produces identical reports and alert sequences.
#pragma once

#include <cstdint>
#include <string>

#include "obs/pressure.hpp"
#include "obs/timeseries.hpp"
#include "util/civil_time.hpp"

namespace nxd::obs {

struct SloConfig {
  // Availability objective over client responses.
  double availability_target = 0.999;
  std::string event_total = "nxd_resolver_client_queries_total";
  std::string bad_total = "nxd_resolver_servfail_responses_total";
  // Latency objective: this fraction of upstream exchanges must complete
  // within latency_threshold (histogram units; SimTime seconds here).
  double latency_target = 0.99;
  std::uint64_t latency_threshold = 8;
  std::string latency_hist = "nxd_resolver_upstream_latency_seconds";
  // Multi-window burn-rate alerting (SRE workbook defaults, scaled to sim
  // runs): page on fast burn over (long1, short1), ticket on slow burn.
  util::SimTime page_long = 3600, page_short = 300;
  double page_burn = 14.4;
  util::SimTime ticket_long = 21600, ticket_short = 1800;
  double ticket_burn = 6.0;
};

struct BurnWindow {
  double long_burn = 0.0;
  double short_burn = 0.0;
  bool firing = false;  // both windows above the threshold
};

struct SloObjectiveReport {
  double target = 0.0;
  double value = 1.0;          // achieved level over the page-long window
  std::uint64_t good = 0;      // events meeting the objective (long window)
  std::uint64_t total = 0;     // events considered (long window)
  BurnWindow page;
  BurnWindow ticket;
};

struct SloReport {
  util::SimTime now = 0;
  SloObjectiveReport availability;
  SloObjectiveReport latency;
  bool any_page() const noexcept {
    return availability.page.firing || latency.page.firing;
  }
  bool any_ticket() const noexcept {
    return availability.ticket.firing || latency.ticket.firing;
  }
  std::string to_text() const;
};

class SloMonitor {
 public:
  explicit SloMonitor(SloConfig config = {});

  /// Evaluate both objectives at `now`; pages_fired()/tickets_fired() count
  /// page/ticket rising edges.
  const SloReport& evaluate(const TimeSeriesStore& ts, util::SimTime now);

  const SloReport& last() const noexcept { return last_; }
  const SloConfig& config() const noexcept { return config_; }
  std::uint64_t pages_fired() const noexcept { return pages_; }
  std::uint64_t tickets_fired() const noexcept { return tickets_; }

 private:
  SloConfig config_;
  SloReport last_;
  bool page_was_firing_ = false;
  bool ticket_was_firing_ = false;
  std::uint64_t pages_ = 0;
  std::uint64_t tickets_ = 0;
};

// ---------------------------------------------------------------------------

enum class AnomalyState : std::uint8_t { Warmup, Quiet, Spike, Flood, Drift };

const char* to_string(AnomalyState s) noexcept;

struct AnomalyConfig {
  std::string numerator = "nxd_resolver_nxdomain_responses_total";
  std::string denominator = "nxd_resolver_client_queries_total";
  util::SimTime window = 60;      // share window per evaluation
  double alpha = 0.2;             // EWMA gain for mean/variance (fast model)
  double alpha_slow = 0.02;       // slow-EWMA gain for drift reference
  double z_threshold = 4.0;       // z-score that flags a spike
  double min_rise = 0.10;         // absolute share rise also required
  double sigma_floor = 0.02;      // variance floor (share units): benign
                                  // jitter on a flat baseline can't explode z
  int sustain_windows = 3;        // consecutive spikes => flood
  double drift_delta = 0.15;      // |fast - slow| share gap => drift
  int warmup_windows = 8;         // learn-only evaluations before judging
  std::uint64_t min_events = 8;   // skip windows with fewer responses
  int flood_floor = 2;            // PressureSignal floor while flooding
};

struct AnomalyVerdict {
  util::SimTime t = 0;
  AnomalyState state = AnomalyState::Warmup;
  double share = 0.0;   // NXDomain share this window
  double mean = 0.0;    // model mean before this observation
  double sigma = 0.0;   // model stddev (floored) before this observation
  double z = 0.0;
  std::uint64_t events = 0;  // denominator window sum
};

class NxAnomalyDetector {
 public:
  explicit NxAnomalyDetector(AnomalyConfig config = {});

  /// Evaluate the last window ending at `now` from the time series.
  AnomalyVerdict observe(const TimeSeriesStore& ts, util::SimTime now);

  /// Core update on a precomputed share (unit-testable without a store).
  AnomalyVerdict update(util::SimTime now, double share,
                        std::uint64_t events);

  AnomalyState state() const noexcept { return state_; }
  const AnomalyVerdict& last() const noexcept { return last_; }
  const AnomalyConfig& config() const noexcept { return config_; }
  std::uint64_t spikes() const noexcept { return spikes_; }
  std::uint64_t floods() const noexcept { return floods_; }
  std::uint64_t drifts() const noexcept { return drifts_; }
  std::uint64_t evaluations() const noexcept { return evaluations_; }

  /// While in Flood, pin `pressure`'s external floor at config.flood_floor;
  /// cleared when the detector leaves Flood.
  void attach_pressure(PressureSignal* pressure) noexcept {
    pressure_ = pressure;
  }

  std::string to_text() const;

 private:
  AnomalyConfig config_;
  AnomalyState state_ = AnomalyState::Warmup;
  AnomalyVerdict last_;
  double mean_ = 0.0;
  double var_ = 0.0;
  double slow_mean_ = 0.0;
  bool model_seeded_ = false;
  int learned_ = 0;        // quiet windows absorbed into the model
  int consecutive_ = 0;    // consecutive flagged windows
  std::uint64_t spikes_ = 0;
  std::uint64_t floods_ = 0;
  std::uint64_t drifts_ = 0;
  std::uint64_t evaluations_ = 0;
  PressureSignal* pressure_ = nullptr;
};

}  // namespace nxd::obs
