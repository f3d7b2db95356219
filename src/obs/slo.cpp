#include "obs/slo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace nxd::obs {

namespace {

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

/// Bad-event fraction over a window: (bad, total) -> fraction in [0,1].
double bad_fraction(std::uint64_t bad, std::uint64_t total) noexcept {
  if (total == 0) return 0.0;
  if (bad > total) bad = total;
  return static_cast<double>(bad) / static_cast<double>(total);
}

/// Latency "bad" events in a window histogram: samples strictly above the
/// threshold's bucket bound (log2 geometry: threshold rounds up to the next
/// power of two, matching LatencyHistogram::quantile's resolution).
std::uint64_t over_threshold(const SnapshotSeries& hist,
                             std::uint64_t threshold) noexcept {
  if (hist.hist_count == 0 || hist.buckets.empty()) return 0;
  const std::size_t cutoff = histogram_bucket_index(threshold);
  std::uint64_t within = 0;
  for (std::size_t i = 0; i <= cutoff && i < hist.buckets.size(); ++i) {
    within += hist.buckets[i];
  }
  return hist.hist_count > within ? hist.hist_count - within : 0;
}

void fill_burn(BurnWindow* out, double long_frac, double short_frac,
               double budget, double threshold) noexcept {
  if (budget <= 0.0) budget = 1e-9;
  out->long_burn = long_frac / budget;
  out->short_burn = short_frac / budget;
  out->firing = out->long_burn >= threshold && out->short_burn >= threshold;
}

}  // namespace

SloMonitor::SloMonitor(SloConfig config) : config_(std::move(config)) {}

const SloReport& SloMonitor::evaluate(const TimeSeriesStore& ts,
                                      util::SimTime now) {
  SloReport r;
  r.now = now;

  // Availability: bad = SERVFAIL responses, total = client queries.
  {
    SloObjectiveReport& o = r.availability;
    o.target = config_.availability_target;
    const double budget = 1.0 - config_.availability_target;
    const std::uint64_t total = ts.sum(config_.event_total, config_.page_long, now);
    const std::uint64_t bad =
        std::min(ts.sum(config_.bad_total, config_.page_long, now), total);
    o.total = total;
    o.good = total - bad;
    o.value = total == 0 ? 1.0 : 1.0 - bad_fraction(bad, total);
    fill_burn(&o.page,
              bad_fraction(bad, total),
              bad_fraction(ts.sum(config_.bad_total, config_.page_short, now),
                           ts.sum(config_.event_total, config_.page_short, now)),
              budget, config_.page_burn);
    fill_burn(&o.ticket,
              bad_fraction(ts.sum(config_.bad_total, config_.ticket_long, now),
                           ts.sum(config_.event_total, config_.ticket_long, now)),
              bad_fraction(ts.sum(config_.bad_total, config_.ticket_short, now),
                           ts.sum(config_.event_total, config_.ticket_short, now)),
              budget, config_.ticket_burn);
  }

  // Latency: bad = upstream exchanges above the threshold bucket.
  {
    SloObjectiveReport& o = r.latency;
    o.target = config_.latency_target;
    const double budget = 1.0 - config_.latency_target;
    auto frac = [&](util::SimTime window) {
      const SnapshotSeries h =
          ts.window_histogram(config_.latency_hist, window, now);
      return bad_fraction(over_threshold(h, config_.latency_threshold),
                          h.hist_count);
    };
    const SnapshotSeries h =
        ts.window_histogram(config_.latency_hist, config_.page_long, now);
    const std::uint64_t bad = over_threshold(h, config_.latency_threshold);
    o.total = h.hist_count;
    o.good = h.hist_count - std::min(bad, h.hist_count);
    o.value = h.hist_count == 0 ? 1.0 : 1.0 - bad_fraction(bad, h.hist_count);
    fill_burn(&o.page, frac(config_.page_long), frac(config_.page_short),
              budget, config_.page_burn);
    fill_burn(&o.ticket, frac(config_.ticket_long), frac(config_.ticket_short),
              budget, config_.ticket_burn);
  }

  // Rising-edge alert counts.
  const bool page = r.any_page();
  const bool ticket = r.any_ticket();
  if (page && !page_was_firing_) ++pages_;
  if (ticket && !ticket_was_firing_) ++tickets_;
  page_was_firing_ = page;
  ticket_was_firing_ = ticket;
  last_ = std::move(r);
  return last_;
}

std::string SloReport::to_text() const {
  std::string out;
  auto emit = [&](const char* name, const SloObjectiveReport& o) {
    out += "slo ";
    out += name;
    out += ": target=";
    out += fmt(o.target);
    out += " value=";
    out += fmt(o.value);
    out += " good=";
    out += std::to_string(o.good);
    out += "/";
    out += std::to_string(o.total);
    out += " page_burn=";
    out += fmt(o.page.long_burn);
    out += "/";
    out += fmt(o.page.short_burn);
    out += o.page.firing ? " PAGE" : "";
    out += " ticket_burn=";
    out += fmt(o.ticket.long_burn);
    out += "/";
    out += fmt(o.ticket.short_burn);
    out += o.ticket.firing ? " TICKET" : "";
    out += '\n';
  };
  emit("availability", availability);
  emit("latency", latency);
  return out;
}

// ---------------------------------------------------------------------------

const char* to_string(AnomalyState s) noexcept {
  switch (s) {
    case AnomalyState::Warmup: return "warmup";
    case AnomalyState::Quiet: return "quiet";
    case AnomalyState::Spike: return "spike";
    case AnomalyState::Flood: return "flood";
    case AnomalyState::Drift: return "drift";
  }
  return "?";
}

NxAnomalyDetector::NxAnomalyDetector(AnomalyConfig config)
    : config_(std::move(config)) {}

AnomalyVerdict NxAnomalyDetector::observe(const TimeSeriesStore& ts,
                                          util::SimTime now) {
  const std::uint64_t events =
      ts.sum(config_.denominator, config_.window, now);
  const double share =
      ts.ratio(config_.numerator, config_.denominator, config_.window, now);
  return update(now, share, events);
}

AnomalyVerdict NxAnomalyDetector::update(util::SimTime now, double share,
                                         std::uint64_t events) {
  ++evaluations_;
  AnomalyVerdict v;
  v.t = now;
  v.share = share;
  v.events = events;
  v.mean = mean_;
  v.sigma = std::max(std::sqrt(std::max(var_, 0.0)), config_.sigma_floor);
  v.state = state_;

  // Idle windows carry no signal; hold state, learn nothing.
  if (events < config_.min_events) {
    last_ = v;
    return v;
  }

  if (!model_seeded_) {
    mean_ = share;
    slow_mean_ = share;
    var_ = 0.0;
    model_seeded_ = true;
    ++learned_;
    v.state = state_ = AnomalyState::Warmup;
    last_ = v;
    return v;
  }

  v.z = (share - mean_) / v.sigma;
  const bool flagged =
      v.z >= config_.z_threshold && (share - mean_) >= config_.min_rise;

  if (learned_ < config_.warmup_windows) {
    // Learn-only phase: absorb everything, judge nothing.
    const double d = share - mean_;
    mean_ += config_.alpha * d;
    var_ = (1.0 - config_.alpha) * (var_ + config_.alpha * d * d);
    slow_mean_ += config_.alpha_slow * (share - slow_mean_);
    ++learned_;
    v.state = state_ = AnomalyState::Warmup;
    last_ = v;
    return v;
  }

  AnomalyState next;
  if (flagged) {
    ++consecutive_;
    next = consecutive_ >= config_.sustain_windows ? AnomalyState::Flood
                                                   : AnomalyState::Spike;
  } else {
    consecutive_ = 0;
    // Drift: the fast model has tracked the share away from the long-term
    // reference without any single window tripping the z-score.
    next = std::fabs(mean_ - slow_mean_) >= config_.drift_delta
               ? AnomalyState::Drift
               : AnomalyState::Quiet;
    // Freeze-on-anomaly: only quiet windows update the spike model, so a
    // sustained flood cannot become the new baseline.
    const double d = share - mean_;
    mean_ += config_.alpha * d;
    var_ = (1.0 - config_.alpha) * (var_ + config_.alpha * d * d);
  }
  slow_mean_ += config_.alpha_slow * (share - slow_mean_);

  if (next != state_) {
    if (next == AnomalyState::Spike) ++spikes_;
    if (next == AnomalyState::Flood) ++floods_;
    if (next == AnomalyState::Drift) ++drifts_;
    if (pressure_ != nullptr) {
      if (next == AnomalyState::Flood) {
        pressure_->set_external_floor(config_.flood_floor);
      } else if (state_ == AnomalyState::Flood) {
        pressure_->set_external_floor(0);
      }
    }
    state_ = next;
  }
  v.state = state_;
  last_ = v;
  return v;
}

std::string NxAnomalyDetector::to_text() const {
  std::string out = "anomaly: state=";
  out += to_string(state_);
  out += " share=";
  out += fmt(last_.share);
  out += " mean=";
  out += fmt(last_.mean);
  out += " sigma=";
  out += fmt(last_.sigma);
  out += " z=";
  out += fmt(last_.z);
  out += " spikes=";
  out += std::to_string(spikes_);
  out += " floods=";
  out += std::to_string(floods_);
  out += " drifts=";
  out += std::to_string(drifts_);
  out += '\n';
  return out;
}

}  // namespace nxd::obs
