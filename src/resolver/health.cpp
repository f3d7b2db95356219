#include "resolver/health.hpp"

#include <algorithm>
#include <cmath>

namespace nxd::resolver {

HealthModel::HealthModel(HealthConfig config)
    : config_(config), own_registry_(std::make_unique<obs::MetricsRegistry>()) {
  acquire_metrics(*own_registry_);
}

void HealthModel::acquire_metrics(obs::MetricsRegistry& registry) {
  registry_ = &registry;
  m_.successes = registry.counter("nxd_resolver_health_successes_total",
                                  "Tries reported healthy to the model");
  m_.failures = registry.counter("nxd_resolver_health_failures_total",
                                 "Tries reported failed to the model");
  const std::string transition_help =
      "Circuit-breaker state transitions, by target state";
  m_.breaker_opened = registry.counter("nxd_resolver_breaker_transitions_total",
                                       transition_help, {{"to", "open"}});
  m_.breaker_half_opened =
      registry.counter("nxd_resolver_breaker_transitions_total",
                       transition_help, {{"to", "half_open"}});
  m_.breaker_reclosed =
      registry.counter("nxd_resolver_breaker_transitions_total",
                       transition_help, {{"to", "closed"}});
  m_.breaker_rejections =
      registry.counter("nxd_resolver_breaker_rejections_total",
                       "Sends refused by an open breaker");
  m_.breaker_probes = registry.counter(
      "nxd_resolver_breaker_probes_total", "Half-open probe slots granted");
}

void HealthModel::bind_metrics(obs::MetricsRegistry& registry) {
  if (own_registry_ != nullptr) registry.absorb(own_registry_->snapshot());
  acquire_metrics(registry);
  own_registry_.reset();
  // Re-home every per-server gauge and republish the current estimate.
  for (auto& [server, s] : servers_) publish(server, s);
}

HealthModel::Server& HealthModel::entry(const net::Endpoint& server) {
  auto [it, inserted] = servers_.try_emplace(server);
  if (inserted) {
    it->second.breaker = util::CircuitBreaker(config_.breaker);
    it->second.success_rate = 1.0;
  }
  return it->second;
}

const HealthModel::Server* HealthModel::find(const net::Endpoint& server) const {
  const auto it = servers_.find(server);
  return it == servers_.end() ? nullptr : &it->second;
}

void HealthModel::publish(const net::Endpoint& server, Server& s) {
  if (registry_ == nullptr) return;
  s.srtt_gauge = registry_->gauge(
      "nxd_resolver_upstream_srtt_us",
      "Smoothed per-upstream RTT estimate (microseconds)",
      {{"server", server.to_string()}});
  const double srtt = s.seen ? s.srtt_us : config_.initial_srtt_us;
  s.srtt_gauge.set(std::llround(srtt));
}

void HealthModel::on_success(const net::Endpoint& server, util::SimTime rtt,
                             util::SimTime now) {
  Server& s = entry(server);
  const double sample_us = static_cast<double>(std::max<util::SimTime>(0, rtt)) * 1e6;
  if (!s.seen) {
    s.seen = true;
    s.srtt_us = sample_us;
    s.rttvar_us = sample_us / 2.0;
  } else {
    // RFC 6298 order: variance first (against the old SRTT), then SRTT.
    s.rttvar_us += config_.rttvar_beta * (std::abs(sample_us - s.srtt_us) - s.rttvar_us);
    s.srtt_us += config_.srtt_alpha * (sample_us - s.srtt_us);
  }
  s.success_rate += config_.success_alpha * (1.0 - s.success_rate);
  ++s.successes;
  const auto bucket = static_cast<std::size_t>(
      std::clamp<util::SimTime>(rtt, 0, kLatencyBuckets - 1));
  ++s.rtt_seconds[bucket];
  ++s.rtt_samples;
  const util::CircuitBreakerStats before = s.breaker.stats();
  s.breaker.on_success(now);
  const util::CircuitBreakerStats after = s.breaker.stats();
  m_.successes.inc();
  m_.breaker_reclosed.inc(after.reclosed - before.reclosed);
  publish(server, s);
}

void HealthModel::on_failure(const net::Endpoint& server, util::SimTime now) {
  Server& s = entry(server);
  s.success_rate += config_.success_alpha * (0.0 - s.success_rate);
  ++s.failures;
  const util::CircuitBreakerStats before = s.breaker.stats();
  s.breaker.on_failure(now);
  const util::CircuitBreakerStats after = s.breaker.stats();
  m_.failures.inc();
  m_.breaker_opened.inc(after.opened - before.opened);
  publish(server, s);
}

bool HealthModel::allow(const net::Endpoint& server, util::SimTime now) {
  Server& s = entry(server);
  const util::CircuitBreakerStats before = s.breaker.stats();
  const bool admitted = s.breaker.allow(now);
  const util::CircuitBreakerStats after = s.breaker.stats();
  m_.breaker_half_opened.inc(after.half_opened - before.half_opened);
  m_.breaker_rejections.inc(after.rejected - before.rejected);
  m_.breaker_probes.inc(after.probes - before.probes);
  return admitted;
}

bool HealthModel::closed(const net::Endpoint& server) const {
  const Server* s = find(server);
  return s == nullptr || s->breaker.closed();
}

util::SimTime HealthModel::adaptive_timeout(const net::Endpoint& server,
                                            util::SimTime cap) const {
  const Server* s = find(server);
  if (s == nullptr || !s->seen) return cap;
  const double estimate_us = s->srtt_us + config_.var_multiplier * s->rttvar_us;
  const auto whole = static_cast<util::SimTime>(std::ceil(estimate_us / 1e6));
  const util::SimTime floor = std::min(config_.min_try_timeout, cap);
  return std::clamp(whole, floor, cap);
}

namespace {

util::SimTime histogram_p(const std::array<std::uint32_t, 64>& buckets,
                          std::uint64_t total, double q) {
  if (total == 0) return 0;
  const auto need = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (cum >= need) return static_cast<util::SimTime>(i);
  }
  return static_cast<util::SimTime>(buckets.size() - 1);
}

}  // namespace

util::SimTime HealthModel::hedge_delay(const net::Endpoint& server) const {
  if (!config_.hedge || config_.hedge_quantile <= 0) return 0;
  const Server* s = find(server);
  if (s == nullptr ||
      s->rtt_samples < static_cast<std::uint64_t>(
                           std::max(1, config_.hedge_min_samples))) {
    return 0;
  }
  const util::SimTime p =
      histogram_p(s->rtt_seconds, s->rtt_samples, config_.hedge_quantile);
  return std::max(config_.min_hedge_delay, p);
}

double HealthModel::score_of(const Server& s) const {
  const double srtt = s.seen ? s.srtt_us : config_.initial_srtt_us;
  const double rate = std::clamp(s.success_rate, 0.0, 1.0);
  return (srtt + 1.0) * (1.0 + config_.failure_penalty * (1.0 - rate));
}

double HealthModel::score(const net::Endpoint& server) const {
  const Server* s = find(server);
  if (s == nullptr) {
    return (config_.initial_srtt_us + 1.0) * 1.0;
  }
  return score_of(*s);
}

util::BreakerState HealthModel::breaker_state(const net::Endpoint& server) const {
  const Server* s = find(server);
  return s == nullptr ? util::BreakerState::Closed : s->breaker.state();
}

std::vector<net::Endpoint> HealthModel::rank(
    const std::vector<net::Endpoint>& candidates, util::SimTime now) const {
  struct Ranked {
    net::Endpoint server;
    int klass;  // 0 probe-ready, 1 closed, 2 open/blocked
    double score;
    std::size_t index;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Server* s = find(candidates[i]);
    int klass = 1;
    double sc = (config_.initial_srtt_us + 1.0);
    if (s != nullptr) {
      sc = score_of(*s);
      if (s->breaker.probe_ready(now)) {
        // One live query doubles as the recovery probe.
        klass = 0;
      } else if (s->breaker.closed()) {
        klass = 1;
      } else {
        klass = 2;
      }
    }
    ranked.push_back(Ranked{candidates[i], klass, sc, i});
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Ranked& a, const Ranked& b) {
                     if (a.klass != b.klass) return a.klass < b.klass;
                     if (a.score != b.score) return a.score < b.score;
                     return a.index < b.index;
                   });
  std::vector<net::Endpoint> out;
  out.reserve(ranked.size());
  for (const auto& r : ranked) out.push_back(r.server);
  return out;
}

std::vector<UpstreamHealth> HealthModel::snapshot() const {
  std::vector<UpstreamHealth> out;
  out.reserve(servers_.size());
  for (const auto& [server, s] : servers_) {
    UpstreamHealth h;
    h.server = server;
    h.srtt_us = s.seen ? s.srtt_us : config_.initial_srtt_us;
    h.rttvar_us = s.rttvar_us;
    h.success_rate = s.success_rate;
    h.successes = s.successes;
    h.failures = s.failures;
    h.breaker = s.breaker.state();
    h.breaker_stats = s.breaker.stats();
    h.p95 = histogram_p(s.rtt_seconds, s.rtt_samples, config_.hedge_quantile);
    out.push_back(h);
  }
  std::sort(out.begin(), out.end(),
            [](const UpstreamHealth& a, const UpstreamHealth& b) {
              return a.server.to_string() < b.server.to_string();
            });
  return out;
}

HealthStats HealthModel::stats() const noexcept {
  HealthStats s;
  s.successes = m_.successes.value();
  s.failures = m_.failures.value();
  s.breaker_opened = m_.breaker_opened.value();
  s.breaker_half_opened = m_.breaker_half_opened.value();
  s.breaker_reclosed = m_.breaker_reclosed.value();
  s.breaker_rejections = m_.breaker_rejections.value();
  s.breaker_probes = m_.breaker_probes.value();
  return s;
}

}  // namespace nxd::resolver
