#include "resolver/rrl.hpp"

namespace nxd::resolver {

ResponseRateLimiter::ResponseRateLimiter(RrlConfig config)
    : config_(config), own_registry_(std::make_unique<obs::MetricsRegistry>()) {
  acquire_metrics(*own_registry_);
}

void ResponseRateLimiter::acquire_metrics(obs::MetricsRegistry& registry) {
  m_.checked = registry.counter("nxd_resolver_rrl_checked_total",
                                "Responses run through RRL");
  m_.passed = registry.counter("nxd_resolver_rrl_passed_total",
                               "RRL verdicts: answer normally");
  m_.slipped = registry.counter("nxd_resolver_rrl_slipped_total",
                                "RRL verdicts: answer truncated (TC=1)");
  m_.dropped = registry.counter("nxd_resolver_rrl_dropped_total",
                                "RRL verdicts: response discarded");
  m_.sources_evicted = registry.counter("nxd_resolver_rrl_sources_evicted_total",
                                        "Idle source buckets swept");
  m_.table_overflow = registry.counter(
      "nxd_resolver_rrl_table_overflow_total",
      "Checks admitted unmetered because the source table was full");
  m_.pressure_scaled = registry.counter(
      "nxd_resolver_rrl_pressure_scaled_total",
      "Checks metered at an elevated cost by the degradation ladder");
}

void ResponseRateLimiter::bind_metrics(obs::MetricsRegistry& registry) {
  const RrlStats carried = stats();
  acquire_metrics(registry);
  m_.checked.inc(carried.checked);
  m_.passed.inc(carried.passed);
  m_.slipped.inc(carried.slipped);
  m_.dropped.inc(carried.dropped);
  m_.sources_evicted.inc(carried.sources_evicted);
  m_.table_overflow.inc(carried.table_overflow);
  m_.pressure_scaled.inc(carried.pressure_scaled);
  own_registry_.reset();
}

const RrlStats& ResponseRateLimiter::stats() const noexcept {
  stats_.checked = m_.checked.value();
  stats_.passed = m_.passed.value();
  stats_.slipped = m_.slipped.value();
  stats_.dropped = m_.dropped.value();
  stats_.sources_evicted = m_.sources_evicted.value();
  stats_.table_overflow = m_.table_overflow.value();
  stats_.pressure_scaled = m_.pressure_scaled.value();
  return stats_;
}


void ResponseRateLimiter::span_verdict(util::SimTime now, net::IPv4 source,
                                       const char* verdict) {
  if (spans_ == nullptr) return;
  ++span_seq_;
  const obs::SpanId s = spans_->trace_root(span_seq_, "rrl", now, verdict);
  spans_->end(s, now, static_cast<std::int64_t>(source.addr));
}

RrlVerdict ResponseRateLimiter::check(net::IPv4 source, util::SimTime now) {
  m_.checked.inc();
  if (config_.responses_per_second <= 0) {
    m_.passed.inc();
    span_verdict(now, source, "pass");
    return RrlVerdict::Pass;
  }
  auto it = sources_.find(source);
  if (it == sources_.end()) {
    if (config_.max_tracked_sources != 0 &&
        sources_.size() >= config_.max_tracked_sources) {
      // Sweep sources whose buckets have fully refilled — idle long enough
      // that forgetting them changes no verdict.
      for (auto victim = sources_.begin(); victim != sources_.end();) {
        if (victim->second.bucket.tokens_at(now) >=
            victim->second.bucket.capacity()) {
          victim = sources_.erase(victim);
          m_.sources_evicted.inc();
        } else {
          ++victim;
        }
      }
    }
    if (config_.max_tracked_sources != 0 &&
        sources_.size() >= config_.max_tracked_sources) {
      // Table full of actively metered sources: answer the newcomer
      // unmetered rather than evicting live limiter state, but count it.
      m_.table_overflow.inc();
      m_.passed.inc();
      span_verdict(now, source, "pass_overflow");
      return RrlVerdict::Pass;
    }
    it = sources_
             .emplace(source,
                      Source{util::TokenBucket(config_.burst,
                                               config_.responses_per_second),
                             0})
             .first;
  }
  // Degradation ladder: above Normal, every response costs more tokens —
  // the effective per-source rate shrinks by 25%/50%/75% without touching
  // bucket state, so the tightening releases the moment pressure does.
  double cost = 1.0;
  if (pressure_ != nullptr) {
    const int level = pressure_->level_index();
    if (level > 0) {
      cost = obs::PressureSignal::cost_multiplier(level);
      m_.pressure_scaled.inc();
    }
  }
  if (it->second.bucket.try_acquire(now, cost)) {
    m_.passed.inc();
    span_verdict(now, source, "pass");
    return RrlVerdict::Pass;
  }
  // Limited: slip every `slip`-th limited response, drop the rest.
  ++it->second.limited_count;
  if (config_.slip != 0 && it->second.limited_count % config_.slip == 0) {
    m_.slipped.inc();
    span_verdict(now, source, "slip");
    return RrlVerdict::Slip;
  }
  m_.dropped.inc();
  span_verdict(now, source, "drop");
  return RrlVerdict::Drop;
}

dns::Message slip_truncate(const dns::Message& response) {
  dns::Message slipped;
  slipped.header = response.header;
  slipped.header.tc = true;
  slipped.questions = response.questions;
  return slipped;
}

}  // namespace nxd::resolver
