#include "honeypot/overload.hpp"

#include <algorithm>
#include <charconv>

#include "util/strings.hpp"

namespace nxd::honeypot {

ConnectionGate::ConnectionGate(OverloadConfig config)
    : config_(config), own_registry_(std::make_unique<obs::MetricsRegistry>()) {
  acquire_metrics(*own_registry_);
}

void ConnectionGate::acquire_metrics(obs::MetricsRegistry& registry) {
  m_.opened = registry.counter("nxd_honeypot_conns_opened_total",
                               "Connections that reached the gate");
  m_.accepted = registry.counter("nxd_honeypot_conns_accepted_total",
                                 "Connections admitted");
  m_.completed = registry.counter("nxd_honeypot_conns_completed_total",
                                  "Connections closed after a full request");
  m_.aborted = registry.counter("nxd_honeypot_conns_aborted_total",
                                "Connections the peer closed early");
  const std::string shed_help = "Connections shed, by reason";
  m_.shed_capacity = registry.counter("nxd_honeypot_conns_shed_total",
                                      shed_help, {{"reason", "capacity"}});
  m_.shed_rate = registry.counter("nxd_honeypot_conns_shed_total", shed_help,
                                  {{"reason", "rate"}});
  m_.shed_draining = registry.counter("nxd_honeypot_conns_shed_total",
                                      shed_help, {{"reason", "draining"}});
  m_.shed_pressure = registry.counter("nxd_honeypot_conns_shed_total",
                                      shed_help, {{"reason", "pressure"}});
  const std::string expired_help = "Connections reaped at a deadline, by phase";
  m_.expired_header = registry.counter("nxd_honeypot_conns_expired_total",
                                       expired_help, {{"phase", "header"}});
  m_.expired_body = registry.counter("nxd_honeypot_conns_expired_total",
                                     expired_help, {{"phase", "body"}});
  m_.expired_idle = registry.counter("nxd_honeypot_conns_expired_total",
                                     expired_help, {{"phase", "idle"}});
  m_.drained_completed =
      registry.counter("nxd_honeypot_drained_completed_total",
                       "In-flight requests finished during drain");
  m_.drain_forced_closes =
      registry.counter("nxd_honeypot_drain_forced_closes_total",
                       "Connections force-closed at the drain deadline");
  m_.rate_sources_evicted =
      registry.counter("nxd_honeypot_rate_sources_evicted_total",
                       "Idle per-IP buckets swept");
  m_.rate_table_overflow =
      registry.counter("nxd_honeypot_rate_table_overflow_total",
                       "Connections admitted unmetered: bucket table full");
  m_.active = registry.gauge("nxd_honeypot_active_connections",
                             "Connections currently in flight");
}

void ConnectionGate::bind_metrics(obs::MetricsRegistry& registry) {
  const OverloadStats carried = stats();
  acquire_metrics(registry);
  m_.opened.inc(carried.opened);
  m_.accepted.inc(carried.accepted);
  m_.completed.inc(carried.completed);
  m_.aborted.inc(carried.aborted);
  m_.shed_capacity.inc(carried.shed_capacity);
  m_.shed_rate.inc(carried.shed_rate);
  m_.shed_draining.inc(carried.shed_draining);
  m_.shed_pressure.inc(carried.shed_pressure);
  m_.expired_header.inc(carried.expired_header);
  m_.expired_body.inc(carried.expired_body);
  m_.expired_idle.inc(carried.expired_idle);
  m_.drained_completed.inc(carried.drained_completed);
  m_.drain_forced_closes.inc(carried.drain_forced_closes);
  m_.rate_sources_evicted.inc(carried.rate_sources_evicted);
  m_.rate_table_overflow.inc(carried.rate_table_overflow);
  m_.active.add(static_cast<std::int64_t>(conns_.size()));
  own_registry_.reset();
}

const OverloadStats& ConnectionGate::stats() const noexcept {
  stats_.opened = m_.opened.value();
  stats_.accepted = m_.accepted.value();
  stats_.completed = m_.completed.value();
  stats_.aborted = m_.aborted.value();
  stats_.shed_capacity = m_.shed_capacity.value();
  stats_.shed_rate = m_.shed_rate.value();
  stats_.shed_draining = m_.shed_draining.value();
  stats_.shed_pressure = m_.shed_pressure.value();
  stats_.expired_header = m_.expired_header.value();
  stats_.expired_body = m_.expired_body.value();
  stats_.expired_idle = m_.expired_idle.value();
  stats_.drained_completed = m_.drained_completed.value();
  stats_.drain_forced_closes = m_.drain_forced_closes.value();
  stats_.rate_sources_evicted = m_.rate_sources_evicted.value();
  stats_.rate_table_overflow = m_.rate_table_overflow.value();
  return stats_;
}

bool ConnectionGate::rate_admit(net::IPv4 source, util::SimTime now) {
  if (config_.per_ip_rate <= 0) return true;
  auto it = buckets_.find(source);
  if (it == buckets_.end()) {
    if (config_.max_tracked_ips != 0 &&
        buckets_.size() >= config_.max_tracked_ips) {
      // Sweep buckets that have fully refilled (idle long enough to hold no
      // state worth keeping).  A spoofed flood of fresh sources therefore
      // recycles table slots instead of growing memory.
      for (auto victim = buckets_.begin(); victim != buckets_.end();) {
        if (victim->second.tokens_at(now) >= victim->second.capacity()) {
          victim = buckets_.erase(victim);
          m_.rate_sources_evicted.inc();
        } else {
          ++victim;
        }
      }
    }
    if (config_.max_tracked_ips != 0 &&
        buckets_.size() >= config_.max_tracked_ips) {
      // Every tracked source is actively metered and the table is full:
      // fail open for the newcomer (admitting one request is cheaper than
      // letting an attacker evict real limiter state), but count it.
      m_.rate_table_overflow.inc();
      return true;
    }
    it = buckets_
             .emplace(source, util::TokenBucket(config_.per_ip_burst,
                                                config_.per_ip_rate))
             .first;
  }
  return it->second.try_acquire(now);
}

ConnectionGate::Admission ConnectionGate::open(net::IPv4 source,
                                               util::SimTime now) {
  m_.opened.inc();
  if (draining_) {
    m_.shed_draining.inc();
    return Admission{0, AdmitDecision::ShedDraining};
  }
  if (config_.max_connections != 0 &&
      conns_.size() >= config_.max_connections) {
    m_.shed_capacity.inc();
    return Admission{0, AdmitDecision::ShedCapacity};
  }
  if (pressure_ != nullptr && config_.max_connections != 0) {
    // Degradation ladder: the effective cap shrinks with the pressure
    // level, shedding *before* the hard cap is reached.
    const auto cap = static_cast<std::size_t>(obs::PressureSignal::scale_capacity(
        static_cast<std::int64_t>(config_.max_connections),
        pressure_->level_index()));
    if (conns_.size() >= cap) {
      m_.shed_pressure.inc();
      return Admission{0, AdmitDecision::ShedPressure};
    }
  }
  if (!rate_admit(source, now)) {
    m_.shed_rate.inc();
    return Admission{0, AdmitDecision::ShedRate};
  }
  m_.accepted.inc();
  const std::uint64_t id = next_id_++;
  Conn conn;
  conn.source = source;
  conn.opened = now;
  conn.last_activity = now;
  conns_.emplace(id, conn);
  m_.active.add(1);
  arm(id, conn);
  return Admission{id, AdmitDecision::Accept};
}

std::optional<util::SimTime> ConnectionGate::effective_deadline(
    const Conn& conn) const {
  std::optional<util::SimTime> deadline;
  const auto consider = [&deadline](util::SimTime candidate) {
    if (!deadline || candidate < *deadline) deadline = candidate;
  };
  if (config_.idle_deadline > 0) {
    consider(conn.last_activity + config_.idle_deadline);
  }
  const util::SimTime phase =
      conn.headers_done ? config_.request_deadline : config_.header_deadline;
  if (phase > 0) consider(conn.opened + phase);
  if (draining_) consider(drain_started_ + config_.drain_deadline);
  return deadline;
}

void ConnectionGate::arm(std::uint64_t id, const Conn& conn) {
  if (const auto deadline = effective_deadline(conn)) {
    deadlines_.set(id, *deadline);
  } else {
    deadlines_.erase(id);
  }
}

ExpireReason ConnectionGate::classify(const Conn& conn) const {
  const util::SimTime phase_limit =
      conn.headers_done ? config_.request_deadline : config_.header_deadline;
  const std::optional<util::SimTime> idle =
      config_.idle_deadline > 0
          ? std::optional(conn.last_activity + config_.idle_deadline)
          : std::nullopt;
  const std::optional<util::SimTime> phase =
      phase_limit > 0 ? std::optional(conn.opened + phase_limit) : std::nullopt;
  const std::optional<util::SimTime> drain =
      draining_ ? std::optional(drain_started_ + config_.drain_deadline)
                : std::nullopt;
  // Priority on ties: the drain cap is the most specific event, then the
  // phase (header/body) budget, then idleness.
  const auto le = [](const std::optional<util::SimTime>& a,
                     const std::optional<util::SimTime>& b) {
    return a && (!b || *a <= *b);
  };
  if (drain && le(drain, phase) && le(drain, idle)) {
    return ExpireReason::DrainForced;
  }
  if (le(phase, idle)) {
    return conn.headers_done ? ExpireReason::Body : ExpireReason::Header;
  }
  return ExpireReason::Idle;
}

void ConnectionGate::activity(std::uint64_t id, util::SimTime now,
                              bool headers_complete) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  it->second.last_activity = now;
  if (headers_complete) it->second.headers_done = true;
  arm(id, it->second);
}

std::vector<ConnectionGate::Expired> ConnectionGate::reap(util::SimTime now) {
  std::vector<Expired> out;
  for (const std::uint64_t id : deadlines_.pop_expired(now)) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    const ExpireReason reason = classify(it->second);
    switch (reason) {
      case ExpireReason::Header: m_.expired_header.inc(); break;
      case ExpireReason::Body: m_.expired_body.inc(); break;
      case ExpireReason::Idle: m_.expired_idle.inc(); break;
      case ExpireReason::DrainForced: m_.drain_forced_closes.inc(); break;
    }
    conns_.erase(it);
    m_.active.sub(1);
    out.push_back(Expired{id, reason});
  }
  return out;
}

void ConnectionGate::close(std::uint64_t id, bool completed) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  conns_.erase(it);
  deadlines_.erase(id);
  m_.active.sub(1);
  if (completed) {
    m_.completed.inc();
    if (draining_) m_.drained_completed.inc();
  } else {
    m_.aborted.inc();
  }
}

void ConnectionGate::begin_drain(util::SimTime now) {
  if (draining_) return;
  draining_ = true;
  drain_started_ = now;
  // Cap every in-flight deadline at the drain cutoff.  Re-arm in ascending
  // id order so the queue's tie order — and therefore the reap order — does
  // not depend on hash-map iteration.
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (const std::uint64_t id : ids) arm(id, conns_.at(id));
}

// ------------------------------------------------------------ LoadSnapshot

void LoadSnapshot::add_overload(const std::string& prefix,
                                const OverloadStats& stats) {
  add(prefix + ".opened", stats.opened);
  add(prefix + ".accepted", stats.accepted);
  add(prefix + ".completed", stats.completed);
  add(prefix + ".aborted", stats.aborted);
  add(prefix + ".shed_capacity", stats.shed_capacity);
  add(prefix + ".shed_rate", stats.shed_rate);
  add(prefix + ".shed_draining", stats.shed_draining);
  add(prefix + ".shed_pressure", stats.shed_pressure);
  add(prefix + ".expired_header", stats.expired_header);
  add(prefix + ".expired_body", stats.expired_body);
  add(prefix + ".expired_idle", stats.expired_idle);
  add(prefix + ".drained_completed", stats.drained_completed);
  add(prefix + ".drain_forced_closes", stats.drain_forced_closes);
  add(prefix + ".rate_sources_evicted", stats.rate_sources_evicted);
  add(prefix + ".rate_table_overflow", stats.rate_table_overflow);
}

std::string LoadSnapshot::to_text() const {
  std::string out = "nxd-load-snapshot v1\n";
  for (const auto& [name, value] : counters) {
    out += name;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  }
  return out;
}

std::optional<LoadSnapshot> LoadSnapshot::parse(std::string_view text) {
  const auto header_end = text.find('\n');
  if (header_end == std::string_view::npos) return std::nullopt;
  if (util::trim(text.substr(0, header_end)) != "nxd-load-snapshot v1") {
    return std::nullopt;
  }
  LoadSnapshot snapshot;
  std::string_view rest = text.substr(header_end + 1);
  while (!rest.empty()) {
    const auto line_end = rest.find('\n');
    const std::string_view line = util::trim(
        line_end == std::string_view::npos ? rest : rest.substr(0, line_end));
    rest = line_end == std::string_view::npos ? std::string_view{}
                                              : rest.substr(line_end + 1);
    if (line.empty()) continue;
    const auto space = line.rfind(' ');
    if (space == std::string_view::npos || space == 0) return std::nullopt;
    const std::string_view name = util::trim(line.substr(0, space));
    const std::string_view digits = line.substr(space + 1);
    std::uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), value);
    if (ec != std::errc{} || ptr != digits.data() + digits.size()) {
      return std::nullopt;
    }
    snapshot.add(std::string(name), value);
  }
  return snapshot;
}

}  // namespace nxd::honeypot
