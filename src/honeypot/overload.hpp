// Overload resilience for the serving layer (admission control, per-IP rate
// limiting, slowloris deadlines, graceful drain).
//
// The paper's NXD-Honeypot absorbed 5.93 M unsolicited HTTP(S) requests
// across 19 domains (§6), and NXDomain-adjacent traffic arrives as floods:
// scanners, DGA bursts, amplification probes.  A production-scale sensor
// must degrade gracefully — shed with explicit status codes, never crash,
// never drop a request it accepted.  ConnectionGate is the policy engine:
//
//   admission  — a hard cap on concurrent connections; over it, shed with
//                503 + Retry-After (the cheapest possible refusal);
//   rate limit — one util::TokenBucket per source IP (bounded table);
//                an empty bucket sheds with 429 + Retry-After;
//   deadlines  — header / whole-request / idle deadlines armed in one
//                util::DeadlineQueue kill slowloris connections (reaped
//                with 408, the half-sent bytes kept as capture evidence);
//   drain      — begin_drain() refuses new connections (503) while
//                in-flight requests finish; stragglers are force-closed at
//                the drain deadline, so shutdown always terminates.
//
// Everything runs on the injected simulated clock and the gate's own
// decisions are pure functions of (config, event sequence), so a seeded
// flood reproduces its shed counters byte-for-byte.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/endpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/pressure.hpp"
#include "util/civil_time.hpp"
#include "util/deadline_queue.hpp"
#include "util/token_bucket.hpp"

namespace nxd::honeypot {

struct OverloadConfig {
  /// Concurrent-connection cap; over it new connections shed 503.
  /// 0 = unbounded.
  std::size_t max_connections = 256;
  /// Per-source-IP request rate (tokens/second); 0 disables rate limiting.
  double per_ip_rate = 0;
  /// Bucket capacity (burst allowance) for the per-IP limiter.
  double per_ip_burst = 8;
  /// Bound on the per-IP bucket table; fully idle buckets are swept when it
  /// fills (a spoofed flood must not grow server memory without limit).
  std::size_t max_tracked_ips = 4096;
  /// Seconds a connection may take to finish its header block.
  util::SimTime header_deadline = 10;
  /// Seconds a connection may take to finish the whole request.
  util::SimTime request_deadline = 30;
  /// Seconds of silence before an idle connection is reaped.
  util::SimTime idle_deadline = 5;
  /// Grace period for in-flight requests after begin_drain(); survivors are
  /// force-closed when it elapses.
  util::SimTime drain_deadline = 15;
  /// Retry-After value stamped on 503/429 responses.
  int retry_after = 30;
};

enum class AdmitDecision : std::uint8_t {
  Accept,
  ShedCapacity,  // 503: max_connections reached
  ShedRate,      // 429: source bucket empty
  ShedDraining,  // 503: server is draining for shutdown
  ShedPressure,  // 503: degradation ladder tightened the admission cap
};

enum class ExpireReason : std::uint8_t { Header, Body, Idle, DrainForced };

struct OverloadStats {
  std::uint64_t opened = 0;
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t aborted = 0;  // peer closed before a full request
  std::uint64_t shed_capacity = 0;
  std::uint64_t shed_rate = 0;
  std::uint64_t shed_draining = 0;
  std::uint64_t shed_pressure = 0;  // cap tightened by the degradation ladder
  std::uint64_t expired_header = 0;
  std::uint64_t expired_body = 0;
  std::uint64_t expired_idle = 0;
  std::uint64_t drained_completed = 0;   // finished in-flight during drain
  std::uint64_t drain_forced_closes = 0; // alive past the drain deadline
  std::uint64_t rate_sources_evicted = 0;
  std::uint64_t rate_table_overflow = 0; // admitted unmetered, table full

  std::uint64_t shed_total() const noexcept {
    return shed_capacity + shed_rate + shed_draining + shed_pressure;
  }
  std::uint64_t expired_total() const noexcept {
    return expired_header + expired_body + expired_idle;
  }

  friend bool operator==(const OverloadStats&, const OverloadStats&) = default;
};

class ConnectionGate {
 public:
  explicit ConnectionGate(OverloadConfig config = {});

  struct Admission {
    std::uint64_t id = 0;  // valid only when decision == Accept
    AdmitDecision decision = AdmitDecision::Accept;
  };

  /// Admit or shed a new connection from `source` at simulated time `now`.
  Admission open(net::IPv4 source, util::SimTime now);

  /// Note received bytes on a live connection: refreshes the idle deadline
  /// and, once `headers_complete`, switches the phase deadline from header
  /// to whole-request.  Unknown ids are ignored.
  void activity(std::uint64_t id, util::SimTime now, bool headers_complete);

  struct Expired {
    std::uint64_t id = 0;
    ExpireReason reason = ExpireReason::Idle;
  };

  /// Remove and return every connection whose deadline has passed, in
  /// deterministic (deadline, insertion) order.
  std::vector<Expired> reap(util::SimTime now);

  /// Close a live connection (request answered, or peer went away).
  void close(std::uint64_t id, bool completed);

  /// Stop admitting (new opens shed 503) and cap every in-flight deadline
  /// at now + drain_deadline.
  void begin_drain(util::SimTime now);
  bool draining() const noexcept { return draining_; }
  /// True once draining and no connection is left in flight.
  bool drain_complete() const noexcept { return draining_ && conns_.empty(); }

  std::size_t active() const noexcept { return conns_.size(); }
  std::size_t tracked_sources() const noexcept { return buckets_.size(); }
  const OverloadConfig& config() const noexcept { return config_; }
  const OverloadStats& stats() const noexcept;

  /// Source the OverloadStats fields from a shared registry (current values
  /// carry over).
  void bind_metrics(obs::MetricsRegistry& registry);

  /// Subscribe to the system-wide degradation ladder: at pressure level L
  /// the admission cap shrinks to max_connections*(4-L)/4, shedding early
  /// (503, counted under shed_pressure) so ingest debt never becomes an
  /// edge blowup.  nullptr (the default) restores full capacity.  The
  /// signal must outlive the gate.
  void set_pressure(const obs::PressureSignal* pressure) noexcept {
    pressure_ = pressure;
  }

 private:
  struct Conn {
    net::IPv4 source;
    util::SimTime opened = 0;
    util::SimTime last_activity = 0;
    bool headers_done = false;
  };

  struct Metrics {
    obs::Counter opened;
    obs::Counter accepted;
    obs::Counter completed;
    obs::Counter aborted;
    obs::Counter shed_capacity;
    obs::Counter shed_rate;
    obs::Counter shed_draining;
    obs::Counter shed_pressure;
    obs::Counter expired_header;
    obs::Counter expired_body;
    obs::Counter expired_idle;
    obs::Counter drained_completed;
    obs::Counter drain_forced_closes;
    obs::Counter rate_sources_evicted;
    obs::Counter rate_table_overflow;
    obs::Gauge active;
  };

  bool rate_admit(net::IPv4 source, util::SimTime now);
  std::optional<util::SimTime> effective_deadline(const Conn& conn) const;
  void arm(std::uint64_t id, const Conn& conn);
  ExpireReason classify(const Conn& conn) const;
  void acquire_metrics(obs::MetricsRegistry& registry);

  OverloadConfig config_;
  mutable OverloadStats stats_;  // cache refreshed from handles by stats()
  std::unordered_map<std::uint64_t, Conn> conns_;
  util::DeadlineQueue deadlines_;
  util::SourceBuckets<net::IPv4, dns::IPv4Hash> buckets_;
  std::uint64_t next_id_ = 1;
  bool draining_ = false;
  util::SimTime drain_started_ = 0;
  const obs::PressureSignal* pressure_ = nullptr;
  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  Metrics m_;
};

}  // namespace nxd::honeypot
