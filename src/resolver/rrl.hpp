// DNS Response Rate Limiting (BIND-style RRL) for the authoritative front
// ends.
//
// Open resolvers and authoritative servers are the classic DNS reflection
// amplifier: a spoofed 60-byte query elicits a much larger response aimed at
// the victim.  The paper's aDNS serves re-registered NXDomain-study zones
// whose traffic is almost entirely unsolicited (§4), making it a prime
// reflection target.  RRL meters *responses per source address* with one
// util::TokenBucket per source:
//
//   Pass — bucket had a token; answer normally.
//   Slip — every `slip`-th limited response is sent anyway, but truncated
//          (TC=1, answer sections stripped).  A *real* client behind the
//          spoofed address retries over TCP and gets the full answer; the
//          reflection victim receives a response smaller than the query.
//   Drop — the rest of the limited responses are silently discarded.
//
// A slipped response reuses the genuine answer's header (only TC added), so
// RRL can never fabricate an NXDomain — or any other rcode — the zone did
// not produce.  TCP interprets the verdicts differently: a completed TCP
// handshake proves the return path, so there is nothing to reflect and TC
// would be meaningless — the TCP front end answers Slip in full and treats
// Drop as "close without answering" (pure backpressure, no amplification).
//
// Like honeypot::ConnectionGate, verdicts are pure functions of
// (config, event sequence, injected SimTime), so seeded floods reproduce
// their pass/slip/drop counts exactly.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "dns/message.hpp"
#include "net/endpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/pressure.hpp"
#include "obs/span.hpp"
#include "util/civil_time.hpp"
#include "util/token_bucket.hpp"

namespace nxd::resolver {

struct RrlConfig {
  /// Responses per second allowed per source address; 0 disables RRL
  /// entirely (every verdict is Pass).
  double responses_per_second = 0;
  /// Bucket capacity: burst of responses a quiet source may draw at once.
  double burst = 10;
  /// Every `slip`-th limited response is sent truncated instead of dropped
  /// (BIND's slip ratio).  1 = slip every limited response, 0 = never slip.
  std::uint32_t slip = 2;
  /// Bound on the per-source bucket table; fully refilled (idle) entries
  /// are swept when it fills, so a spoofed flood cannot grow server memory.
  std::size_t max_tracked_sources = 4096;
};

enum class RrlVerdict : std::uint8_t { Pass, Slip, Drop };

struct RrlStats {
  std::uint64_t checked = 0;
  std::uint64_t passed = 0;
  std::uint64_t slipped = 0;
  std::uint64_t dropped = 0;
  std::uint64_t sources_evicted = 0;
  /// Checks admitted unmetered because the table was full of active sources.
  std::uint64_t table_overflow = 0;
  /// Checks metered at an elevated token cost because the degradation
  /// ladder was above Normal when they arrived.
  std::uint64_t pressure_scaled = 0;

  std::uint64_t limited() const noexcept { return slipped + dropped; }

  friend bool operator==(const RrlStats&, const RrlStats&) = default;
};

class ResponseRateLimiter {
 public:
  explicit ResponseRateLimiter(RrlConfig config = {});

  /// Verdict for one about-to-be-sent response to `source` at simulated
  /// time `now`.
  RrlVerdict check(net::IPv4 source, util::SimTime now);

  std::size_t tracked_sources() const noexcept { return sources_.size(); }
  const RrlConfig& config() const noexcept { return config_; }
  const RrlStats& stats() const noexcept;

  /// Source the RrlStats fields from a shared registry (current values carry
  /// over).
  void bind_metrics(obs::MetricsRegistry& registry);

  /// Subscribe to the system-wide degradation ladder: at pressure level L a
  /// response costs 1x/1.33x/2x/4x tokens, shrinking every source's
  /// effective rate without touching bucket state — deterministic and
  /// instantly reversible when pressure releases.  The signal must outlive
  /// the limiter; nullptr restores normal cost.
  void set_pressure(const obs::PressureSignal* pressure) noexcept {
    pressure_ = pressure;
  }

  /// Emit sampled point spans (name "rrl", detail=verdict, value=source
  /// address) keyed by the check sequence number, so a fixed tracer seed
  /// samples the same verdicts every run.  nullptr stops.
  void trace_spans(obs::SpanTracer* spans) noexcept { spans_ = spans; }

 private:
  struct Source {
    util::TokenBucket bucket;
    std::uint32_t limited_count = 0;  // drives the slip cadence
  };

  struct Metrics {
    obs::Counter checked;
    obs::Counter passed;
    obs::Counter slipped;
    obs::Counter dropped;
    obs::Counter sources_evicted;
    obs::Counter table_overflow;
    obs::Counter pressure_scaled;
  };

  void acquire_metrics(obs::MetricsRegistry& registry);
  void span_verdict(util::SimTime now, net::IPv4 source, const char* verdict);

  RrlConfig config_;
  mutable RrlStats stats_;  // cache refreshed from the handles by stats()
  std::unordered_map<net::IPv4, Source, dns::IPv4Hash> sources_;
  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  Metrics m_;
  obs::SpanTracer* spans_ = nullptr;
  std::uint64_t span_seq_ = 0;  // sampling key for verdict spans
  const obs::PressureSignal* pressure_ = nullptr;
};

/// The wire form of a Slip verdict: the genuine response's header with TC
/// set and every answer section stripped (question survives).  Smaller than
/// the query, honest about the rcode, and a standing invitation to retry
/// over TCP.
dns::Message slip_truncate(const dns::Message& response);

}  // namespace nxd::resolver
