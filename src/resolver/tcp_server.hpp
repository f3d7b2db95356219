// DNS over TCP (RFC 1035 §4.2.2) and the TC-bit truncation path.
//
// UDP answers over 512 octets must be truncated with the TC bit set; the
// client then retries over TCP, where each message is preceded by a 2-byte
// length.  NXDomain responses rarely need this, but an authoritative
// server for re-registered study domains must be a complete citizen.
#pragma once

#include <memory>

#include "net/event_loop.hpp"
#include "net/fault.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "resolver/authoritative.hpp"
#include "resolver/rrl.hpp"

namespace nxd::resolver {

/// Maximum UDP payload before truncation applies for classic (non-EDNS)
/// clients.
constexpr std::size_t kMaxUdpPayload = 512;

/// Ceiling honoured for EDNS-advertised payload sizes (the widely deployed
/// fragmentation-safe value).
constexpr std::size_t kMaxEdnsPayload = 1'232;

/// Apply §4.2.1 truncation policy: if `wire_size` exceeds the limit,
/// return a copy of `response` with answers/authority/additional stripped
/// and TC set; otherwise return it unchanged.
dns::Message truncate_for_udp(const dns::Message& response,
                              std::size_t wire_size,
                              std::size_t limit = kMaxUdpPayload);

/// DNS-over-TCP front end for an AuthoritativeServer: 2-byte length-prefixed
/// messages on an accepted stream, one query per connection (the common
/// retry pattern).
class TcpDnsServer {
 public:
  static std::unique_ptr<TcpDnsServer> create(const net::Endpoint& local,
                                              const AuthoritativeServer& auth);

  void attach(net::EventLoop& loop);
  net::Endpoint local() const noexcept { return listener_.local(); }
  std::uint64_t answered() const noexcept { return m_.answered.value(); }

  /// Run each received DNS message through the fault stage before parsing
  /// (drop → connection ignored, corrupt/truncate → mangled wire; the
  /// duplicate verdict is meaningless on a stream and ignored).  The plan
  /// must outlive the server; nullptr disables.
  void set_fault_plan(net::FaultPlan* plan) noexcept { fault_plan_ = plan; }
  std::uint64_t faulted() const noexcept { return m_.faulted.value(); }

  /// Meter responses per source address (DNS RRL, resolver/rrl.hpp).  On
  /// TCP the return path is proven, so Slip answers in full and Drop closes
  /// the connection without answering (backpressure, not reflection
  /// defense).  Limiter and clock must outlive the server; nullptr
  /// disables.
  void set_rrl(ResponseRateLimiter* rrl,
               const util::SimClock* clock) noexcept {
    rrl_ = rrl;
    rrl_clock_ = clock;
  }
  std::uint64_t rrl_dropped() const noexcept { return m_.rrl_dropped.value(); }

  /// Subscribe the server's RRL to the system-wide degradation ladder —
  /// see UdpDnsServer::set_pressure.  No-op until set_rrl() installed a
  /// limiter; nullptr unsubscribes.
  void set_pressure(const obs::PressureSignal* pressure) noexcept {
    if (rrl_ != nullptr) rrl_->set_pressure(pressure);
  }

  /// Re-home the server counters in a shared registry under
  /// nxd_dns_server_*_total{proto=tcp}; current values carry over.
  void bind_metrics(obs::MetricsRegistry& registry);

 private:
  struct Metrics {
    obs::Counter answered;
    obs::Counter faulted;
    obs::Counter rrl_dropped;
  };

  TcpDnsServer(net::TcpListener listener, const AuthoritativeServer& auth);

  void acquire_metrics(obs::MetricsRegistry& registry);
  void on_acceptable();

  net::TcpListener listener_;
  const AuthoritativeServer& auth_;
  net::FaultPlan* fault_plan_ = nullptr;
  ResponseRateLimiter* rrl_ = nullptr;
  const util::SimClock* rrl_clock_ = nullptr;
  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  Metrics m_;
};

/// Client helper: query over TCP with the length-prefix framing.
std::optional<dns::Message> tcp_query(const net::Endpoint& server,
                                      const dns::Message& query,
                                      int timeout_ms = 2000);

}  // namespace nxd::resolver
