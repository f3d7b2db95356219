// DNS-over-UDP front end for an AuthoritativeServer, runnable on loopback.
//
// This is the "dedicated authoritative DNS server (aDNS)" of the paper's
// §3.3 honeypot deployment, as a real network service.
#pragma once

#include <memory>

#include "net/event_loop.hpp"
#include "net/fault.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "resolver/authoritative.hpp"
#include "resolver/rrl.hpp"

namespace nxd::resolver {

class UdpDnsServer {
 public:
  /// Bind to `local` (port 0 picks an ephemeral port — handy for tests that
  /// cannot use privileged port 53).  Returns nullptr on bind failure.
  static std::unique_ptr<UdpDnsServer> create(const net::Endpoint& local,
                                              const AuthoritativeServer& auth);

  /// Register with an event loop; each readable event answers one datagram.
  void attach(net::EventLoop& loop);

  /// Drain and answer all currently pending datagrams (poll-free use).
  std::size_t pump();

  net::Endpoint local() const noexcept { return socket_.local(); }
  std::uint64_t answered() const noexcept { return m_.answered.value(); }
  std::uint64_t malformed() const noexcept { return m_.malformed.value(); }

  /// Run every inbound datagram through the same fault stage SimNetwork
  /// uses: drops are swallowed (counted in `faulted()`), corruption and
  /// truncation mangle the wire before parsing, duplicates are answered
  /// twice.  The plan must outlive the server; nullptr disables.
  void set_fault_plan(net::FaultPlan* plan) noexcept { fault_plan_ = plan; }
  std::uint64_t faulted() const noexcept { return m_.faulted.value(); }

  /// Meter responses per source address (DNS RRL, resolver/rrl.hpp).  Drop
  /// verdicts swallow the response; Slip verdicts send the genuine answer
  /// truncated (TC=1) so a real client retries over TCP.  Limiter and clock
  /// must outlive the server; nullptr disables.
  void set_rrl(ResponseRateLimiter* rrl,
               const util::SimClock* clock) noexcept {
    rrl_ = rrl;
    rrl_clock_ = clock;
  }
  std::uint64_t rrl_dropped() const noexcept { return m_.rrl_dropped.value(); }
  std::uint64_t rrl_slipped() const noexcept { return m_.rrl_slipped.value(); }

  /// Subscribe the server's RRL to the system-wide degradation ladder
  /// (obs::PressureSignal): ingest pressure raises the per-response token
  /// cost before queues blow up.  Convenience forwarder — no-op until
  /// set_rrl() has installed a limiter.  The signal must outlive the
  /// limiter; nullptr unsubscribes.
  void set_pressure(const obs::PressureSignal* pressure) noexcept {
    if (rrl_ != nullptr) rrl_->set_pressure(pressure);
  }

  /// Re-home the server counters in a shared registry under
  /// nxd_dns_server_*_total{proto=udp}; current values carry over.
  void bind_metrics(obs::MetricsRegistry& registry);

 private:
  struct Metrics {
    obs::Counter answered;
    obs::Counter malformed;
    obs::Counter faulted;
    obs::Counter rrl_dropped;
    obs::Counter rrl_slipped;
  };

  UdpDnsServer(net::UdpSocket socket, const AuthoritativeServer& auth);

  void acquire_metrics(obs::MetricsRegistry& registry);
  void handle_one(const net::Datagram& datagram);

  net::UdpSocket socket_;
  const AuthoritativeServer& auth_;
  net::FaultPlan* fault_plan_ = nullptr;
  ResponseRateLimiter* rrl_ = nullptr;
  const util::SimClock* rrl_clock_ = nullptr;
  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  Metrics m_;
};

/// One-shot client helper: send `query` to `server` over UDP and wait up to
/// `timeout_ms` for the reply.  Returns nullopt on timeout/parse failure.
std::optional<dns::Message> udp_query(const net::Endpoint& server,
                                      const dns::Message& query,
                                      int timeout_ms = 1000);

}  // namespace nxd::resolver
