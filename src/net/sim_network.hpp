// Deterministic in-memory packet network.
//
// Tests and synthetic experiments need to push millions of "packets" through
// the honeypot recorder and the DNS resolution hierarchy without touching
// real sockets.  SimNetwork delivers datagrams synchronously to registered
// endpoint handlers and lets a handler reply inline, which is enough to
// model request/response protocols (DNS over UDP, one-shot HTTP).
//
// An optional FaultPlan turns the perfect wire into a lossy one: packets may
// be dropped, duplicated, corrupted, truncated, or delayed on their way to
// the destination endpoint (see net/fault.hpp).  Without a plan the network
// behaves exactly as before — zero overhead, zero randomness.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/endpoint.hpp"
#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "util/civil_time.hpp"

namespace nxd::net {

struct SimPacket {
  Protocol protocol = Protocol::UDP;
  Endpoint src;
  Endpoint dst;
  std::vector<std::uint8_t> payload;
};

/// Map key for attached services: one service per (endpoint, protocol).
struct ServiceKey {
  Endpoint ep;
  Protocol proto = Protocol::UDP;
  friend bool operator==(const ServiceKey&, const ServiceKey&) = default;
};

struct ServiceKeyHash {
  std::size_t operator()(const ServiceKey& k) const noexcept {
    // SplitMix64-style combiner: the old `hash * 31 + proto` kept the
    // protocol in the lowest bits only, so (endpoint, proto) pairs clustered
    // in small tables; a full avalanche spreads both inputs across the word
    // (regression-tested in tests/net_test.cpp).
    std::uint64_t h = EndpointHash{}(k.ep) + 0x9e3779b97f4a7c15ULL +
                      static_cast<std::uint64_t>(k.proto);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(h ^ (h >> 31));
  }
};

class SimNetwork {
 public:
  /// A service consumes a packet and may return a reply payload, which the
  /// network delivers back to the packet source.
  using Service =
      std::function<std::optional<std::vector<std::uint8_t>>(const SimPacket&)>;

  /// Attach a service to (ip, port, protocol).  Replaces any previous one.
  void attach(const Endpoint& ep, Protocol proto, Service service);

  void detach(const Endpoint& ep, Protocol proto);

  /// Send one packet.  Returns the reply payload if the destination service
  /// produced one; nullopt when the packet was lost in transit (fault
  /// stage), the destination is unattached (packet dropped, like a closed
  /// port), or the service declined to answer.
  std::optional<std::vector<std::uint8_t>> send(const SimPacket& packet);

  /// Install a fault-injection plan.  Pass a default-constructed plan to
  /// restore perfect delivery.
  void set_fault_plan(FaultPlan plan) { fault_plan_ = std::move(plan); }
  FaultPlan& fault_plan() noexcept { return fault_plan_; }
  const FaultStats& fault_stats() const noexcept { return fault_plan_.stats(); }

  /// Clock feeding the fault plan's timed outage windows; without one the
  /// fault stage sees now == 0 (scoped FaultWindows still apply).
  void set_clock(const util::SimClock* clock) noexcept { clock_ = clock; }

  /// Transit delay the fault stage attached to the most recent send()
  /// (0 when none) — callers that account simulated time add this to their
  /// round-trip estimate.
  util::SimTime last_injected_delay() const noexcept { return last_delay_; }

  std::uint64_t delivered() const noexcept { return delivered_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Mirror delivery and fault-injection counts into a shared registry.
  /// Fault counters mirror per-send deltas of the plan's own stats, so they
  /// stay monotonic even when a caller reset_stats()s or swaps the plan
  /// mid-run.
  void bind_metrics(obs::MetricsRegistry& registry);

 private:
  struct Metrics {
    obs::Counter delivered;
    obs::Counter dropped;
    obs::Counter fault_drops;
    obs::Counter fault_duplicates;
    obs::Counter fault_corruptions;
    obs::Counter fault_truncations;
    obs::Counter fault_delays;
    obs::Counter outage_drops;
    obs::Counter fault_delay_seconds;
  };

  /// Mirror the per-send change in the plan's FaultStats into the registry.
  void mirror_faults(const FaultStats& before, const FaultStats& after);

  std::unordered_map<ServiceKey, Service, ServiceKeyHash> services_;
  FaultPlan fault_plan_;
  const util::SimClock* clock_ = nullptr;
  util::SimTime last_delay_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  bool metrics_bound_ = false;
  Metrics m_;
};

}  // namespace nxd::net
