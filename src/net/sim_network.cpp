#include "net/sim_network.hpp"

namespace nxd::net {

void SimNetwork::attach(const Endpoint& ep, Protocol proto, Service service) {
  services_[ServiceKey{ep, proto}] = std::move(service);
}

void SimNetwork::detach(const Endpoint& ep, Protocol proto) {
  services_.erase(ServiceKey{ep, proto});
}

SimNetwork::SimNetwork()
    : own_registry_(std::make_unique<obs::MetricsRegistry>()) {
  acquire_metrics(*own_registry_);
}

void SimNetwork::acquire_metrics(obs::MetricsRegistry& registry) {
  m_.delivered = registry.counter("nxd_net_packets_delivered_total",
                                  "Packets handed to an attached service");
  m_.dropped = registry.counter("nxd_net_packets_dropped_total",
                                "Packets to unattached endpoints");
  const std::string help = "Injected faults by kind";
  m_.fault_drops = registry.counter("nxd_net_faults_total", help,
                                    {{"kind", "drop"}});
  m_.fault_duplicates = registry.counter("nxd_net_faults_total", help,
                                         {{"kind", "duplicate"}});
  m_.fault_corruptions = registry.counter("nxd_net_faults_total", help,
                                          {{"kind", "corrupt"}});
  m_.fault_truncations = registry.counter("nxd_net_faults_total", help,
                                          {{"kind", "truncate"}});
  m_.fault_delays = registry.counter("nxd_net_faults_total", help,
                                     {{"kind", "delay"}});
  m_.outage_drops = registry.counter("nxd_net_faults_total", help,
                                     {{"kind", "outage"}});
  m_.fault_delay_seconds =
      registry.counter("nxd_net_fault_delay_seconds_total",
                       "Total simulated transit delay injected");
}

void SimNetwork::bind_metrics(obs::MetricsRegistry& registry) {
  if (own_registry_ != nullptr) registry.absorb(own_registry_->snapshot());
  acquire_metrics(registry);
  own_registry_.reset();
  // The fault mirror starts at bind: carry what the plan already counted.
  mirror_faults(FaultStats{}, fault_plan_.stats());
  metrics_bound_ = true;
}

void SimNetwork::mirror_faults(const FaultStats& before,
                               const FaultStats& after) {
  const auto mirror = [](std::uint64_t b, std::uint64_t a, obs::Counter& c) {
    if (a <= b) return;  // no new faults (or the plan was reset/swapped)
    c.inc(a - b);
  };
  mirror(before.injected_drops, after.injected_drops, m_.fault_drops);
  mirror(before.injected_duplicates, after.injected_duplicates,
         m_.fault_duplicates);
  mirror(before.injected_corruptions, after.injected_corruptions,
         m_.fault_corruptions);
  mirror(before.injected_truncations, after.injected_truncations,
         m_.fault_truncations);
  mirror(before.injected_delays, after.injected_delays, m_.fault_delays);
  mirror(before.outage_drops, after.outage_drops, m_.outage_drops);
  if (after.total_delay > before.total_delay) {
    m_.fault_delay_seconds.inc(
        static_cast<std::uint64_t>(after.total_delay - before.total_delay));
  }
}

std::optional<std::vector<std::uint8_t>> SimNetwork::send(const SimPacket& packet) {
  last_delay_ = 0;
  if (!fault_plan_.empty()) {
    SimPacket shaped = packet;
    const FaultStats before = metrics_bound_ ? fault_plan_.stats() : FaultStats{};
    const FaultVerdict verdict = fault_plan_.apply(
        packet.dst, shaped.payload, clock_ != nullptr ? clock_->now() : 0);
    if (metrics_bound_) mirror_faults(before, fault_plan_.stats());
    if (verdict.drop) return std::nullopt;
    last_delay_ = verdict.delay;
    const auto it = services_.find(ServiceKey{packet.dst, packet.protocol});
    if (it == services_.end()) {
      m_.dropped.inc();
      return std::nullopt;
    }
    m_.delivered.inc();
    auto reply = it->second(shaped);
    if (verdict.duplicate) {
      // The duplicate reaches the service too; its reply is discarded (the
      // client already has the first one — classic UDP retransmit noise).
      m_.delivered.inc();
      it->second(shaped);
    }
    return reply;
  }

  const auto it = services_.find(ServiceKey{packet.dst, packet.protocol});
  if (it == services_.end()) {
    m_.dropped.inc();
    return std::nullopt;
  }
  m_.delivered.inc();
  return it->second(packet);
}

}  // namespace nxd::net
