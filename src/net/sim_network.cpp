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
}

void SimNetwork::count_faults(const FaultVerdict& verdict) {
  if (verdict.drop) (verdict.outage ? m_.outage_drops : m_.fault_drops).inc();
  if (verdict.corrupted) m_.fault_corruptions.inc();
  if (verdict.truncated) m_.fault_truncations.inc();
  if (verdict.duplicate) m_.fault_duplicates.inc();
  if (verdict.delayed) {
    m_.fault_delays.inc();
    m_.fault_delay_seconds.inc(static_cast<std::uint64_t>(verdict.delay));
  }
}

std::optional<std::vector<std::uint8_t>> SimNetwork::send(const SimPacket& packet) {
  last_delay_ = 0;
  std::optional<SimPacket> shaped;  // the fault stage's copy, when a plan runs
  FaultVerdict verdict;
  if (!fault_plan_.empty()) {
    shaped = packet;
    verdict = fault_plan_.apply(packet.dst, shaped->payload,
                                clock_ != nullptr ? clock_->now() : 0);
    count_faults(verdict);
    if (verdict.drop) return std::nullopt;
    last_delay_ = verdict.delay;
  }
  const auto it = services_.find(ServiceKey{packet.dst, packet.protocol});
  if (it == services_.end()) {
    m_.dropped.inc();
    return std::nullopt;
  }
  const SimPacket& arriving = shaped.has_value() ? *shaped : packet;
  m_.delivered.inc();
  auto reply = it->second(arriving);
  if (verdict.duplicate) {
    // The duplicate reaches the service too; its reply is discarded (the
    // client already has the first one — classic UDP retransmit noise).
    m_.delivered.inc();
    it->second(arriving);
  }
  return reply;
}

}  // namespace nxd::net
