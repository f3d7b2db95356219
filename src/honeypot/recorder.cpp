#include "honeypot/recorder.hpp"

#include <algorithm>
#include <unordered_set>

namespace nxd::honeypot {

std::string to_string(HostingPlatform p) {
  return p == HostingPlatform::Aws ? "aws" : "gcp";
}

TrafficRecorder::TrafficRecorder()
    : own_registry_(std::make_unique<obs::MetricsRegistry>()) {
  acquire_metrics(*own_registry_);
}

void TrafficRecorder::acquire_metrics(obs::MetricsRegistry& registry) {
  m_.records = registry.counter("nxd_honeypot_records_total",
                                "Traffic records captured");
  m_.capture_drops =
      registry.counter("nxd_honeypot_capture_drops_total",
                       "Packets the capture fault stage dropped");
  m_.oversize_payloads =
      registry.counter("nxd_honeypot_oversize_payloads_total",
                       "Payloads truncated to the per-record byte cap");
  m_.shed_connections =
      registry.counter("nxd_honeypot_recorder_shed_connections_total",
                       "Shed connections noted by the serving side");
  m_.expired_connections =
      registry.counter("nxd_honeypot_recorder_expired_connections_total",
                       "Deadline-reaped connections noted");
  m_.drained_connections =
      registry.counter("nxd_honeypot_recorder_drained_connections_total",
                       "Connections finished during drain");
  m_.payload_bytes = registry.histogram("nxd_honeypot_payload_bytes",
                                        "Captured payload sizes in bytes");
}

void TrafficRecorder::bind_metrics(obs::MetricsRegistry& registry) {
  if (own_registry_ != nullptr) registry.absorb(own_registry_->snapshot());
  acquire_metrics(registry);
  own_registry_.reset();
}

void TrafficRecorder::record(TrafficRecord record) {
  if (max_payload_bytes_ != 0 && record.payload.size() > max_payload_bytes_) {
    record.payload.resize(max_payload_bytes_);
    m_.oversize_payloads.inc();
  }
  bool duplicate = false;
  if (fault_plan_ != nullptr && !fault_plan_->empty()) {
    // Key faults on the destination port (the sensor's listening socket);
    // the wildcard IP means per-endpoint plans match on port alone.
    std::vector<std::uint8_t> payload(record.payload.begin(),
                                      record.payload.end());
    const auto verdict = fault_plan_->apply(
        net::Endpoint{dns::IPv4{}, record.dst_port}, payload, record.when);
    if (verdict.drop) {
      m_.capture_drops.inc();
      return;
    }
    record.payload.assign(payload.begin(), payload.end());
    record.when += verdict.delay;
    duplicate = verdict.duplicate;
  }
  port_counts_.add(std::to_string(record.dst_port));
  m_.payload_bytes.observe(record.payload.size());
  m_.records.inc();
  if (duplicate) {
    port_counts_.add(std::to_string(record.dst_port));
    m_.payload_bytes.observe(record.payload.size());
    m_.records.inc();
    records_.push_back(record);
  }
  records_.push_back(std::move(record));
}

std::vector<net::IPv4> TrafficRecorder::distinct_sources() const {
  std::unordered_set<net::IPv4, dns::IPv4Hash> seen;
  for (const auto& r : records_) seen.insert(r.source.ip);
  std::vector<net::IPv4> out(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<const TrafficRecord*> TrafficRecorder::http_records() const {
  std::vector<const TrafficRecord*> out;
  for (const auto& r : records_) {
    if (r.is_http_port() && parse_http_request(r.payload)) {
      out.push_back(&r);
    }
  }
  return out;
}

void TrafficRecorder::clear() {
  records_.clear();
  port_counts_ = util::Counter{};
}

}  // namespace nxd::honeypot
