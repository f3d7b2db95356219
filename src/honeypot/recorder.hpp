// Traffic recorder — the NXD-Honeypot capture plane (paper §3.4): "accepts
// TCP and UDP packets from all well-known and standardized ports" and keeps
// source addresses, ports, and payloads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "honeypot/http.hpp"
#include "net/endpoint.hpp"
#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "util/civil_time.hpp"
#include "util/histogram.hpp"

namespace nxd::honeypot {

/// Which cloud instance a record was captured on — the paper dual-hosts
/// every domain on AWS and GCP to help identify platform noise.
enum class HostingPlatform : std::uint8_t { Aws, Gcp };

std::string to_string(HostingPlatform p);

struct TrafficRecord {
  net::Protocol protocol = net::Protocol::TCP;
  net::Endpoint source;
  std::uint16_t dst_port = 0;
  util::SimTime when = 0;
  HostingPlatform platform = HostingPlatform::Aws;
  std::string domain;   // hosted domain the traffic targeted ("" if unknown)
  std::string payload;  // raw bytes as captured

  /// Parsed lazily by consumers; empty optional when not parseable HTTP.
  std::optional<HttpRequest> http() const { return parse_http_request(payload); }

  bool is_http_port() const noexcept {
    return dst_port == 80 || dst_port == 443 || dst_port == 8080 ||
           dst_port == 8443;
  }
};

class TrafficRecorder {
 public:
  TrafficRecorder();

  void record(TrafficRecord record);

  /// Route captures through the same fault stage SimNetwork uses, keyed on
  /// the destination port: dropped packets are never recorded (counted in
  /// `capture_drops()`), corruption/truncation mangle the stored payload,
  /// delay shifts the capture timestamp, and a duplicate is recorded twice
  /// — the capture-plane analogue of pcap loss on a saturated sensor.  The
  /// plan must outlive the recorder; nullptr disables.
  void set_fault_plan(net::FaultPlan* plan) noexcept { fault_plan_ = plan; }
  std::uint64_t capture_drops() const noexcept { return m_.capture_drops.value(); }

  /// Bound per-record memory: payloads longer than this are truncated to the
  /// cap before storage and counted in `oversize_payloads()`.  0 (default)
  /// keeps the historical unbounded behaviour.  A hostile visitor streaming
  /// an arbitrarily large request can otherwise grow the capture plane
  /// without limit — the recorder keeps the evidentiary prefix only.
  void set_max_payload_bytes(std::size_t cap) noexcept { max_payload_bytes_ = cap; }
  std::size_t max_payload_bytes() const noexcept { return max_payload_bytes_; }
  std::uint64_t oversize_payloads() const noexcept { return m_.oversize_payloads.value(); }

  /// Overload-guard events on the serving side of the sensor (see
  /// honeypot/overload.hpp).  Shed connections are refused before any work
  /// and never stored; expired ones were reaped by a slowloris deadline
  /// (their partial bytes are still captured); drained ones finished
  /// in-flight during graceful shutdown.
  void note_shed_connection() noexcept { m_.shed_connections.inc(); }
  void note_expired_connection() noexcept { m_.expired_connections.inc(); }
  void note_drained_connection() noexcept { m_.drained_connections.inc(); }
  std::uint64_t shed_connections() const noexcept { return m_.shed_connections.value(); }
  std::uint64_t expired_connections() const noexcept { return m_.expired_connections.value(); }
  std::uint64_t drained_connections() const noexcept { return m_.drained_connections.value(); }

  const std::vector<TrafficRecord>& records() const noexcept { return records_; }
  std::uint64_t total() const noexcept { return records_.size(); }

  /// Port -> packet count (Fig 10 input).
  const util::Counter& port_counts() const noexcept { return port_counts_; }

  /// Distinct source IPs seen (the no-hosting baseline consumes this).
  std::vector<net::IPv4> distinct_sources() const;

  /// Records destined to HTTP(S) ports that parse as HTTP.
  std::vector<const TrafficRecord*> http_records() const;

  void clear();

  /// Re-home the capture-plane counters in a shared registry (current
  /// values carry over).
  void bind_metrics(obs::MetricsRegistry& registry);

 private:
  struct Metrics {
    obs::Counter records;
    obs::Counter capture_drops;
    obs::Counter oversize_payloads;
    obs::Counter shed_connections;
    obs::Counter expired_connections;
    obs::Counter drained_connections;
    obs::LatencyHistogram payload_bytes;
  };

  void acquire_metrics(obs::MetricsRegistry& registry);

  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  Metrics m_;
  std::vector<TrafficRecord> records_;
  util::Counter port_counts_;
  net::FaultPlan* fault_plan_ = nullptr;
  std::size_t max_payload_bytes_ = 0;
};

}  // namespace nxd::honeypot
