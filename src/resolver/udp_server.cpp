#include "resolver/udp_server.hpp"

#include <poll.h>

#include "resolver/tcp_server.hpp"

#include <algorithm>

namespace nxd::resolver {

std::unique_ptr<UdpDnsServer> UdpDnsServer::create(
    const net::Endpoint& local, const AuthoritativeServer& auth) {
  auto socket = net::UdpSocket::bind(local);
  if (!socket) return nullptr;
  return std::unique_ptr<UdpDnsServer>(
      new UdpDnsServer(std::move(*socket), auth));
}

void UdpDnsServer::attach(net::EventLoop& loop) {
  loop.add_readable(socket_.fd(), [this] { pump(); });
}

UdpDnsServer::UdpDnsServer(net::UdpSocket socket,
                           const AuthoritativeServer& auth)
    : socket_(std::move(socket)),
      auth_(auth),
      own_registry_(std::make_unique<obs::MetricsRegistry>()) {
  acquire_metrics(*own_registry_);
}

void UdpDnsServer::acquire_metrics(obs::MetricsRegistry& registry) {
  const obs::LabelSet proto{{"proto", "udp"}};
  m_.answered = registry.counter("nxd_dns_server_answered_total",
                                 "DNS responses sent", proto);
  m_.malformed = registry.counter("nxd_dns_server_malformed_total",
                                  "Datagrams that failed to parse", proto);
  m_.faulted = registry.counter("nxd_dns_server_faulted_total",
                                "Inbound datagrams eaten by the fault stage",
                                proto);
  m_.rrl_dropped = registry.counter("nxd_dns_server_rrl_dropped_total",
                                    "Responses discarded by RRL", proto);
  m_.rrl_slipped = registry.counter("nxd_dns_server_rrl_slipped_total",
                                    "Responses slipped (TC=1) by RRL", proto);
}

void UdpDnsServer::bind_metrics(obs::MetricsRegistry& registry) {
  if (own_registry_ != nullptr) registry.absorb(own_registry_->snapshot());
  acquire_metrics(registry);
  own_registry_.reset();
}

std::size_t UdpDnsServer::pump() {
  std::size_t handled = 0;
  while (auto datagram = socket_.recv()) {
    handle_one(*datagram);
    ++handled;
  }
  return handled;
}

void UdpDnsServer::handle_one(const net::Datagram& datagram) {
  std::vector<std::uint8_t> payload = datagram.payload;
  bool duplicate = false;
  if (fault_plan_ != nullptr && !fault_plan_->empty()) {
    const auto verdict = fault_plan_->apply(socket_.local(), payload, 0);
    if (verdict.drop) {
      m_.faulted.inc();
      return;
    }
    duplicate = verdict.duplicate;
  }
  const auto query = dns::decode(payload);
  if (!query || query->header.qr) {
    m_.malformed.inc();
    return;
  }
  dns::Message response = auth_.answer(*query);
  if (rrl_ != nullptr && rrl_clock_ != nullptr) {
    switch (rrl_->check(datagram.from.ip, rrl_clock_->now())) {
      case RrlVerdict::Pass:
        break;
      case RrlVerdict::Drop:
        m_.rrl_dropped.inc();
        return;
      case RrlVerdict::Slip:
        m_.rrl_slipped.inc();
        response = slip_truncate(response);
        break;
    }
  }
  // EDNS(0): a client advertising a larger payload raises the truncation
  // threshold (clamped to a sane ceiling); the server echoes an OPT with
  // its own capability either way (RFC 6891 §6.2.1).
  std::size_t limit = kMaxUdpPayload;
  if (query->edns) {
    limit = std::clamp<std::size_t>(query->edns->udp_payload, kMaxUdpPayload,
                                    kMaxEdnsPayload);
    response.edns = dns::EdnsInfo{kMaxEdnsPayload, 0, false};
  }
  auto wire = dns::encode(response);
  if (wire.size() > limit) {
    // RFC 1035 §4.2.1: answer doesn't fit in the datagram — set TC and let
    // the client retry over TCP.
    response = truncate_for_udp(response, wire.size(), limit);
    wire = dns::encode(response);
  }
  if (socket_.send_to(datagram.from, wire)) m_.answered.inc();
  if (duplicate && socket_.send_to(datagram.from, wire)) m_.answered.inc();
}

std::optional<dns::Message> udp_query(const net::Endpoint& server,
                                      const dns::Message& query,
                                      int timeout_ms) {
  auto socket = net::UdpSocket::bind(
      net::Endpoint{dns::IPv4::from_octets(127, 0, 0, 1), 0});
  if (!socket) return std::nullopt;
  if (!socket->send_to(server, dns::encode(query))) return std::nullopt;

  pollfd pfd{socket->fd(), POLLIN, 0};
  if (::poll(&pfd, 1, timeout_ms) <= 0) return std::nullopt;
  const auto reply = socket->recv();
  if (!reply) return std::nullopt;
  auto message = dns::decode(reply->payload);
  if (!message || message->header.id != query.header.id) return std::nullopt;
  return message;
}

}  // namespace nxd::resolver
