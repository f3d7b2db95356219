#include "resolver/tcp_server.hpp"

#include <chrono>
#include <thread>

namespace nxd::resolver {

dns::Message truncate_for_udp(const dns::Message& response,
                              std::size_t wire_size, std::size_t limit) {
  if (wire_size <= limit) return response;
  dns::Message truncated;
  truncated.header = response.header;
  truncated.header.tc = true;
  truncated.questions = response.questions;  // question section survives
  return truncated;
}

std::unique_ptr<TcpDnsServer> TcpDnsServer::create(
    const net::Endpoint& local, const AuthoritativeServer& auth) {
  auto listener = net::TcpListener::listen(local);
  if (!listener) return nullptr;
  return std::unique_ptr<TcpDnsServer>(
      new TcpDnsServer(std::move(*listener), auth));
}

void TcpDnsServer::attach(net::EventLoop& loop) {
  loop.add_readable(listener_.fd(), [this] { on_acceptable(); });
}

TcpDnsServer::TcpDnsServer(net::TcpListener listener,
                           const AuthoritativeServer& auth)
    : listener_(std::move(listener)),
      auth_(auth),
      own_registry_(std::make_unique<obs::MetricsRegistry>()) {
  acquire_metrics(*own_registry_);
}

void TcpDnsServer::acquire_metrics(obs::MetricsRegistry& registry) {
  const obs::LabelSet proto{{"proto", "tcp"}};
  m_.answered = registry.counter("nxd_dns_server_answered_total",
                                 "DNS responses sent", proto);
  m_.faulted = registry.counter("nxd_dns_server_faulted_total",
                                "Inbound messages eaten by the fault stage",
                                proto);
  m_.rrl_dropped = registry.counter("nxd_dns_server_rrl_dropped_total",
                                    "Connections closed unanswered by RRL",
                                    proto);
}

void TcpDnsServer::bind_metrics(obs::MetricsRegistry& registry) {
  if (own_registry_ != nullptr) registry.absorb(own_registry_->snapshot());
  acquire_metrics(registry);
  own_registry_.reset();
}

void TcpDnsServer::on_acceptable() {
  while (auto stream = listener_.accept()) {
    // Read the 2-byte length prefix plus the message (bounded retry for
    // slow writers; single-threaded service).
    std::vector<std::uint8_t> buffer;
    for (int attempt = 0; attempt < 100; ++attempt) {
      stream->read(buffer);
      if (buffer.size() >= 2) {
        const std::size_t expected =
            (static_cast<std::size_t>(buffer[0]) << 8) | buffer[1];
        if (buffer.size() >= expected + 2) break;
      }
      if (stream->eof()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (buffer.size() < 2) continue;
    const std::size_t expected =
        (static_cast<std::size_t>(buffer[0]) << 8) | buffer[1];
    if (buffer.size() < expected + 2) continue;

    std::vector<std::uint8_t> message(buffer.begin() + 2,
                                      buffer.begin() + 2 + expected);
    if (fault_plan_ != nullptr && !fault_plan_->empty()) {
      const auto verdict = fault_plan_->apply(listener_.local(), message, 0);
      if (verdict.drop) {
        m_.faulted.inc();
        continue;
      }
      // A duplicate verdict is meaningless on a stream; ignore it.
    }

    const auto query = dns::decode(message);
    if (!query || query->header.qr) continue;

    if (rrl_ != nullptr && rrl_clock_ != nullptr &&
        rrl_->check(stream->peer().ip, rrl_clock_->now()) ==
            RrlVerdict::Drop) {
      // TCP already proved the return path, so a Slip verdict answers in
      // full; Drop closes without answering — backpressure on a source that
      // exhausted its UDP budget and moved to hammering TCP.
      m_.rrl_dropped.inc();
      continue;
    }

    const auto response = auth_.answer(*query);
    const auto wire = dns::encode(response);
    std::vector<std::uint8_t> framed;
    framed.reserve(wire.size() + 2);
    framed.push_back(static_cast<std::uint8_t>(wire.size() >> 8));
    framed.push_back(static_cast<std::uint8_t>(wire.size()));
    framed.insert(framed.end(), wire.begin(), wire.end());
    if (stream->write(framed) > 0) m_.answered.inc();
  }
}

std::optional<dns::Message> tcp_query(const net::Endpoint& server,
                                      const dns::Message& query,
                                      int timeout_ms) {
  auto stream = net::TcpStream::connect(server);
  if (!stream) return std::nullopt;

  const auto wire = dns::encode(query);
  std::vector<std::uint8_t> framed;
  framed.push_back(static_cast<std::uint8_t>(wire.size() >> 8));
  framed.push_back(static_cast<std::uint8_t>(wire.size()));
  framed.insert(framed.end(), wire.begin(), wire.end());
  if (stream->write(framed) <= 0) return std::nullopt;

  std::vector<std::uint8_t> buffer;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    stream->read(buffer);
    if (buffer.size() >= 2) {
      const std::size_t expected =
          (static_cast<std::size_t>(buffer[0]) << 8) | buffer[1];
      if (buffer.size() >= expected + 2) {
        auto message = dns::decode(
            std::span<const std::uint8_t>(buffer.data() + 2, expected));
        if (!message || message->header.id != query.header.id) {
          return std::nullopt;
        }
        return message;
      }
    }
    if (stream->eof()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return std::nullopt;
}

}  // namespace nxd::resolver
