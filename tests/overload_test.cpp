// Overload-resilience suite: util::TokenBucket / util::DeadlineQueue
// primitives, the honeypot ConnectionGate (admission, per-IP rate limiting,
// slowloris deadlines, graceful drain, the default gate every honeypot
// runs), DNS response rate limiting on the UDP/TCP front ends, and the
// bounded rDNS cache.
//
// The chaos harnesses at the bottom are the ISSUE's contract: a seeded
// flood and a slowloris barrage over simulated time must produce
// byte-identical shed counters on every run, never crash, keep memory
// bounded by configuration, and answer every request they accepted.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "honeypot/overload.hpp"
#include "honeypot/server.hpp"
#include "net/reverse_dns.hpp"
#include "resolver/rrl.hpp"
#include "resolver/tcp_server.hpp"
#include "resolver/udp_server.hpp"
#include "synth/table1.hpp"
#include "synth/traffic_model.hpp"
#include "util/deadline_queue.hpp"
#include "util/rng.hpp"
#include "util/token_bucket.hpp"

namespace nxd {
namespace {

using dns::DomainName;

std::string as_text(const std::vector<std::uint8_t>& bytes) {
  return std::string(bytes.begin(), bytes.end());
}

net::Endpoint src_at(std::uint8_t a, std::uint8_t b, std::uint16_t port) {
  return net::Endpoint{dns::IPv4::from_octets(10, 0, a, b), port};
}

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return std::span(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

constexpr const char kRequest[] =
    "GET / HTTP/1.1\r\nHost: overload.test\r\n\r\n";

// ------------------------------------------------------------ TokenBucket

TEST(TokenBucket, StartsFullDrainsAndRefills) {
  util::TokenBucket bucket(/*capacity=*/4, /*refill_per_second=*/2);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(bucket.try_acquire(0));
  EXPECT_FALSE(bucket.try_acquire(0));  // empty
  EXPECT_TRUE(bucket.try_acquire(1));   // +2 tokens after 1s
  EXPECT_TRUE(bucket.try_acquire(1));
  EXPECT_FALSE(bucket.try_acquire(1));
  EXPECT_EQ(bucket.granted(), 6u);
  EXPECT_EQ(bucket.denied(), 2u);
}

TEST(TokenBucket, RefillClampsAtCapacityAndIgnoresTimeGoingBackwards) {
  util::TokenBucket bucket(2, 1);
  EXPECT_TRUE(bucket.try_acquire(100));
  // A long quiet period cannot bank more than `capacity` tokens.
  EXPECT_TRUE(bucket.try_acquire(1'000'000));
  EXPECT_TRUE(bucket.try_acquire(1'000'000));
  EXPECT_FALSE(bucket.try_acquire(1'000'000));
  // Non-monotonic clock reads must not mint tokens.
  EXPECT_FALSE(bucket.try_acquire(500));
  EXPECT_EQ(bucket.tokens_at(500), 0.0);
}

// ---------------------------------------------------------- DeadlineQueue

TEST(DeadlineQueue, PopsInDeadlineThenInsertionOrder) {
  util::DeadlineQueue queue;
  queue.set(7, 10);
  queue.set(3, 10);
  queue.set(9, 5);
  queue.set(1, 20);
  EXPECT_EQ(queue.next_deadline(), 5);
  EXPECT_TRUE(queue.pop_expired(4).empty());
  // Ties at deadline 10 pop in insertion order (7 before 3).
  const auto expired = queue.pop_expired(10);
  ASSERT_EQ(expired.size(), 3u);
  EXPECT_EQ(expired[0], 9u);
  EXPECT_EQ(expired[1], 7u);
  EXPECT_EQ(expired[2], 3u);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_TRUE(queue.contains(1));
}

TEST(DeadlineQueue, RearmMovesToBackOfTieGroup) {
  util::DeadlineQueue queue;
  queue.set(1, 10);
  queue.set(2, 10);
  queue.set(1, 10);  // re-arm: now behind 2 within the tie group
  const auto expired = queue.pop_expired(10);
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0], 2u);
  EXPECT_EQ(expired[1], 1u);
  EXPECT_TRUE(queue.empty());
}

// --------------------------------------------------------- ConnectionGate

TEST(ConnectionGate, ShedsAtCapacityUntilASlotFrees) {
  honeypot::OverloadConfig config;
  config.max_connections = 2;
  honeypot::ConnectionGate gate(config);
  const auto a = gate.open(dns::IPv4::from_octets(10, 0, 0, 1), 0);
  const auto b = gate.open(dns::IPv4::from_octets(10, 0, 0, 2), 0);
  EXPECT_EQ(a.decision, honeypot::AdmitDecision::Accept);
  EXPECT_EQ(b.decision, honeypot::AdmitDecision::Accept);
  EXPECT_EQ(gate.open(dns::IPv4::from_octets(10, 0, 0, 3), 0).decision,
            honeypot::AdmitDecision::ShedCapacity);
  gate.close(a.id, /*completed=*/true);
  EXPECT_EQ(gate.open(dns::IPv4::from_octets(10, 0, 0, 3), 0).decision,
            honeypot::AdmitDecision::Accept);
  EXPECT_EQ(gate.stats().shed_capacity, 1u);
  EXPECT_EQ(gate.stats().completed, 1u);
}

TEST(ConnectionGate, PerIpRateLimitIsIndependentAcrossSources) {
  honeypot::OverloadConfig config;
  config.per_ip_rate = 1;
  config.per_ip_burst = 2;
  honeypot::ConnectionGate gate(config);
  const auto hot = dns::IPv4::from_octets(10, 0, 0, 1);
  EXPECT_EQ(gate.open(hot, 0).decision, honeypot::AdmitDecision::Accept);
  EXPECT_EQ(gate.open(hot, 0).decision, honeypot::AdmitDecision::Accept);
  EXPECT_EQ(gate.open(hot, 0).decision, honeypot::AdmitDecision::ShedRate);
  // A different source has its own bucket.
  EXPECT_EQ(gate.open(dns::IPv4::from_octets(10, 0, 0, 2), 0).decision,
            honeypot::AdmitDecision::Accept);
  // The hot source earns a token back after a second.
  EXPECT_EQ(gate.open(hot, 1).decision, honeypot::AdmitDecision::Accept);
  EXPECT_EQ(gate.stats().shed_rate, 1u);
}

TEST(ConnectionGate, BucketTableStaysBoundedUnderSpoofedFlood) {
  honeypot::OverloadConfig config;
  config.max_connections = 0;
  config.per_ip_rate = 1;
  config.per_ip_burst = 1;
  config.max_tracked_ips = 8;
  honeypot::ConnectionGate gate(config);
  // 1000 distinct sources at the same instant: every bucket is freshly
  // drained, so nothing is sweepable and overflow admissions are counted.
  for (int i = 0; i < 1'000; ++i) {
    const auto id = gate.open(
        dns::IPv4::from_octets(10, static_cast<std::uint8_t>(i >> 8), 0,
                               static_cast<std::uint8_t>(i)),
        0);
    if (id.decision == honeypot::AdmitDecision::Accept) {
      gate.close(id.id, true);
    }
  }
  EXPECT_LE(gate.tracked_sources(), config.max_tracked_ips);
  EXPECT_EQ(gate.stats().rate_table_overflow, 1'000u - 8u);
  // Once the tracked buckets refill, a newcomer sweeps them instead.
  const auto late = gate.open(dns::IPv4::from_octets(172, 16, 0, 1), 100);
  EXPECT_EQ(late.decision, honeypot::AdmitDecision::Accept);
  EXPECT_EQ(gate.stats().rate_sources_evicted, 8u);
  EXPECT_EQ(gate.tracked_sources(), 1u);
}

TEST(ConnectionGate, SpoofedNewcomerFloodSweepsOncePerInstant) {
  honeypot::OverloadConfig config;
  config.max_connections = 0;
  config.per_ip_rate = 1;
  config.per_ip_burst = 2;
  config.max_tracked_ips = 4096;
  honeypot::ConnectionGate gate(config);
  const auto source = [](std::uint32_t i) { return dns::IPv4{0x0a000000u + i}; };
  const auto open_close = [&gate](dns::IPv4 ip, util::SimTime now) {
    const auto admission = gate.open(ip, now);
    if (admission.decision == honeypot::AdmitDecision::Accept) {
      gate.close(admission.id, true);
    }
    return admission.decision;
  };
  for (std::uint32_t i = 0; i < 4096; ++i) open_close(source(i), 0);
  constexpr std::uint32_t kNewcomers = 50'000;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint32_t i = 0; i < kNewcomers; ++i) {
    EXPECT_EQ(open_close(source(1'000'000 + i), 0),
              honeypot::AdmitDecision::Accept);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(250));
  EXPECT_EQ(gate.tracked_sources(), 4096u);
  EXPECT_EQ(gate.stats().rate_table_overflow, kNewcomers);
  EXPECT_EQ(gate.stats().rate_sources_evicted, 0u);
  EXPECT_EQ(open_close(source(2'000'000), 1), honeypot::AdmitDecision::Accept);
  EXPECT_EQ(gate.stats().rate_sources_evicted, 4096u);
  EXPECT_EQ(gate.tracked_sources(), 1u);
}

TEST(ConnectionGate, DeadlineClassificationHeaderBodyIdle) {
  honeypot::OverloadConfig config;
  config.header_deadline = 10;
  config.request_deadline = 30;
  config.idle_deadline = 0;  // isolate the phase deadlines
  honeypot::ConnectionGate gate(config);
  const auto header_conn = gate.open(dns::IPv4::from_octets(10, 0, 0, 1), 0);
  const auto body_conn = gate.open(dns::IPv4::from_octets(10, 0, 0, 2), 0);
  gate.activity(body_conn.id, 1, /*headers_complete=*/true);

  auto expired = gate.reap(10);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, header_conn.id);
  EXPECT_EQ(expired[0].reason, honeypot::ExpireReason::Header);

  expired = gate.reap(30);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, body_conn.id);
  EXPECT_EQ(expired[0].reason, honeypot::ExpireReason::Body);

  // Idle fires sooner than the phase budget when enabled.
  honeypot::OverloadConfig idle_config;
  idle_config.idle_deadline = 5;
  honeypot::ConnectionGate idle_gate(idle_config);
  idle_gate.open(dns::IPv4::from_octets(10, 0, 0, 3), 0);
  const auto idle_expired = idle_gate.reap(5);
  ASSERT_EQ(idle_expired.size(), 1u);
  EXPECT_EQ(idle_expired[0].reason, honeypot::ExpireReason::Idle);
}

TEST(ConnectionGate, AcceptedConnectionsAreAlwaysAccountedFor) {
  honeypot::OverloadConfig config;
  config.max_connections = 16;
  config.per_ip_rate = 2;
  honeypot::ConnectionGate gate(config);
  util::Rng rng(99);
  for (int i = 0; i < 2'000; ++i) {
    const auto opened = gate.open(
        dns::IPv4::from_octets(10, 0, 0, static_cast<std::uint8_t>(rng.bounded(32))),
        i / 50);
    if (opened.decision != honeypot::AdmitDecision::Accept) continue;
    if (rng.chance(0.5)) {
      gate.close(opened.id, rng.chance(0.8));
    }
  }
  gate.reap(10'000);
  const auto& stats = gate.stats();
  // Conservation law: every accepted connection either completed, was
  // aborted, expired, or is still active.
  EXPECT_EQ(stats.accepted, stats.completed + stats.aborted +
                                stats.expired_total() +
                                stats.drain_forced_closes + gate.active());
  EXPECT_EQ(stats.opened, stats.accepted + stats.shed_total());
}

// ---------------------------------------------- HTTP shed/timeout replies

TEST(HttpResponses, ShedAndTimeoutFactories) {
  const auto unavailable = honeypot::HttpResponse::service_unavailable(30);
  EXPECT_EQ(unavailable.status, 503);
  EXPECT_NE(unavailable.serialize().find("retry-after: 30"), std::string::npos);
  const auto limited = honeypot::HttpResponse::too_many_requests(7);
  EXPECT_EQ(limited.status, 429);
  EXPECT_NE(limited.serialize().find("retry-after: 7"), std::string::npos);
  EXPECT_EQ(honeypot::HttpResponse::request_timeout().status, 408);
}

// ------------------------------------------------------- slowloris reaper

TEST(Slowloris, TwoHundredHalfSentRequestsAreReaped) {
  honeypot::TrafficRecorder recorder;
  honeypot::NxdHoneypot::Config config;
  config.domain = "overload.test";
  honeypot::NxdHoneypot server(config, recorder);
  honeypot::OverloadConfig guard;
  guard.max_connections = 0;  // unbounded: isolate the reaper
  guard.idle_deadline = 5;
  server.enable_overload(guard);

  util::SimClock clock;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 200; ++i) {
    const auto opened = server.conn_open(
        src_at(static_cast<std::uint8_t>(i >> 8),
               static_cast<std::uint8_t>(i), 40'000),
        clock.now());
    ASSERT_TRUE(opened.accepted);
    // Half a request line, then silence.
    const std::string partial = "GET /slow HTTP/1.1\r\nHost: ov";
    EXPECT_FALSE(
        server.conn_data(opened.id, as_bytes(partial), clock.now()).has_value());
    ids.push_back(opened.id);
  }
  EXPECT_EQ(server.open_connections(), 200u);

  clock.advance(4);
  EXPECT_TRUE(server.reap_expired(clock.now()).empty());  // not yet

  clock.advance(1);
  const auto reaped = server.reap_expired(clock.now());
  ASSERT_EQ(reaped.size(), 200u);
  for (std::size_t i = 0; i < reaped.size(); ++i) {
    // Deterministic reap order: admission order.
    EXPECT_EQ(reaped[i].id, ids[i]);
    EXPECT_EQ(reaped[i].reason, honeypot::ExpireReason::Idle);
    EXPECT_NE(as_text(reaped[i].response).find("408"), std::string::npos);
  }
  EXPECT_EQ(server.open_connections(), 0u);
  EXPECT_EQ(recorder.expired_connections(), 200u);
  // The half-sent bytes were kept as capture evidence.
  EXPECT_EQ(recorder.total(), 200u);
  EXPECT_EQ(server.gate()->stats().expired_idle, 200u);
}

TEST(Slowloris, ActivityRefreshesIdleButNotTheHeaderBudget) {
  honeypot::TrafficRecorder recorder;
  honeypot::NxdHoneypot server({.domain = "overload.test"}, recorder);
  honeypot::OverloadConfig guard;
  guard.idle_deadline = 5;
  guard.header_deadline = 12;
  server.enable_overload(guard);

  util::SimClock clock;
  const auto opened = server.conn_open(src_at(0, 1, 41'000), clock.now());
  ASSERT_TRUE(opened.accepted);
  // Trickle one byte every 4 simulated seconds: idle never fires, but the
  // header budget — anchored at the open, never refreshed — eventually does.
  const std::string drip = "G";
  for (int i = 0; i < 2; ++i) {
    clock.advance(4);
    server.conn_data(opened.id, as_bytes(drip), clock.now());
    EXPECT_TRUE(server.reap_expired(clock.now()).empty());
  }
  clock.advance(4);  // t = 12 = header_deadline, idle refreshed at t = 8
  const auto reaped = server.reap_expired(clock.now());
  ASSERT_EQ(reaped.size(), 1u);
  EXPECT_EQ(reaped[0].reason, honeypot::ExpireReason::Header);
}

// ------------------------------------------------------------------ drain

TEST(Drain, InFlightFinishesNewSheds503StragglersForcedClosed) {
  honeypot::TrafficRecorder recorder;
  honeypot::NxdHoneypot server({.domain = "overload.test"}, recorder);
  honeypot::OverloadConfig guard;
  guard.drain_deadline = 15;
  // Push the per-connection deadlines out of the way so the drain deadline
  // is what force-closes the straggler, not the idle/header reaper.
  guard.idle_deadline = 100;
  guard.header_deadline = 100;
  guard.request_deadline = 100;
  server.enable_overload(guard);

  util::SimClock clock;
  const auto finishes = server.conn_open(src_at(0, 1, 42'000), clock.now());
  const auto straggles = server.conn_open(src_at(0, 2, 42'001), clock.now());
  ASSERT_TRUE(finishes.accepted);
  ASSERT_TRUE(straggles.accepted);

  server.begin_drain(clock.now());
  EXPECT_TRUE(server.draining());
  EXPECT_FALSE(server.drain_complete());

  // New connections shed 503 while draining.
  const auto refused = server.conn_open(src_at(0, 3, 42'002), clock.now());
  EXPECT_FALSE(refused.accepted);
  ASSERT_TRUE(refused.response.has_value());
  EXPECT_NE(as_text(*refused.response).find("503"), std::string::npos);
  EXPECT_NE(as_text(*refused.response).find("retry-after"), std::string::npos);

  // The in-flight request that completes inside the grace window is served.
  clock.advance(2);
  const auto reply =
      server.conn_data(finishes.id, as_bytes(kRequest), clock.now());
  ASSERT_TRUE(reply.has_value());
  EXPECT_NE(as_text(*reply).find("200"), std::string::npos);
  EXPECT_EQ(recorder.drained_connections(), 1u);

  // The straggler is force-closed at the drain deadline, with no response.
  clock.advance(14);
  const auto reaped = server.reap_expired(clock.now());
  ASSERT_EQ(reaped.size(), 1u);
  EXPECT_EQ(reaped[0].id, straggles.id);
  EXPECT_EQ(reaped[0].reason, honeypot::ExpireReason::DrainForced);
  EXPECT_TRUE(reaped[0].response.empty());

  EXPECT_TRUE(server.drain_complete());
  const auto& stats = server.gate()->stats();
  EXPECT_EQ(stats.shed_draining, 1u);
  EXPECT_EQ(stats.drained_completed, 1u);
  EXPECT_EQ(stats.drain_forced_closes, 1u);
}

// ------------------------------------------------------ 10x flood harness

honeypot::OverloadStats run_flood(std::uint64_t seed, std::string* snapshot) {
  honeypot::TrafficRecorder recorder;
  honeypot::NxdHoneypot server({.domain = "overload.test"}, recorder);
  honeypot::OverloadConfig guard;
  guard.max_connections = 32;
  guard.per_ip_rate = 2;
  guard.per_ip_burst = 4;
  server.enable_overload(guard);

  util::SimClock clock;
  util::Rng rng(seed);
  // 10x overload: 16 sources each offer ~20 requests/s against a 2/s
  // per-source budget, with a slowloris side channel occupying slots.
  for (util::SimTime second = 0; second < 20; ++second) {
    clock.set(second);
    for (int s = 0; s < 2; ++s) {
      const auto opened = server.conn_open(
          src_at(1, static_cast<std::uint8_t>(rng.bounded(200)), 43'000),
          clock.now());
      if (opened.accepted) {
        const std::string partial = "POST /drip HTTP/1.1\r\nConte";
        server.conn_data(opened.id, as_bytes(partial), clock.now());
      }
    }
    server.reap_expired(clock.now());
    for (int q = 0; q < 16 * 20; ++q) {
      net::SimPacket packet;
      packet.protocol = net::Protocol::TCP;
      packet.src =
          src_at(0, static_cast<std::uint8_t>(rng.bounded(16)),
                 static_cast<std::uint16_t>(44'000 + q));
      packet.dst = net::Endpoint{dns::IPv4::from_octets(203, 0, 113, 1), 80};
      const std::string request(kRequest);
      packet.payload.assign(request.begin(), request.end());
      server.handle_packet(packet, clock.now());
    }
  }
  clock.advance(100);
  server.reap_expired(clock.now());

  obs::MetricsRegistry registry;  // outlives the gate's last stats() read
  if (snapshot != nullptr) {
    server.gate()->bind_metrics(registry);
    recorder.bind_metrics(registry);
    *snapshot = registry.snapshot().to_text();
  }
  return server.gate()->stats();
}

TEST(Flood, TenTimesOverloadShedsAreByteReproducible) {
  std::string first_snapshot, second_snapshot;
  const auto first = run_flood(0xf100d, &first_snapshot);
  const auto second = run_flood(0xf100d, &second_snapshot);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first_snapshot, second_snapshot);

  // The flood was genuinely overloading: most of it shed, but everything
  // accepted was answered and nothing leaked.
  EXPECT_GT(first.shed_rate, first.accepted);
  EXPECT_EQ(first.accepted,
            first.completed + first.expired_total() + first.drain_forced_closes);
  // Memory stayed bounded by configuration (no unmetered admissions).
  EXPECT_EQ(first.rate_table_overflow, 0u);

  // A different seed reshuffles the flood but keeps the conservation law.
  const auto other = run_flood(0x5eed, nullptr);
  EXPECT_EQ(other.accepted,
            other.completed + other.expired_total() + other.drain_forced_closes);
  EXPECT_EQ(other.opened, other.accepted + other.shed_total());
}

// ----------------------------------------------------------- default gate
//
// A honeypot that was never given enable_overload still runs every TCP
// request through its ConnectionGate, with the default OverloadConfig: no
// per-IP rate limit and a 256-connection cap, so a lone request is never
// shed.

/// The seeded Table-1 capture: every profile's traffic plus scanner noise.
std::vector<honeypot::TrafficRecord> table1_capture() {
  synth::TrafficModelConfig config;
  config.seed = 42;
  config.scale = 0.00005;
  const synth::HoneypotTrafficModel model(config);
  std::vector<honeypot::TrafficRecord> capture;
  for (const auto& profile : synth::table1_profiles()) {
    for (auto& record : model.generate_domain(profile)) {
      capture.push_back(std::move(record));
    }
    for (auto& record : model.generate_noise(profile.domain, 3)) {
      capture.push_back(std::move(record));
    }
  }
  return capture;
}

/// One client connection to `frontend`: send `payload`, let the event loop
/// serve it, then close.  Returns whatever the server answered.
std::string loopback_exchange(honeypot::TcpHoneypotFrontend& frontend,
                              net::EventLoop& loop, const std::string& payload) {
  auto client = net::TcpStream::connect(frontend.local());
  EXPECT_TRUE(client.has_value());
  if (!client) return {};
  client->write(payload);
  loop.poll_once(std::chrono::milliseconds(200));
  std::vector<std::uint8_t> reply;
  for (int i = 0; i < 100 && !client->eof(); ++i) {
    if (client->read(reply) <= 0 && !client->eof()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return as_text(reply);
}

TEST(DefaultGate, SimNetworkReplayOfTable1CaptureShedsNothing) {
  const auto capture = table1_capture();
  honeypot::TrafficRecorder recorder;
  honeypot::NxdHoneypot pot({.domain = "replay.test"}, recorder);
  net::SimNetwork network;
  util::SimClock clock;
  const auto host = dns::IPv4::from_octets(203, 0, 113, 80);
  std::size_t answered = 0;
  for (const auto& record : capture) {
    pot.attach_port(network, host, record.dst_port, record.protocol, clock);
    clock.set(record.when);
    net::SimPacket packet;
    packet.protocol = record.protocol;
    packet.src = record.source;
    packet.dst = net::Endpoint{host, record.dst_port};
    packet.payload.assign(record.payload.begin(), record.payload.end());
    if (network.send(packet)) ++answered;
  }

  EXPECT_EQ(pot.gate()->stats().shed_total(), 0u);
  EXPECT_EQ(recorder.shed_connections(), 0u);
  // Every packet is captured exactly as it was sent.
  ASSERT_EQ(recorder.total(), capture.size());
  for (std::size_t i = 0; i < capture.size(); ++i) {
    const auto& got = recorder.records()[i];
    EXPECT_EQ(got.protocol, capture[i].protocol) << i;
    EXPECT_EQ(got.source, capture[i].source) << i;
    EXPECT_EQ(got.dst_port, capture[i].dst_port) << i;
    EXPECT_EQ(got.when, capture[i].when) << i;
    EXPECT_EQ(got.payload, capture[i].payload) << i;
  }
  // Pinned counts: the same as a server that consulted no gate.
  EXPECT_EQ(capture.size(), 344u);
  EXPECT_EQ(answered, 308u);
  EXPECT_EQ(pot.http_responses_sent(), 308u);
}

TEST(DefaultGate, LoopbackReplayOfTable1CaptureShedsNothing) {
  std::vector<honeypot::TrafficRecord> tcp;
  for (auto& record : table1_capture()) {
    if (record.protocol == net::Protocol::TCP && !record.payload.empty()) {
      tcp.push_back(std::move(record));
    }
  }
  honeypot::TrafficRecorder recorder;
  honeypot::NxdHoneypot pot({.domain = "replay.test"}, recorder);
  util::SimClock clock;
  auto frontend = honeypot::TcpHoneypotFrontend::create(
      net::Endpoint{*dns::IPv4::parse("127.0.0.1"), 0}, pot, clock);
  ASSERT_NE(frontend, nullptr);
  net::EventLoop loop;
  frontend->attach(loop);

  std::size_t answered = 0;
  for (const auto& record : tcp) {
    clock.set(record.when);
    if (!loopback_exchange(*frontend, loop, record.payload).empty()) {
      ++answered;
    }
  }

  const auto& stats = pot.gate()->stats();
  EXPECT_EQ(stats.shed_total(), 0u);
  EXPECT_EQ(stats.accepted, tcp.size());
  EXPECT_EQ(stats.completed + stats.aborted, tcp.size());
  EXPECT_EQ(pot.open_connections(), 0u);
  ASSERT_EQ(recorder.total(), tcp.size());
  for (std::size_t i = 0; i < tcp.size(); ++i) {
    const auto& got = recorder.records()[i];
    EXPECT_EQ(got.dst_port, frontend->local().port) << i;
    EXPECT_EQ(got.when, tcp[i].when) << i;
    EXPECT_EQ(got.payload, tcp[i].payload) << i;
  }
  // Pinned counts: the same as a server that consulted no gate.
  EXPECT_EQ(tcp.size(), 344u);
  EXPECT_EQ(answered, 308u);
  EXPECT_EQ(pot.http_responses_sent(), 308u);
}

TEST(DefaultGate, PartialRequestThenCloseIsCapturedOnceAndAborted) {
  honeypot::TrafficRecorder recorder;
  honeypot::NxdHoneypot pot({.domain = "partial.test"}, recorder);
  util::SimClock clock(30);
  auto frontend = honeypot::TcpHoneypotFrontend::create(
      net::Endpoint{*dns::IPv4::parse("127.0.0.1"), 0}, pot, clock);
  ASSERT_NE(frontend, nullptr);
  net::EventLoop loop;
  frontend->attach(loop);

  const std::string partial = "GET /half HTTP/1.1\r\nHost: partial.te";
  EXPECT_EQ(loopback_exchange(*frontend, loop, partial), "");

  // Capture-only: recorded once, answered never.
  ASSERT_EQ(recorder.total(), 1u);
  EXPECT_EQ(recorder.records()[0].payload, partial);
  EXPECT_EQ(recorder.records()[0].when, 30);
  EXPECT_EQ(pot.http_responses_sent(), 0u);
  const auto& stats = pot.gate()->stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.aborted, 1u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(pot.open_connections(), 0u);
}

TEST(DefaultGate, EveryFrontendConnectionEndsAConnSpan) {
  honeypot::TrafficRecorder recorder;
  honeypot::NxdHoneypot pot({.domain = "spans.test"}, recorder);
  obs::SpanTracer spans;
  pot.trace_spans(&spans);
  util::SimClock clock(5);
  auto frontend = honeypot::TcpHoneypotFrontend::create(
      net::Endpoint{*dns::IPv4::parse("127.0.0.1"), 0}, pot, clock);
  ASSERT_NE(frontend, nullptr);
  net::EventLoop loop;
  frontend->attach(loop);

  // A full request, a half request, and complete junk (capture-only).
  const std::string exchanges[] = {kRequest, "GET / HTTP/1.1\r\nHo",
                                   "\x16\x03\x01 not http\r\n\r\n"};
  for (const auto& payload : exchanges) {
    loopback_exchange(*frontend, loop, payload);
  }

  EXPECT_EQ(spans.spans_open(), 0u);
  std::vector<std::string> endings;
  for (const auto& span : spans.finished()) {
    if (span.name == "conn") endings.push_back(span.detail);
  }
  EXPECT_EQ(endings,
            (std::vector<std::string>{"complete", "abort", "complete"}));
  EXPECT_EQ(recorder.total(), 3u);
}

// ------------------------------------------------------------ DNS RRL

TEST(Rrl, PassSlipDropCadencePerSource) {
  resolver::RrlConfig config;
  config.responses_per_second = 1;
  config.burst = 1;
  config.slip = 2;
  resolver::ResponseRateLimiter limiter(config);
  const auto victim = dns::IPv4::from_octets(203, 0, 113, 9);

  EXPECT_EQ(limiter.check(victim, 0), resolver::RrlVerdict::Pass);
  EXPECT_EQ(limiter.check(victim, 0), resolver::RrlVerdict::Drop);
  EXPECT_EQ(limiter.check(victim, 0), resolver::RrlVerdict::Slip);
  EXPECT_EQ(limiter.check(victim, 0), resolver::RrlVerdict::Drop);
  EXPECT_EQ(limiter.check(victim, 0), resolver::RrlVerdict::Slip);
  // Refilled after a second: back to Pass.
  EXPECT_EQ(limiter.check(victim, 1), resolver::RrlVerdict::Pass);
  EXPECT_EQ(limiter.stats().passed, 2u);
  EXPECT_EQ(limiter.stats().dropped, 2u);
  EXPECT_EQ(limiter.stats().slipped, 2u);
  // An unrelated source is unaffected.
  EXPECT_EQ(limiter.check(dns::IPv4::from_octets(203, 0, 113, 10), 0),
            resolver::RrlVerdict::Pass);
}

TEST(Rrl, DisabledConfigAlwaysPasses) {
  resolver::ResponseRateLimiter limiter;  // responses_per_second = 0
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(limiter.check(dns::IPv4::from_octets(1, 1, 1, 1), 0),
              resolver::RrlVerdict::Pass);
  }
  EXPECT_EQ(limiter.tracked_sources(), 0u);
}

TEST(Rrl, SourceTableStaysBounded) {
  resolver::RrlConfig config;
  config.responses_per_second = 1;
  config.burst = 1;
  config.max_tracked_sources = 16;
  resolver::ResponseRateLimiter limiter(config);
  for (int i = 0; i < 500; ++i) {
    limiter.check(dns::IPv4::from_octets(10, 0, static_cast<std::uint8_t>(i >> 8),
                                         static_cast<std::uint8_t>(i)),
                  0);
  }
  EXPECT_LE(limiter.tracked_sources(), 16u);
  EXPECT_EQ(limiter.stats().table_overflow, 500u - 16u);
  limiter.check(dns::IPv4::from_octets(172, 16, 0, 1), 60);
  EXPECT_EQ(limiter.stats().sources_evicted, 16u);
}

// A spoofed flood of newcomers against a table full of actively metered
// sources: every newcomer used to rescan the whole table (about 29 us each
// at 4096 sources, so 50k newcomers took well over a second).  One sweep
// per instant finds the table still full, and the rest fail open in O(1)
// with exactly the same verdicts and counts.
TEST(Rrl, SpoofedNewcomerFloodSweepsOncePerInstant) {
  resolver::RrlConfig config;
  config.responses_per_second = 5;
  config.burst = 10;
  config.max_tracked_sources = 4096;
  resolver::ResponseRateLimiter limiter(config);
  const auto source = [](std::uint32_t i) { return dns::IPv4{0x0a000000u + i}; };
  for (std::uint32_t i = 0; i < 4096; ++i) {
    for (int k = 0; k < 11; ++k) limiter.check(source(i), 0);  // drained
  }
  constexpr std::uint32_t kNewcomers = 50'000;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint32_t i = 0; i < kNewcomers; ++i) {
    EXPECT_EQ(limiter.check(source(1'000'000 + i), 1),
              resolver::RrlVerdict::Pass);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(250));
  EXPECT_EQ(limiter.tracked_sources(), 4096u);
  EXPECT_EQ(limiter.stats().table_overflow, kNewcomers);
  EXPECT_EQ(limiter.stats().sources_evicted, 0u);
  // Time passes: the next newcomer sweeps again and finds every bucket
  // refilled, so it is metered instead of admitted unmetered.
  EXPECT_EQ(limiter.check(source(2'000'000), 3), resolver::RrlVerdict::Pass);
  EXPECT_EQ(limiter.stats().sources_evicted, 4096u);
  EXPECT_EQ(limiter.stats().table_overflow, kNewcomers);
  EXPECT_EQ(limiter.tracked_sources(), 1u);
}

TEST(Rrl, SlipTruncateNeverChangesTheRcode) {
  // The slip path must echo the genuine verdict: an NXDomain stays an
  // NXDomain, a NoError stays a NoError — RRL never fabricates either.
  const auto query = dns::make_query(5, DomainName::must("a.rrl.test"));
  for (const auto rcode : {dns::RCode::NoError, dns::RCode::NXDomain}) {
    dns::Message response = dns::make_response(query, rcode);
    if (rcode == dns::RCode::NoError) {
      response.answers.push_back(
          dns::make_a(DomainName::must("a.rrl.test"), dns::IPv4{0x01020304}));
    }
    const auto slipped = resolver::slip_truncate(response);
    EXPECT_TRUE(slipped.header.tc);
    EXPECT_EQ(slipped.header.rcode, rcode);
    EXPECT_TRUE(slipped.answers.empty());
    ASSERT_EQ(slipped.questions.size(), 1u);
    // Wire form shrinks to at most the query's size: nothing to amplify.
    EXPECT_LE(dns::encode(slipped).size(), dns::encode(query).size() + 16);
  }
}

TEST(Rrl, UdpSlipSetsTcAndTcpRetryDelivers) {
  resolver::AuthoritativeServer auth;
  dns::SoaData soa;
  soa.mname = DomainName::must("ns1.rrl.test");
  soa.rname = DomainName::must("host.rrl.test");
  auto& zone = auth.add_zone(DomainName::must("rrl.test"), soa);
  zone.add(dns::make_a(DomainName::must("www.rrl.test"), dns::IPv4{0x7f000001}));

  const auto loopback = net::Endpoint{*dns::IPv4::parse("127.0.0.1"), 0};
  auto udp = resolver::UdpDnsServer::create(loopback, auth);
  auto tcp = resolver::TcpDnsServer::create(loopback, auth);
  ASSERT_NE(udp, nullptr);
  ASSERT_NE(tcp, nullptr);

  resolver::RrlConfig config;
  config.responses_per_second = 1;
  config.burst = 1;
  config.slip = 1;  // every limited response slips (deterministic test)
  resolver::ResponseRateLimiter limiter(config);
  util::SimClock clock;  // held at t=0: no refill between queries
  udp->set_rrl(&limiter, &clock);
  tcp->set_rrl(&limiter, &clock);

  net::EventLoop loop;
  udp->attach(loop);
  tcp->attach(loop);

  std::optional<dns::Message> full, slipped, tcp_retry;
  std::thread client([&] {
    const auto query =
        dns::make_query(21, DomainName::must("www.rrl.test"), dns::RRType::A);
    full = resolver::udp_query(udp->local(), query, 2'000);
    slipped = resolver::udp_query(udp->local(), query, 2'000);
    if (slipped && slipped->header.tc) {
      tcp_retry = resolver::tcp_query(tcp->local(), query, 2'000);
    }
  });
  loop.run_for(std::chrono::milliseconds(1'500), /*idle_exit=*/false);
  client.join();

  ASSERT_TRUE(full.has_value());
  EXPECT_FALSE(full->header.tc);
  ASSERT_EQ(full->answers.size(), 1u);

  // Second query from the same source: bucket empty, slip = TC + empty.
  ASSERT_TRUE(slipped.has_value());
  EXPECT_TRUE(slipped->header.tc);
  EXPECT_TRUE(slipped->answers.empty());
  EXPECT_EQ(slipped->header.rcode, dns::RCode::NoError);
  EXPECT_EQ(udp->rrl_slipped(), 1u);

  // TCP retry is exempt from Slip (its verdict answers in full).
  ASSERT_TRUE(tcp_retry.has_value());
  EXPECT_FALSE(tcp_retry->header.tc);
  EXPECT_EQ(tcp_retry->answers.size(), 1u);
}

TEST(Rrl, UdpDropSwallowsTheResponse) {
  resolver::AuthoritativeServer auth;
  dns::SoaData soa;
  soa.mname = DomainName::must("ns1.rrl.test");
  soa.rname = DomainName::must("host.rrl.test");
  auth.add_zone(DomainName::must("rrl.test"), soa);

  const auto loopback = net::Endpoint{*dns::IPv4::parse("127.0.0.1"), 0};
  auto udp = resolver::UdpDnsServer::create(loopback, auth);
  ASSERT_NE(udp, nullptr);

  resolver::RrlConfig config;
  config.responses_per_second = 1;
  config.burst = 1;
  config.slip = 0;  // never slip: limited responses vanish
  resolver::ResponseRateLimiter limiter(config);
  util::SimClock clock;
  udp->set_rrl(&limiter, &clock);

  net::EventLoop loop;
  udp->attach(loop);

  std::optional<dns::Message> first, second;
  std::thread client([&] {
    const auto query =
        dns::make_query(22, DomainName::must("gone.rrl.test"), dns::RRType::A);
    first = resolver::udp_query(udp->local(), query, 2'000);
    second = resolver::udp_query(udp->local(), query, 400);
  });
  loop.run_for(std::chrono::milliseconds(2'600), /*idle_exit=*/false);
  client.join();

  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->header.rcode, dns::RCode::NXDomain);
  // The second response was dropped; the client just times out (exactly
  // what a reflection victim experiences: silence, not an NXDomain).
  EXPECT_FALSE(second.has_value());
  EXPECT_EQ(udp->rrl_dropped(), 1u);
  EXPECT_EQ(udp->answered(), 1u);
}

// ------------------------------------------------------- rDNS LRU cache

TEST(ReverseDnsCache, MemoizesHitsAndNegativesWithLruEviction) {
  net::ReverseDnsRegistry registry;
  registry.add_block(net::Prefix{dns::IPv4::from_octets(66, 249, 64, 0), 19},
                     "crawl-%ip%.googlebot.com");
  registry.set_cache_capacity(2);

  const auto bot = dns::IPv4::from_octets(66, 249, 66, 1);
  const auto ghost = dns::IPv4::from_octets(203, 0, 113, 50);
  ASSERT_TRUE(registry.lookup(bot).has_value());   // miss -> cached
  EXPECT_FALSE(registry.lookup(ghost).has_value());  // negative miss -> cached
  EXPECT_EQ(registry.cache_misses(), 2u);

  EXPECT_EQ(*registry.lookup(bot), "crawl-66-249-66-1.googlebot.com");
  EXPECT_FALSE(registry.lookup(ghost).has_value());
  EXPECT_EQ(registry.cache_hits(), 2u);
  EXPECT_EQ(registry.cache_size(), 2u);

  // A third distinct address evicts the least recently used entry (bot —
  // the last hit sequence touched bot then ghost).
  registry.lookup(dns::IPv4::from_octets(198, 51, 100, 1));
  EXPECT_EQ(registry.cache_evictions(), 1u);
  EXPECT_EQ(registry.cache_size(), 2u);

  // Registry mutation invalidates wholesale.
  registry.add_host(ghost, "static.host.example");
  EXPECT_EQ(registry.cache_size(), 0u);
  EXPECT_EQ(*registry.lookup(ghost), "static.host.example");
}

TEST(ReverseDnsCache, BoundedUnderDistinctSourceFlood) {
  net::ReverseDnsRegistry registry;
  registry.set_cache_capacity(64);
  for (int i = 0; i < 10'000; ++i) {
    registry.lookup(dns::IPv4::from_octets(
        10, static_cast<std::uint8_t>(i >> 16), static_cast<std::uint8_t>(i >> 8),
        static_cast<std::uint8_t>(i)));
  }
  EXPECT_LE(registry.cache_size(), 64u);
  EXPECT_EQ(registry.cache_evictions(), 10'000u - 64u);
}

TEST(ReverseDnsCache, ZeroCapacityDisablesCaching) {
  net::ReverseDnsRegistry registry;
  registry.set_cache_capacity(0);
  registry.add_host(dns::IPv4::from_octets(1, 2, 3, 4), "host.example");
  EXPECT_TRUE(registry.lookup(dns::IPv4::from_octets(1, 2, 3, 4)).has_value());
  EXPECT_EQ(registry.cache_size(), 0u);
  EXPECT_EQ(registry.cache_hits(), 0u);
  EXPECT_EQ(registry.cache_misses(), 0u);
}

}  // namespace
}  // namespace nxd
