// Overload shedding under flood: what does the admission layer buy?
//
// Drives a guarded NxdHoneypot (honeypot/overload.hpp) with a seeded
// request flood at 1x, 5x, and 10x the provisioned per-source rate and
// reports, per load level:
//
//   * goodput      — completed requests per simulated second (the sensor's
//                    useful capture work);
//   * shed rate    — fraction of offered requests refused with 503/429
//                    (each refusal is a constant-size response, no capture
//                    work, bounded memory);
//   * p99 accept   — wall-clock latency of the admission decision + serve
//                    path for accepted requests.  Shedding is only a
//                    defense if saying "no" stays cheap while saying "yes"
//                    stays flat.
//
// A slowloris sidecar opens stalled connections against the same gate each
// round, so the concurrent-connection cap and deadline reaper are exercised
// under flood, not just the rate limiter.  Simulated time drives every
// deadline; the only wall-clock measurement is the accept-path latency.
//
// Usage: overload_shed [--seed=42] [--sources=32] [--rate=4]
//                      [--duration=30] [--json=BENCH_overload.json]
//                      [--snapshot=PATH]   also write the 10x run's gate
//                                          and recorder counters as an
//                                          nxd-metrics v1 snapshot (for
//                                          nxdtool health)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "honeypot/server.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct LoadResult {
  int load_factor = 1;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  double shed_rate = 0;
  double goodput_per_s = 0;
  double p99_accept_us = 0;
};

std::string fixed(double v, int places) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", places, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 42;
  std::size_t sources = 32;
  double rate = 4;  // provisioned per-source requests/second
  std::int64_t duration = 30;
  std::string json_path = "BENCH_overload.json";
  std::string snapshot_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) seed = std::strtoull(argv[i] + 7, nullptr, 10);
    if (std::strncmp(argv[i], "--sources=", 10) == 0) sources = std::strtoull(argv[i] + 10, nullptr, 10);
    if (std::strncmp(argv[i], "--rate=", 7) == 0) rate = std::atof(argv[i] + 7);
    if (std::strncmp(argv[i], "--duration=", 11) == 0) duration = std::strtoll(argv[i] + 11, nullptr, 10);
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    if (std::strncmp(argv[i], "--snapshot=", 11) == 0) snapshot_path = argv[i] + 11;
  }
  if (sources == 0) sources = 1;
  if (duration <= 0) duration = 1;

  using namespace nxd;

  std::printf(
      "=== overload shedding: guarded honeypot at 1x/5x/10x load "
      "(seed=%llu sources=%zu rate=%.1f/s duration=%llds) ===\n\n",
      static_cast<unsigned long long>(seed), sources, rate,
      static_cast<long long>(duration));

  const std::string request =
      "GET / HTTP/1.1\r\nHost: overload-bench.com\r\n\r\n";
  std::vector<LoadResult> results;

  for (const int load : {1, 5, 10}) {
    honeypot::TrafficRecorder recorder;
    honeypot::NxdHoneypot::Config config;
    config.domain = "overload-bench.com";
    honeypot::NxdHoneypot server(config, recorder);
    honeypot::OverloadConfig guard;
    guard.max_connections = 64;
    guard.per_ip_rate = rate;
    guard.per_ip_burst = 2 * rate;
    server.enable_overload(guard);

    util::SimClock clock;
    util::Rng rng(seed + static_cast<std::uint64_t>(load));
    LoadResult r;
    r.load_factor = load;
    std::vector<double> accept_us;

    for (util::SimTime second = 0; second < duration; ++second) {
      clock.set(second);
      // Slowloris sidecar: a few connections per second open a header and
      // stall, keeping the connection cap and reaper busy under flood.
      for (int s = 0; s < 4; ++s) {
        const net::Endpoint src{
            dns::IPv4::from_octets(198, 51, 100,
                                   static_cast<std::uint8_t>(rng.bounded(250))),
            static_cast<std::uint16_t>(40'000 + s)};
        const auto opened = server.conn_open(src, clock.now());
        ++r.offered;
        if (opened.accepted) {
          const std::string partial = "GET / HTTP/1.1\r\nHo";
          server.conn_data(
              opened.id,
              std::span(reinterpret_cast<const std::uint8_t*>(partial.data()),
                        partial.size()),
              clock.now());
        }
      }
      server.reap_expired(clock.now());

      // The flood proper: every source offers load x its provisioned rate.
      const auto per_source =
          static_cast<int>(rate * static_cast<double>(load));
      for (std::size_t ip = 0; ip < sources; ++ip) {
        for (int q = 0; q < per_source; ++q) {
          net::SimPacket packet;
          packet.protocol = net::Protocol::TCP;
          packet.src = net::Endpoint{
              dns::IPv4::from_octets(192, 0, static_cast<std::uint8_t>(ip >> 8),
                                     static_cast<std::uint8_t>(ip)),
              static_cast<std::uint16_t>(50'000 + q)};
          packet.dst =
              net::Endpoint{dns::IPv4::from_octets(203, 0, 113, 10), 80};
          packet.payload.assign(request.begin(), request.end());
          ++r.offered;
          const auto start = Clock::now();
          const auto reply = server.handle_packet(packet, clock.now());
          const double us =
              std::chrono::duration<double, std::micro>(Clock::now() - start)
                  .count();
          // A shed reply is 503/429; a completed one is the landing page
          // (larger).  Telling them apart by the gate's counters keeps this
          // loop allocation-free.
          (void)reply;
          accept_us.push_back(us);
        }
      }
    }
    clock.advance(guard.header_deadline + 1);
    server.reap_expired(clock.now());

    const auto& stats = server.gate()->stats();
    r.completed = stats.completed;
    r.shed = stats.shed_total();
    r.expired = stats.expired_total();
    r.shed_rate = r.offered > 0
                      ? static_cast<double>(r.shed) / static_cast<double>(r.offered)
                      : 0;
    r.goodput_per_s =
        static_cast<double>(r.completed) / static_cast<double>(duration);
    if (!accept_us.empty()) {
      std::sort(accept_us.begin(), accept_us.end());
      r.p99_accept_us = accept_us[(accept_us.size() * 99) / 100 >=
                                          accept_us.size()
                                      ? accept_us.size() - 1
                                      : (accept_us.size() * 99) / 100];
    }
    results.push_back(r);

    if (load == 10 && !snapshot_path.empty()) {
      obs::MetricsRegistry registry;
      server.gate()->bind_metrics(registry);
      recorder.bind_metrics(registry);
      if (std::FILE* f = std::fopen(snapshot_path.c_str(), "w")) {
        std::fputs(registry.snapshot().to_text().c_str(), f);
        std::fclose(f);
      }
    }
  }

  nxd::util::Table table({"load", "offered", "completed", "shed", "expired",
                          "shed rate", "goodput/s", "p99 accept us"});
  for (const auto& r : results) {
    table.add_row({std::to_string(r.load_factor) + "x",
                   nxd::util::with_commas(r.offered),
                   nxd::util::with_commas(r.completed),
                   nxd::util::with_commas(r.shed),
                   nxd::util::with_commas(r.expired),
                   fixed(100 * r.shed_rate, 1) + "%",
                   fixed(r.goodput_per_s, 1), fixed(r.p99_accept_us, 1)});
  }
  table.render(std::cout);

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"overload_shed\",\n");
    std::fprintf(f, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(seed));
    std::fprintf(f, "  \"sources\": %zu,\n", sources);
    std::fprintf(f, "  \"per_source_rate\": %g,\n", rate);
    std::fprintf(f, "  \"duration_seconds\": %lld,\n",
                 static_cast<long long>(duration));
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      std::fprintf(f,
                   "    {\"load_factor\": %d, \"offered\": %llu, "
                   "\"completed\": %llu, \"shed\": %llu, \"expired\": %llu, "
                   "\"shed_rate\": %.6f, \"goodput_per_second\": %.3f, "
                   "\"p99_accept_us\": %.3f}%s\n",
                   r.load_factor, static_cast<unsigned long long>(r.offered),
                   static_cast<unsigned long long>(r.completed),
                   static_cast<unsigned long long>(r.shed),
                   static_cast<unsigned long long>(r.expired), r.shed_rate,
                   r.goodput_per_s, r.p99_accept_us,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
