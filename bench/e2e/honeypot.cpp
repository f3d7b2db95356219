// honeypot: the security pillar on real sockets (paper §6).
//
// The seeded HoneypotTrafficModel capture for the 19 Table-1 profiles plus
// noise is replayed against a TcpHoneypotFrontend on loopback: every payload
// is one TCP connection, served by one EventLoop thread with the default
// overload guard.  The client is the main thread with 4 connections in
// flight, in a closed loop, on the same CPU as the server thread; the
// listening socket defers accept until the request has arrived.  Interleaved
// with serving, the §6 SecurityAnalysis runs over the generated capture, and
// the recover phase reloads that capture from its JSON-lines log.  The only
// workload on real sockets: event loop, gate, parse, record and §6 analysis,
// with no pdns or resolver work.
//
// The traced run also replays every payload in-process through
// NxdHoneypot::conn_open / conn_data, so gate and parse/record cost is
// separated from socket cost; that replay is also the oracle for the status
// line each connection must receive.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>
#include <unordered_map>

#include "analysis/security.hpp"
#include "common.hpp"
#include "honeypot/capture_log.hpp"
#include "honeypot/categorizer.hpp"
#include "honeypot/filter.hpp"
#include "honeypot/forensics.hpp"
#include "honeypot/recorder.hpp"
#include "honeypot/server.hpp"
#include "net/event_loop.hpp"
#include "obs/metrics.hpp"
#include "synth/table1.hpp"
#include "synth/traffic_model.hpp"
#include "tracer.hpp"
#include "vuln/vuln_db.hpp"

namespace nxd::bench {
namespace {

constexpr std::size_t kInFlight = 4;
constexpr std::size_t kConnChunk = 1'024;  // connections per serve chunk
constexpr double kNominalConnPerSec = 16'000;
constexpr const char* kDomain = "bench-honeypot.com";
// One analysis + recover repetition costs about 0.25 s at full size.
constexpr std::size_t kReps = 16;

struct HoneypotSizes {
  double scale;
  std::size_t noise_per_domain;
};

HoneypotSizes honeypot_sizes(const Options& opt) {
  if (opt.smoke) return HoneypotSizes{0.0003, 5};
  return HoneypotSizes{0.006, 25};
}

/// Make accept() on the front end's listening socket wait until the request
/// bytes have arrived (TCP_DEFER_ACCEPT).  Otherwise accept races the
/// client's send(), and each lost race costs the front end a 2 ms sleep
/// (TcpHoneypotFrontend::on_acceptable) during which no connection is served.
/// How often the race is lost depends on thread scheduling: about 3% of
/// connections, a third of the serve time, and 20-30% swings in throughput
/// and latency between runs.  The front end does not expose its socket, so
/// it is found by its bound port.
bool defer_accept(std::uint16_t port) {
  for (int fd = 0; fd < 4'096; ++fd) {
    int listening = 0;
    socklen_t len = sizeof(listening);
    if (::getsockopt(fd, SOL_SOCKET, SO_ACCEPTCONN, &listening, &len) != 0 ||
        listening == 0) {
      continue;
    }
    sockaddr_in addr{};
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) !=
            0 ||
        addr.sin_family != AF_INET || ntohs(addr.sin_port) != port) {
      continue;
    }
    const int seconds = 1;
    return ::setsockopt(fd, IPPROTO_TCP, TCP_DEFER_ACCEPT, &seconds,
                        sizeof(seconds)) == 0;
  }
  return false;
}

std::uint64_t thread_cpu_ns(std::thread& t) {
  clockid_t id;
  if (pthread_getcpuclockid(t.native_handle(), &id) != 0) return 0;
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// The server side: recorder, honeypot, TCP front end and its event-loop
/// thread.  The thread is the last member, so it stops before the objects
/// it uses are destroyed.
struct Server {
  honeypot::TrafficRecorder recorder;
  util::SimClock clock{0};
  honeypot::NxdHoneypot pot{honeypot::NxdHoneypot::Config{.domain = kDomain},
                            recorder};
  std::unique_ptr<honeypot::TcpHoneypotFrontend> frontend;
  net::EventLoop loop;
  std::atomic<bool> stop{false};
  std::thread thread;

  Server() = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server() { halt(); }

  bool start(obs::MetricsRegistry& registry) {
    pot.enable_overload(honeypot::OverloadConfig{});
    pot.gate()->bind_metrics(registry);
    recorder.bind_metrics(registry);
    frontend = honeypot::TcpHoneypotFrontend::create(
        net::Endpoint{*dns::IPv4::parse("127.0.0.1"), 0}, pot, clock);
    if (!frontend || !defer_accept(frontend->local().port)) return false;
    frontend->attach(loop);
    thread = std::thread([this] {
      while (!stop.load(std::memory_order_acquire)) {
        loop.poll_once(std::chrono::milliseconds(2));
      }
    });
    return true;
  }

  void halt() {
    stop.store(true, std::memory_order_release);
    if (thread.joinable()) thread.join();
  }
};

/// Inputs plus the analysis objects that reference them; held by pointer
/// because the categorizer keeps references into the model.
struct World {
  synth::HoneypotTrafficModel model;
  std::vector<honeypot::TrafficRecord> capture;
  std::vector<std::size_t> payloads;  // capture indices with a payload
  honeypot::TrafficFilter filter;
  vuln::VulnDb vuln_db = vuln::VulnDb::with_defaults();
  std::unique_ptr<honeypot::TrafficCategorizer> categorizer;
  Server server;

  explicit World(const synth::TrafficModelConfig& config) : model(config) {}
};

std::unique_ptr<World> make_world(const HoneypotSizes& z, const Options& opt,
                                  obs::MetricsRegistry& registry) {
  synth::TrafficModelConfig config;
  config.seed = opt.seed;
  config.scale = z.scale;
  auto w = std::make_unique<World>(config);
  for (const auto& profile : synth::table1_profiles()) {
    auto records = w->model.generate_domain(profile);
    w->capture.insert(w->capture.end(),
                      std::make_move_iterator(records.begin()),
                      std::make_move_iterator(records.end()));
    auto noise = w->model.generate_noise(profile.domain, z.noise_per_domain);
    w->capture.insert(w->capture.end(), std::make_move_iterator(noise.begin()),
                      std::make_move_iterator(noise.end()));
  }
  for (std::size_t i = 0; i < w->capture.size(); ++i) {
    if (!w->capture[i].payload.empty()) w->payloads.push_back(i);
  }
  honeypot::TrafficRecorder no_hosting, control;
  w->model.fill_no_hosting_baseline(no_hosting);
  w->model.fill_control_group(control);
  w->filter.learn_no_hosting(no_hosting);
  w->filter.learn_control_group(control);
  honeypot::TrafficCategorizer::Config cat_config;
  cat_config.referer_verifier = [model = &w->model](const std::string& url,
                                                    const std::string& domain) {
    return model->verify_referer(url, domain);
  };
  w->categorizer = std::make_unique<honeypot::TrafficCategorizer>(
      w->vuln_db, w->model.rdns(), cat_config);
  if (!w->server.start(registry)) return nullptr;
  return w;
}

std::string status_line(std::string_view response) {
  return std::string(response.substr(0, response.find("\r\n")));
}

/// One client connection in flight.
struct Slot {
  int fd = -1;
  std::size_t payload = 0;  // index into World::payloads
  std::uint64_t start_ns = 0;
  std::string response;
};

struct Connection {
  std::size_t payload;
  std::string status;
  double latency_us;
  bool ok;  // connected, sent, and closed by the server
};

class Client {
 public:
  Client(const World& w, std::uint16_t port, Tracer* tracer)
      : w_(w), tracer_(tracer) {
    addr_.sin_family = AF_INET;
    addr_.sin_port = htons(port);
    addr_.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  }

  /// Open a connection for payload `p` and send it whole.
  void start(Slot& slot, std::size_t p) {
    slot.payload = p;
    slot.response.clear();
    slot.start_ns = now_ns();
    const std::string& payload = w_.capture[w_.payloads[p]].payload;
    {
      Span s(tracer_, S::NetConnect);
      slot.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (slot.fd >= 0 &&
          ::connect(slot.fd, reinterpret_cast<const sockaddr*>(&addr_),
                    sizeof(addr_)) != 0) {
        ::close(slot.fd);
        slot.fd = -1;
      }
    }
    connect_us_.push_back(static_cast<double>(now_ns() - slot.start_ns) * 1e-3);
    if (slot.fd < 0) {
      finish(slot, false);
      return;
    }
    Span s(tracer_, S::NetSend);
    std::size_t sent = 0;
    while (sent < payload.size()) {
      const auto n = ::send(slot.fd, payload.data() + sent,
                            payload.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    ::fcntl(slot.fd, F_SETFL, ::fcntl(slot.fd, F_GETFL) | O_NONBLOCK);
    if (sent < payload.size()) finish(slot, false);
  }

  /// Read what is available; true once the server closed the connection.
  bool drain(Slot& slot) {
    Span s(tracer_, S::NetRecv);
    char buf[16 * 1024];
    while (true) {
      const auto n = ::recv(slot.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        slot.response.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) return true;
      return errno != EAGAIN && errno != EWOULDBLOCK;  // error: done too
    }
  }

  void finish(Slot& slot, bool ok) {
    if (slot.fd >= 0) {
      Span s(tracer_, S::NetClose);
      ::close(slot.fd);
    }
    slot.fd = -1;
    done_.push_back(Connection{
        slot.payload, status_line(slot.response),
        static_cast<double>(now_ns() - slot.start_ns) * 1e-3, ok});
  }

  /// Serve connections until `target` more have completed, cycling through
  /// the payloads from `next`.  No connection outlives the call, so chunk
  /// boundaries are clean.
  void run(std::size_t target, std::size_t& next, std::vector<Slot>& slots) {
    const std::size_t goal = done_.size() + target;
    for (auto& slot : slots) {
      if (slot.fd < 0 && done_.size() + in_flight(slots) < goal) {
        start(slot, next++ % w_.payloads.size());
      }
    }
    std::vector<pollfd> fds;
    std::vector<Slot*> owners;
    while (done_.size() < goal) {
      fds.clear();
      owners.clear();
      for (auto& slot : slots) {
        if (slot.fd >= 0) {
          fds.push_back(pollfd{slot.fd, POLLIN, 0});
          owners.push_back(&slot);
        }
      }
      if (fds.empty()) break;
      int ready = 0;
      {
        Span s(tracer_, S::NetWait);
        ready = ::poll(fds.data(), fds.size(), 5'000);
      }
      if (ready <= 0) {
        // The server always closes within ~100 ms; a 5 s silence is a hang.
        for (auto* slot : owners) finish(*slot, false);
        continue;
      }
      for (std::size_t k = 0; k < fds.size(); ++k) {
        if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Slot& slot = *owners[k];
        if (!drain(slot)) continue;
        finish(slot, true);
        if (done_.size() + in_flight(slots) < goal) {
          start(slot, next++ % w_.payloads.size());
        }
      }
    }
  }

  const std::vector<Connection>& done() const { return done_; }
  const std::vector<double>& connect_us() const { return connect_us_; }

 private:
  static std::size_t in_flight(const std::vector<Slot>& slots) {
    std::size_t n = 0;
    for (const auto& s : slots) n += s.fd >= 0 ? 1 : 0;
    return n;
  }

  const World& w_;
  Tracer* tracer_;
  sockaddr_in addr_{};
  std::vector<Connection> done_;
  std::vector<double> connect_us_;
};

/// In-process replay of every payload through conn_open / conn_data, in
/// the order the TCP front end drives them; returns the status line each
/// payload must get ("" when the honeypot answers nothing).
std::vector<std::string> replay(const World& w, Tracer* tracer) {
  honeypot::TrafficRecorder recorder;
  honeypot::NxdHoneypot pot(honeypot::NxdHoneypot::Config{.domain = kDomain},
                            recorder);
  pot.enable_overload(honeypot::OverloadConfig{});
  const net::Endpoint peer{*dns::IPv4::parse("127.0.0.1"), 40'000};
  std::vector<std::string> expected;
  expected.reserve(w.payloads.size());
  Span root(tracer, S::PhaseReplay);
  for (const std::size_t index : w.payloads) {
    const std::string& payload = w.capture[index].payload;
    honeypot::NxdHoneypot::ConnOpen opened;
    {
      Span s(tracer, S::HoneypotConnOpen);
      opened = pot.conn_open(peer, 0);
    }
    std::optional<std::vector<std::uint8_t>> reply;
    {
      Span s(tracer, S::HoneypotConnData);
      reply = pot.conn_data(
          opened.id,
          std::span(reinterpret_cast<const std::uint8_t*>(payload.data()),
                    payload.size()),
          0);
      if (!reply && pot.open_connections() > 0) pot.conn_abort(opened.id, 0);
    }
    expected.push_back(
        reply ? status_line(std::string_view(
                    reinterpret_cast<const char*>(reply->data()),
                    reply->size()))
              : std::string());
  }
  return expected;
}

/// The body of analysis::SecurityAnalysis::run with each call into the
/// honeypot module under its own span (traced runs only).
analysis::SecurityReport traced_security(World& w,
                                         honeypot::TrafficFilter& filter,
                                         honeypot::BotnetAnalysis& botnet,
                                         Tracer* tracer) {
  analysis::SecurityReport report;
  std::vector<honeypot::TrafficRecord> kept;
  {
    Span s(tracer, S::HoneypotFilter);
    kept = filter.apply(w.capture);
  }
  report.filter = filter.stats();
  for (const auto& record : kept) {
    report.ports.add(std::to_string(record.dst_port));
    std::optional<honeypot::HttpRequest> http;
    {
      Span s(tracer, S::HoneypotParse);
      http = record.http();
    }
    if (!http) {
      ++report.non_http;
      report.matrix.add(record.domain, honeypot::TrafficCategory::Other);
      continue;
    }
    ++report.http_requests;
    honeypot::Categorization result;
    {
      Span s(tracer, S::HoneypotCategorize);
      result = w.categorizer->categorize(*http, record);
    }
    report.matrix.add(record.domain, result.category);
    if (result.category == honeypot::TrafficCategory::UserInAppBrowser &&
        result.in_app) {
      report.in_app_browsers.add(honeypot::to_string(*result.in_app));
    }
    if (result.category == honeypot::TrafficCategory::AutoMaliciousRequest) {
      Span s(tracer, S::HoneypotBotnet);
      botnet.ingest(*http, record.source.ip);
    }
  }
  return report;
}

}  // namespace

Result run_honeypot(const Options& opt, Tracer* tracer) {
  Result r;
  r.workload = "honeypot";
  // The client and the event-loop thread share one CPU, so a connection
  // costs CPU work and same-CPU switches instead of cross-CPU wake-ups,
  // which on a shared VM stall for milliseconds whenever the host
  // deschedules a vCPU (throughput swung 4x between runs unpinned).  The
  // pair moves to the next CPU every few chunks and before every
  // repetition; the server thread inherits the client's CPU when it starts.
  r.threads = 1;
  CpuRotation rotation(!opt.trace);
  r.check(rotation.next(), "cannot pin the workload to one CPU");
  const HoneypotSizes z = honeypot_sizes(opt);
  obs::MetricsRegistry registry;

  std::unique_ptr<World> w;
  const auto setup_reps = repeated_setup(
      15, w,
      [&] {
        registry.reset();
        return make_world(z, opt, registry);
      },
      &rotation);
  const double setup_s = median(setup_reps);
  if (!w) {
    r.check(false, "cannot start the TCP honeypot on loopback");
    return r;
  }
  r.sizes["capture_records"] = std::to_string(w->capture.size());
  r.sizes["payloads"] = std::to_string(w->payloads.size());
  r.sizes["in_flight"] = std::to_string(kInFlight);
  std::fprintf(stderr, "honeypot: %zu records, %zu payloads, setup %.3f s\n",
               w->capture.size(), w->payloads.size(), setup_s);

  // ---- analysis and recover repetitions, interleaved with serving: the
  // §6 analysis over the generated capture, and a reload of that capture
  // from its JSON-lines log (the honeypot's persisted capture).
  std::filesystem::create_directories(opt.work_dir);
  const std::string path = opt.work_dir + "/honeypot-capture.jsonl";
  {
    std::ofstream out(path, std::ios::binary);
    honeypot::write_capture_log(out, w->capture);
  }
  Reps analysis(tracer, S::PhaseAnalysis);
  Reps recover(tracer, S::PhaseRecover);
  analysis::SecurityReport report;
  bool reloads_match = true;
  const auto run_reps = [&] {
    rotation.next(&w->server.thread);
    if (tracer != nullptr) tracer->set_active(true);
    honeypot::TrafficFilter filter = w->filter;
    honeypot::BotnetAnalysis botnet(w->model.rdns());
    analysis.run([&] {
      if (tracer != nullptr) {
        report = traced_security(*w, filter, botnet, tracer);
      } else {
        report = analysis::SecurityAnalysis(filter, *w->categorizer, botnet)
                     .run(w->capture);
      }
    });
    honeypot::TrafficRecorder reloaded;
    honeypot::CaptureLogStats log_stats;
    recover.run([&] {
      Span s(tracer, S::HoneypotReadCapture);
      std::ifstream in(path, std::ios::binary);
      log_stats = honeypot::read_capture_log(in, reloaded);
    });
    bool same = log_stats.loaded == w->capture.size() &&
                log_stats.skipped_malformed == 0;
    for (std::size_t i = 0; same && i < w->capture.size(); ++i) {
      const auto& a = reloaded.records()[i];
      const auto& b = w->capture[i];
      same = a.payload == b.payload && a.source == b.source &&
             a.dst_port == b.dst_port && a.when == b.when &&
             a.domain == b.domain;
    }
    reloads_match = reloads_match && same;
  };

  // ---- serve: one TCP connection per payload, 4 in flight.  The honeypot
  // keeps every capture in memory, so the phase is sized in work rather
  // than time: whole passes over the payloads, as many as take --seconds
  // at kNominalConnPerSec.  A faster server then finishes the same work
  // sooner instead of accumulating a larger capture.
  const std::size_t passes = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             opt.seconds * kNominalConnPerSec /
             static_cast<double>(w->payloads.size()))));
  const std::size_t total = passes * w->payloads.size();
  r.sizes["passes"] = std::to_string(passes);
  Client client(*w, w->server.frontend->local().port, tracer);
  std::vector<Slot> slots(kInFlight);
  std::size_t next = 0;
  double serve_ns = 0;
  // Repetitions are spread by progress, not time, so every run makes the
  // same number of them whatever the server's speed.
  const std::size_t rep_every =
      std::max<std::size_t>(1, total / opt.reps(kReps));
  std::vector<double> chunk_rates;
  std::vector<double> traced_ns_per_conn, untraced_ns_per_conn;
  bool traced_chunk = false;
  const auto cpu_start = thread_cpu_ns(w->server.thread);
  for (std::size_t chunk = 0; client.done().size() < total; ++chunk) {
    if (chunk % CpuRotation::kChunksPerStep == 0) {
      rotation.next(&w->server.thread);
    }
    if (tracer != nullptr) tracer->set_active(traced_chunk);
    const std::size_t before = client.done().size();
    const auto chunk_start = now_ns();
    {
      Span root(tracer, S::PhaseServe);
      client.run(std::min(kConnChunk, total - before), next, slots);
    }
    const auto chunk_ns = static_cast<double>(now_ns() - chunk_start);
    serve_ns += chunk_ns;
    const auto completed = client.done().size() - before;
    if (completed == 0) break;
    chunk_rates.push_back(static_cast<double>(completed) / (chunk_ns * 1e-9));
    if (tracer != nullptr) {
      (traced_chunk ? traced_ns_per_conn : untraced_ns_per_conn)
          .push_back(chunk_ns / static_cast<double>(completed));
      traced_chunk = !traced_chunk;
    }
    if (client.done().size() >= (analysis.count() + 1) * rep_every) {
      run_reps();
    }
  }
  if (tracer != nullptr) tracer->set_active(true);
  const auto server_cpu_ns = thread_cpu_ns(w->server.thread) - cpu_start;
  w->server.halt();
  while (analysis.count() < opt.reps(kReps)) run_reps();

  // ---- checks: oracle statuses, record counts, payload multiset
  const auto expected = replay(*w, tracer);
  const auto& done = client.done();
  std::uint64_t wrong_status = 0, broken = 0, slow = 0;
  std::vector<double> latency_us;
  std::unordered_map<std::string_view, std::int64_t> multiset;
  for (const auto& c : done) {
    latency_us.push_back(c.latency_us);
    if (c.latency_us >= 2'000) ++slow;
    if (!c.ok) {
      ++broken;
      continue;
    }
    if (c.status != expected[c.payload]) ++wrong_status;
    ++multiset[w->capture[w->payloads[c.payload]].payload];
  }
  const auto& records = w->server.recorder.records();
  for (const auto& record : records) --multiset[record.payload];
  std::uint64_t multiset_diff = 0;
  for (const auto& [payload, count] : multiset) {
    multiset_diff += static_cast<std::uint64_t>(count < 0 ? -count : count);
  }
  const auto gate = w->server.pot.gate()->stats();
  r.attempted = done.size();
  r.failed = broken + wrong_status + gate.shed_total();
  r.check(broken == 0, std::to_string(broken) + " connections broke");
  r.check(wrong_status == 0, std::to_string(wrong_status) +
                                 " connections got an unexpected status");
  r.check(records.size() == gate.accepted,
          "recorder holds " + std::to_string(records.size()) +
              " records for " + std::to_string(gate.accepted) +
              " accepted connections");
  r.check(gate.accepted == done.size() - broken,
          "accepted connections != completed connections");
  r.check(multiset_diff == 0, "captured payloads != sent payloads (" +
                                  std::to_string(multiset_diff) + " off)");
  {
    honeypot::TrafficFilter reference_filter = w->filter;
    honeypot::BotnetAnalysis reference_botnet(w->model.rdns());
    const auto reference =
        analysis::SecurityAnalysis(reference_filter, *w->categorizer,
                                   reference_botnet)
            .run(w->capture);
    r.check(report.filter.input == w->capture.size() &&
                report.filter.kept == reference.filter.kept &&
                report.http_requests == reference.http_requests &&
                report.non_http == reference.non_http,
            "§6 analysis disagrees with SecurityAnalysis::run");
    r.check(reference.http_requests > 0, "§6 analysis found no HTTP");
  }
  r.check(reloads_match, "reloaded capture log != the capture written");
  std::filesystem::remove(path);

  const auto latency = windowed_latency(latency_us);
  r.e2e["setup_s"] = {setup_s, "s"};
  r.e2e["ops_per_s"] = {median(chunk_rates), "1/s"};
  r.e2e["op_p50_us"] = {latency.p50, "us"};
  r.e2e["op_p99_us"] = {latency.p99, "us"};
  r.e2e["analysis_s"] = {median(analysis.times()), "s"};
  r.e2e["recover_s"] = {median(recover.times()), "s"};

  r.layer["ledger.op_p999_us"] = {percentile(latency_us, 0.999), "us"};
  r.layer["net.server_cpu_pct"] = {
      serve_ns > 0 ? 100.0 * static_cast<double>(server_cpu_ns) / serve_ns : 0,
      "%"};
  r.layer["net.slow_conn_pct"] = {
      done.empty() ? 0
                   : 100.0 * static_cast<double>(slow) /
                         static_cast<double>(done.size()),
      "%"};
  r.layer["honeypot.records"] = {static_cast<double>(records.size()), "count"};
  r.layer["honeypot.shed"] = {static_cast<double>(gate.shed_total()), "count"};
  r.layer["honeypot.oversize"] = {
      static_cast<double>(w->server.recorder.oversize_payloads()), "count"};
  if (!traced_ns_per_conn.empty() && !untraced_ns_per_conn.empty()) {
    r.detail["trace.traced_unit"] = median(traced_ns_per_conn);
    r.detail["trace.untraced_unit"] = median(untraced_ns_per_conn);
  }
  r.detail["net.connect_us_p50"] = percentile(client.connect_us(), 0.5);
  r.detail["connections"] = static_cast<double>(done.size());
  r.detail["serve_s"] = serve_ns * 1e-9;
  r.detail["analysis.kept"] = static_cast<double>(report.filter.kept);
  return r;
}

}  // namespace nxd::bench
