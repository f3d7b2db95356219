// nxd_bench: one end-to-end workload per process.
//
//   nxd_bench --workload=<feed|resolve|attack|honeypot> --seed=<n>
//             [--seconds=<s>] [--trace] [--out=<dir>] [--work-dir=<dir>]
//             [--git-sha=<sha>] [--smoke]
//
// Each run sets up several times (setup_s is the median), serves its
// workload for about --seconds with its analysis and recover phases
// interleaved or per pass, checks its outputs outside every timed region,
// and prints two JSON lines on stdout: the full result (run context,
// checks, every number) and, last, the summary
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics, or with --trace the per-layer metrics of
// a separate traced run.  Any failed check makes the exit code 1.
#include <sched.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "tracer.hpp"

namespace nxd::bench {
namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Per-layer metrics that only some workloads produce; the others report 0
/// (the layer did no such work).  Every run prints the same set.
constexpr LayerMetric kWorkloadLayerMetrics[] = {
    {"ledger.op_p999_us", "us"},
    {"pdns.wal_append_pct", "%"},
    {"pdns.wal_fsync_pct", "%"},
    {"pdns.apply_pct", "%"},
    {"pdns.ckpt_pct", "%"},
    {"pdns.batches_per_group", "ratio"},
    {"pdns.disk_bytes_per_obs", "B"},
    {"pdns.bytes_per_domain", "B"},
    {"pdns.recover_replayed_batches", "count"},
    {"pdns.recover_deltas_absorbed", "count"},
    {"resolver.cache_hit_ratio", "ratio"},
    {"resolver.upstream_sends_per_query", "ratio"},
    {"resolver.aggressive_hits", "count"},
    {"resolver.delegation_capped", "count"},
    {"resolver.cname_capped", "count"},
    {"resolver.negative_entries_peak", "count"},
    {"resolver.range_entries_peak", "count"},
    {"resolver.negative_evictions", "count"},
    {"net.sim_packets_per_query", "ratio"},
    {"net.server_cpu_pct", "%"},
    {"net.slow_conn_pct", "%"},
    {"honeypot.records", "count"},
    {"honeypot.shed", "count"},
    {"honeypot.oversize", "count"},
};

constexpr const char* kLayers[] = {"pdns",     "analysis", "dns",
                                   "resolver", "upstream", "net",
                                   "honeypot"};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

std::string filesystem_of(const std::string& path) {
  struct statfs st{};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794c7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* key) -> const char* {
      const std::size_t n = std::strlen(key);
      return arg.compare(0, n, key) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      opt.workload = v;
    } else if (const char* v = value("--seed=")) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      opt.seconds = std::atof(v);
    } else if (const char* v = value("--out=")) {
      opt.out_dir = v;
    } else if (const char* v = value("--work-dir=")) {
      opt.work_dir = v;
    } else if (const char* v = value("--git-sha=")) {
      opt.git_sha = v;
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      std::fprintf(stderr, "nxd_bench: unknown argument %s\n", argv[i]);
      return false;
    }
  }
  return opt.workload == "feed" || opt.workload == "resolve" ||
         opt.workload == "attack" || opt.workload == "honeypot";
}

/// Per-layer metrics from the traced run's ledger, plus the workload's own.
void add_ledger(Result& r, const Tracer& tracer) {
  const auto ledger = tracer.ledger();
  const double wall = ledger.wall_ns;
  const auto pct = [wall](double ns) {
    return wall > 0 ? 100.0 * ns / wall : 0.0;
  };
  r.layer["ledger.unattributed_pct"] = {pct(ledger.unattributed_ns), "%"};
  double overhead = 0;
  const auto traced = r.detail.find("trace.traced_unit");
  const auto untraced = r.detail.find("trace.untraced_unit");
  if (traced != r.detail.end() && untraced != r.detail.end() &&
      untraced->second > 0) {
    overhead = 100.0 * (traced->second / untraced->second - 1.0);
  }
  r.layer["ledger.trace_overhead_pct"] = {overhead, "%"};
  for (const char* layer : kLayers) {
    const auto it = ledger.layer_self_ns.find(layer);
    r.layer[std::string(layer) + ".self_pct"] = {
        pct(it == ledger.layer_self_ns.end() ? 0 : it->second), "%"};
  }
  for (std::size_t i = 0; i < kSpanNames; ++i) {
    const auto s = static_cast<S>(i);
    if (is_root(s)) continue;
    const std::string name(span_name(s));
    r.layer[name + "_pct"] = {pct(ledger.span_self_ns.at(name)), "%"};
    const auto& a = tracer.agg(s);
    if (a.count > 0) {
      r.detail["span." + name + ".calls"] = static_cast<double>(a.count);
      r.detail["span." + name + ".self_ns_per_call"] =
          static_cast<double>(a.self_ns) / static_cast<double>(a.count);
    }
  }
  r.detail["ledger.wall_s"] = wall * 1e-9;
  double layers_ns = 0;
  for (const auto& [layer, ns] : ledger.layer_self_ns) layers_ns += ns;
  r.detail["ledger.layers_s"] = layers_ns * 1e-9;
  r.detail["ledger.unattributed_s"] = ledger.unattributed_ns * 1e-9;
  r.detail["ledger.records_dropped"] =
      static_cast<double>(tracer.records_dropped());
  for (const auto& m : kWorkloadLayerMetrics) {
    r.layer.try_emplace(m.name, Metric{0, m.unit});
  }
}

std::string context_json(const Options& opt, const Result& r,
                         const std::string& filesystem) {
  utsname u{};
  uname(&u);
  const unsigned cores = nproc();
  std::ostringstream out;
  out << "{\"nproc\": " << cores
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": " << json_string(cpu_model())
      << ", \"compiler\": " << json_string(std::string("gcc ") + __VERSION__)
      << ", \"build_type\": " << json_string(NXD_BENCH_BUILD_TYPE)
      << ", \"git_sha\": " << json_string(opt.git_sha)
      << ", \"kernel\": "
      << json_string(std::string(u.sysname) + " " + u.release)
      << ", \"filesystem\": " << json_string(filesystem)
      << ", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
      << ", \"trace\": " << (opt.trace ? "true" : "false")
      << ", \"smoke\": " << (opt.smoke ? "true" : "false")
      << ", \"threads\": " << r.threads;
  if (cores < r.threads) out << ", \"degraded\": true";
  out << ", \"sizes\": {";
  bool first = true;
  for (const auto& [k, v] : r.sizes) {
    out << (first ? "" : ", ") << json_string(k) << ": " << v;
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace
}  // namespace nxd::bench

int main(int argc, char** argv) {
  using namespace nxd::bench;
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: nxd_bench --workload=<feed|resolve|attack|honeypot> "
                 "--seed=<n> [--seconds=<s>] [--trace] [--out=<dir>] "
                 "[--work-dir=<dir>] [--git-sha=<sha>] [--smoke]\n");
    return 2;
  }
  opt.work_dir += "/" + opt.workload + "-" + std::to_string(getpid());
  std::filesystem::create_directories(opt.work_dir);
  const std::string filesystem = filesystem_of(opt.work_dir);

  std::unique_ptr<Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<Tracer>(!opt.out_dir.empty());
  Result r;
  if (opt.workload == "feed") r = run_feed(opt, tracer.get());
  if (opt.workload == "resolve") r = run_resolve(opt, tracer.get());
  if (opt.workload == "attack") r = run_attack(opt, tracer.get());
  if (opt.workload == "honeypot") r = run_honeypot(opt, tracer.get());
  std::filesystem::remove_all(opt.work_dir);

  r.e2e["peak_rss_mb"] = {
      static_cast<double>(r.peak_rss_kb != 0 ? r.peak_rss_kb : peak_rss_kb()) /
          1024.0,
      "MB"};
  if (tracer) add_ledger(r, *tracer);
  const auto& shown = opt.trace ? r.layer : r.e2e;
  for (const auto& [name, m] : shown) {
    r.check(std::isfinite(m.value), name + " is not a finite number");
  }
  if (!opt.trace) {
    for (const auto& [name, m] : r.e2e) {
      r.check(m.value > 0, name + " is not positive");
    }
  }
  const bool correct = r.check_failures.empty();
  for (const auto& failure : r.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }

  std::string checks = "[";
  for (std::size_t i = 0; i < r.check_failures.size(); ++i) {
    checks += (i ? ", " : "") + json_string(r.check_failures[i]);
  }
  checks += "]";
  std::string detail = "{";
  bool first = true;
  for (const auto& [name, v] : r.detail) {
    detail += (first ? "" : ", ") + json_string(name) + ": " + json_number(v);
    first = false;
  }
  detail += "}";
  const std::string summary =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(r.attempted) +
      ", \"failed\": " + std::to_string(r.failed) +
      ", \"metrics\": " + metrics_json(shown) + "}";
  const std::string full =
      "{\"workload\": " + json_string(r.workload) +
      ", \"context\": " + context_json(opt, r, filesystem) +
      ", \"correct\": " + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(r.attempted) +
      ", \"failed\": " + std::to_string(r.failed) +
      ", \"failed_checks\": " + checks +
      ", \"end_to_end\": " + metrics_json(r.e2e) +
      ", \"per_layer\": " + metrics_json(r.layer) +
      ", \"detail\": " + detail + "}";

  if (!opt.out_dir.empty()) {
    std::filesystem::create_directories(opt.out_dir);
    const std::string stem = opt.out_dir + "/" + r.workload + "-seed" +
                             std::to_string(opt.seed) +
                             (opt.trace ? "-trace" : "");
    std::ofstream(stem + ".json") << full << "\n";
    if (tracer) {
      std::ofstream spans(stem + "-spans.jsonl");
      tracer->write_jsonl(spans);
    }
  }
  std::printf("%s\n%s\n", full.c_str(), summary.c_str());
  return correct ? 0 : 1;
}
