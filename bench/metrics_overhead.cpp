// Observability overhead: what does nxd::obs instrumentation cost?
//
// Two questions decide whether the registry may stay bound on hot paths:
//
//   * end-to-end — one seeded NXDomain stream is ingested into a plain
//     PassiveDnsStore and into one bound to a MetricsRegistry; the relative
//     wall-clock difference is the real-world tax on the hottest loop in the
//     repo (target: < 3%);
//   * per-update — the p99 latency of a single Counter::inc(), measured as
//     per-op time over many small batches so one clock read is amortised
//     across a batch instead of polluting every sample (target: < 100 ns);
//   * span tracing — the same ingest loop wrapped in a per-observation
//     trace_root/end pair at sampling 0, 0.01, and 1.0, against a no-tracer
//     baseline.  The deployable configuration is 1% sampling: its overhead
//     must stay under 5% of ingest throughput or the binary fails.
//
// Every ingest configuration is one arm of the same paired comparison: each
// rep runs all arms back to back, and an overhead is the median of the
// per-rep differences against its base arm (plain ingest for the registry,
// registry-bound ingest for the span arms).  Exit code 1 when any target is
// missed, matching the other bench binaries' convention.
//
// Usage: metrics_overhead [--scale=1e-6] [--seed=42] [--json=BENCH_obs.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pdns/store.hpp"
#include "synth/scale_models.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string fixed(double v, int places) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", places, v);
  return buf;
}

constexpr int kIngestReps = 5;
constexpr std::size_t kLatencyBatches = 10'000;
constexpr std::size_t kLatencyBatchSize = 1'000;
constexpr double kMaxOverheadPct = 3.0;
constexpr double kMaxP99Ns = 100.0;
constexpr double kMaxSpanOverheadPct = 5.0;  // at the deployable 1% sampling

/// One configuration of the ingest loop.  Every arm's overhead is a paired
/// comparison against its `base` arm, rep by rep.
struct IngestArm {
  const char* label;
  bool registry;        // bind the store to a fresh MetricsRegistry
  double sample_rate;   // wrap each observation in trace_root/end; < 0 = no tracer
  std::size_t base;     // index of an earlier arm this one is compared against
  double best_seconds = 0;
  double overhead_pct = 0;  // median of per-rep paired overheads vs base
};

/// One timed serial ingest of `observations` in `arm`'s configuration.
double ingest_once(const std::vector<nxd::pdns::Observation>& observations,
                   const IngestArm& arm) {
  nxd::obs::MetricsRegistry registry;
  nxd::pdns::PassiveDnsStore store;
  if (arm.registry) store.bind_metrics(registry);
  std::unique_ptr<nxd::obs::SpanTracer> tracer;
  if (arm.sample_rate >= 0) {
    nxd::obs::SpanTracer::Config config;
    config.sample_rate = arm.sample_rate;
    config.seed = 42;
    config.capacity = 4096;
    tracer = std::make_unique<nxd::obs::SpanTracer>(config);
    tracer->bind_metrics(registry);
  }
  const auto start = Clock::now();
  std::int64_t key = 0;
  if (tracer != nullptr) {
    for (const auto& obs : observations) {
      const auto root = tracer->trace_root(
          static_cast<std::uint64_t>(key), "ingest", key);
      store.ingest(obs);
      tracer->end(root, key + 1);
      ++key;
    }
  } else {
    for (const auto& obs : observations) store.ingest(obs);
  }
  return seconds_since(start);
}

/// Each rep runs every arm back to back, yielding one paired overhead
/// sample per arm per rep; the reported figure is the median of those.
/// Comparing independent best-of-N times is not stable on a shared machine —
/// load epochs longer than one rep make arms race different conditions and
/// swing a gate by several points run to run.
void run_arms(const std::vector<nxd::pdns::Observation>& observations,
              std::vector<IngestArm>* arms) {
  std::vector<std::vector<double>> overheads(arms->size());
  for (int rep = 0; rep < kIngestReps; ++rep) {
    std::vector<double> seconds(arms->size());
    for (std::size_t a = 0; a < arms->size(); ++a) {
      IngestArm& arm = (*arms)[a];
      seconds[a] = ingest_once(observations, arm);
      if (rep == 0 || seconds[a] < arm.best_seconds) {
        arm.best_seconds = seconds[a];
      }
      const double base = seconds[arm.base];
      if (a != arm.base && base > 0) {
        overheads[a].push_back((seconds[a] - base) / base * 100.0);
      }
    }
  }
  for (std::size_t a = 0; a < arms->size(); ++a) {
    auto& samples = overheads[a];
    if (samples.empty()) continue;
    std::sort(samples.begin(), samples.end());
    (*arms)[a].overhead_pct = samples[samples.size() / 2];
  }
}

struct LatencyResult {
  double p50_ns = 0;
  double p99_ns = 0;
  double max_ns = 0;
};

/// Per-op Counter::inc() latency: one clock read per kLatencyBatchSize-op
/// batch, percentile over the per-batch means.
LatencyResult counter_latency() {
  nxd::obs::MetricsRegistry registry;
  nxd::obs::Counter counter =
      registry.counter("nxd_bench_updates_total", "latency probe");
  std::vector<double> per_op_ns;
  per_op_ns.reserve(kLatencyBatches);
  for (std::size_t b = 0; b < kLatencyBatches; ++b) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kLatencyBatchSize; ++i) counter.inc();
    per_op_ns.push_back(seconds_since(start) * 1e9 /
                        static_cast<double>(kLatencyBatchSize));
  }
  std::sort(per_op_ns.begin(), per_op_ns.end());
  LatencyResult r;
  r.p50_ns = per_op_ns[per_op_ns.size() / 2];
  r.p99_ns = per_op_ns[per_op_ns.size() * 99 / 100];
  r.max_ns = per_op_ns.back();
  // The handle must actually have counted, or the loop was dead-code
  // eliminated and the numbers are fiction.
  if (counter.value() != kLatencyBatches * kLatencyBatchSize) {
    std::fprintf(stderr, "latency probe lost updates\n");
    std::exit(2);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1e-6;
  std::uint64_t seed = 42;
  std::string json_path = "BENCH_obs.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) scale = std::atof(argv[i] + 8);
    if (std::strncmp(argv[i], "--seed=", 7) == 0) seed = std::strtoull(argv[i] + 7, nullptr, 10);
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  using namespace nxd;

  std::printf("=== metrics overhead: instrumented vs plain ingest (scale=%g seed=%llu) ===\n",
              scale, static_cast<unsigned long long>(seed));

  synth::HistoryStreamConfig history;
  history.scale = scale;
  history.seed = seed;
  history.ok_fraction = 0.05;
  history.servfail_fraction = 0.02;
  const synth::NxHistoryStream stream(history);
  const auto observations = stream.all();
  std::printf("stream: %s observations (%d paired reps per config)\n\n",
              util::with_commas(static_cast<std::uint64_t>(observations.size())).c_str(),
              kIngestReps);

  const LatencyResult latency = counter_latency();

  std::vector<IngestArm> arms = {{"plain", false, -1.0, 0},
                                 {"registry, no tracer", true, -1.0, 0},
                                 {"sampling 0.0", true, 0.0, 1},
                                 {"sampling 0.01", true, 0.01, 1},
                                 {"sampling 1.0", true, 1.0, 1}};
  run_arms(observations, &arms);
  const double plain_seconds = arms[0].best_seconds;
  const double instrumented_seconds = arms[1].best_seconds;
  const double overhead_pct = arms[1].overhead_pct;
  const double span_base = instrumented_seconds;
  const double span_0pct = arms[2].overhead_pct;
  const double span_1pct = arms[3].overhead_pct;
  const double span_100pct = arms[4].overhead_pct;
  const bool span_ok = span_1pct < kMaxSpanOverheadPct;

  util::Table table({"measurement", "value", "target", "status"});
  table.add_row({"plain ingest", fixed(plain_seconds, 3) + " s", "-", "baseline"});
  table.add_row({"instrumented ingest", fixed(instrumented_seconds, 3) + " s", "-", "-"});
  const bool overhead_ok = overhead_pct < kMaxOverheadPct;
  table.add_row({"ingest overhead", fixed(overhead_pct, 2) + " %",
                 "< " + fixed(kMaxOverheadPct, 1) + " %",
                 overhead_ok ? "ok" : "EXCEEDED"});
  table.add_row({"counter inc p50", fixed(latency.p50_ns, 1) + " ns", "-", "-"});
  const bool p99_ok = latency.p99_ns < kMaxP99Ns;
  table.add_row({"counter inc p99", fixed(latency.p99_ns, 1) + " ns",
                 "< " + fixed(kMaxP99Ns, 0) + " ns", p99_ok ? "ok" : "EXCEEDED"});
  table.add_row({"counter inc max batch", fixed(latency.max_ns, 1) + " ns", "-", "-"});
  table.add_row({"span arm: no tracer", fixed(span_base, 3) + " s", "-",
                 "baseline"});
  table.add_row({"span overhead @ 0.0", fixed(span_0pct, 2) + " %",
                 "-", "-"});
  table.add_row({"span overhead @ 0.01", fixed(span_1pct, 2) + " %",
                 "< " + fixed(kMaxSpanOverheadPct, 1) + " %",
                 span_ok ? "ok" : "EXCEEDED"});
  table.add_row({"span overhead @ 1.0", fixed(span_100pct, 2) + " %",
                 "-", "-"});
  table.render(std::cout);

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"metrics_overhead\",\n");
    std::fprintf(f, "  \"scale\": %g,\n  \"seed\": %llu,\n", scale,
                 static_cast<unsigned long long>(seed));
    std::fprintf(f, "  \"observations\": %llu,\n",
                 static_cast<unsigned long long>(observations.size()));
    std::fprintf(f, "  \"plain_ingest_seconds\": %.6f,\n", plain_seconds);
    std::fprintf(f, "  \"instrumented_ingest_seconds\": %.6f,\n",
                 instrumented_seconds);
    std::fprintf(f, "  \"ingest_overhead_pct\": %.3f,\n", overhead_pct);
    std::fprintf(f, "  \"ingest_overhead_target_pct\": %.1f,\n", kMaxOverheadPct);
    std::fprintf(f, "  \"counter_inc_p50_ns\": %.2f,\n", latency.p50_ns);
    std::fprintf(f, "  \"counter_inc_p99_ns\": %.2f,\n", latency.p99_ns);
    std::fprintf(f, "  \"counter_inc_p99_target_ns\": %.1f,\n", kMaxP99Ns);
    std::fprintf(f, "  \"span_baseline_seconds\": %.6f,\n", span_base);
    std::fprintf(f, "  \"span_overhead_rate0_pct\": %.3f,\n", span_0pct);
    std::fprintf(f, "  \"span_overhead_rate1pct_pct\": %.3f,\n", span_1pct);
    std::fprintf(f, "  \"span_overhead_rate100_pct\": %.3f,\n",
                 span_100pct);
    std::fprintf(f, "  \"span_overhead_rate1pct_target_pct\": %.1f,\n",
                 kMaxSpanOverheadPct);
    std::fprintf(f, "  \"within_targets\": %s\n",
                 overhead_ok && p99_ok && span_ok ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (!span_ok) {
    std::fprintf(stderr,
                 "span tracing at 1%% sampling costs %.2f%% of ingest "
                 "throughput (budget %.1f%%)\n",
                 span_1pct, kMaxSpanOverheadPct);
  }
  return overhead_ok && p99_ok && span_ok ? 0 : 1;
}
