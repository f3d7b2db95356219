// nx_pipeline: the whole paper in one run, at laptop scale.
//
//   §4  Scale   — fill a passive-DNS store with the 2014-2022 NXDomain
//                 stream, report totals, monthly trend, TLD mix.
//   §5  Origin  — build an expired+never-registered corpus, join WHOIS,
//                 run DGA/squat/blocklist analyses.
//   §6  Security— generate honeypot traffic for the 19 Table-1 domains,
//                 filter, categorize, and run the botnet forensics.
//
// Build & run:  ./build/examples/nx_pipeline [--scale=0.002] [--seed=42]
//               [--report=<path.md>]   write a Markdown report of the run
//               [--threads=8]
//                   sharded §4 ingest: generate the 2014-2022 stream with a
//                   partitionable seeded model, hash-partition it across N
//                   store shards ingested by N workers, and fold the shards
//                   into one store (byte-identical to serial ingest)
//               [--loss=0.1] [--chaos-seed=7]
//                   chaos run: resolve a query stream through a SimNetwork
//                   with that much injected packet loss (plus corruption and
//                   duplication at half/quarter the rate) and report how the
//                   retry policy separates failure noise from real NXDomains
//               [--durable=<dir>]
//                   crash-safe §4 ingest: batches are WAL-appended + fsynced
//                   into <dir> before they count, and the run ends with a
//                   checksummed checkpoint.  Re-running after a kill recovers
//                   the committed prefix (see also: nxdtool recover/fsck).
//                   Combines with --threads=N for sharded durable ingest.
//               [--max-conns=64] [--rate-limit=2] [--drain-ms=4000]
//                   overload run: replay a seeded flood + slowloris barrage
//                   against a honeypot guarded by the overload layer
//                   (honeypot/overload.hpp) with that connection cap, per-IP
//                   request rate, and drain grace, then print the gate and
//                   recorder counters as an "nxd-metrics v1" snapshot (pipe
//                   it to a file for `nxdtool health` or `nxdtool metrics`).
//                   Any of the three flags enables the section; the default
//                   run is untouched.
//               [--metrics-every=N] [--metrics-out=<path>]
//                   observability run: every module shares one obs
//                   registry.  --metrics-every=N prints a live Prometheus
//                   snapshot every N ingest batches of the §4 batched paths
//                   (--durable / --threads>1) and once after the run;
//                   --metrics-out writes the final snapshot in the
//                   "nxd-metrics v1" text format (`nxdtool metrics <file>`
//                   re-renders it).  Both default off — the default run's
//                   output is byte-identical to a build without them.
//                   Per-query events are exported with --spans= (below).
//               [--chaos-upstream=<flap|outage|slow>] [--chaos-seed=7]
//                   upstream-health demo: resolve a query stream against a
//                   three-replica authoritative farm whose primary flaps,
//                   blackholes, or slow-drips, with the adaptive health
//                   model (SRTT selection, circuit breakers, hedged
//                   queries) enabled.  Prints the rcode mix, breaker/hedge
//                   stats, and the per-upstream health table.  Seeded and
//                   byte-reproducible; the default run is untouched.  See
//                   bench/upstream_resilience for the regression-tracked
//                   version (BENCH_health.json).
//               [--attack=<nxns|torture|torture-dga|cname>]
//                   adversarial demo: run that src/attack generator against
//                   the resolver under the full defense-ablation ladder
//                   (undefended, each defense alone, all together) and print
//                   goodput + upstream amplification per posture.  Replaces
//                   the normal pipeline run; see bench/attack_resilience for
//                   the regression-tracked version (BENCH_attack.json).
//               [--slo-report] [--spans=<path.jsonl>] [--timeseries=<path>]
//                   streaming-telemetry layer.  Any of the three runs the
//                   instrumented path: per-query causal spans (sampling 1.0,
//                   tracer seed = --seed) plus a windowed time series pumped
//                   from the shared registry.  --slo-report prints the
//                   end-of-run SLO burn-rate + NXDomain-anomaly summary and
//                   the span critical-path table; --spans / --timeseries
//                   write the raw exports (`nxdtool spans|slo|top` re-read
//                   them).  Combined with --attack the instrumented run is a
//                   seeded warmup+flood demo whose flood windows the anomaly
//                   detector must flag; with the normal pipeline the chaos
//                   section (--loss) provides the sim-time traffic.  All
//                   three flags off: output byte-identical to before.
//
// Any other argument is an error: the run exits 2 naming it on stderr.  So
// is a numeric flag whose whole value is not a number of its type (a
// negative count included), and a --threads outside [1, 256], the shard
// limit.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <iostream>

#include <fstream>
#include <memory>
#include <span>

#include "analysis/origin.hpp"
#include "attack/cname_bomb.hpp"
#include "attack/harness.hpp"
#include "attack/nxns.hpp"
#include "attack/water_torture.hpp"
#include "analysis/report.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "honeypot/server.hpp"
#include "analysis/scale.hpp"
#include "analysis/security.hpp"
#include "pdns/durable_store.hpp"
#include "pdns/observation.hpp"
#include "pdns/sharded_store.hpp"
#include "pdns/sie_channel.hpp"
#include "resolver/health.hpp"
#include "resolver/hierarchy.hpp"
#include "resolver/recursive.hpp"
#include "synth/origin_model.hpp"
#include "synth/scale_models.hpp"
#include "synth/traffic_model.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace nxd;

namespace {

/// Strict numeric flag value: true when the whole of `text` parses as a T.
template <typename T>
bool parse_number(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc{} && ptr == end;
}

/// End-of-run telemetry: replay the time series through the anomaly
/// detector at its window cadence, evaluate the SLO monitor at the last
/// sample, print both plus the span critical path (when `print`), and write
/// the raw exports for the `nxdtool spans` / `slo` / `top` subcommands.
void emit_telemetry(const obs::SpanTracer& spans,
                    const obs::TimeSeriesStore& ts, bool print,
                    const std::string& spans_path,
                    const std::string& timeseries_path) {
  if (print) {
    std::printf("\n=== telemetry: SLO burn-rate + NXDomain anomaly ===\n");
    if (ts.samples().empty()) {
      std::printf("(no time-series samples: combine --slo-report with "
                  "--attack or --loss)\n");
    } else {
      obs::NxAnomalyDetector detector;
      const util::SimTime first = ts.samples().front().t;
      const util::SimTime last = ts.last_time();
      const util::SimTime step = detector.config().window;
      for (util::SimTime t = first + step; t < last; t += step) {
        detector.observe(ts, t);
      }
      detector.observe(ts, last);
      obs::SloMonitor monitor;
      std::fputs(monitor.evaluate(ts, last).to_text().c_str(), stdout);
      std::fputs(detector.to_text().c_str(), stdout);
    }
    if (const auto report = obs::aggregate_spans(spans.finished());
        report.traces > 0) {
      std::printf("\n=== telemetry: span critical path ===\n");
      std::fputs(report.to_text().c_str(), stdout);
    }
  }
  if (!spans_path.empty()) {
    std::ofstream out(spans_path, std::ios::binary);
    out << spans.to_jsonl();
    std::printf("span export written to %s (%llu spans, %llu dropped; "
                "render with `nxdtool spans %s`)\n",
                spans_path.c_str(),
                static_cast<unsigned long long>(spans.spans_recorded()),
                static_cast<unsigned long long>(spans.spans_dropped()),
                spans_path.c_str());
  }
  if (!timeseries_path.empty()) {
    std::ofstream out(timeseries_path, std::ios::binary);
    out << ts.to_text();
    std::printf("time series written to %s (%zu samples; replay with "
                "`nxdtool slo %s`)\n",
                timeseries_path.c_str(), ts.samples().size(),
                timeseries_path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.002;
  std::uint64_t seed = 42;
  double loss = 0;
  std::uint64_t chaos_seed = 7;
  std::size_t threads = 1;
  std::string report_path;
  std::string durable_dir;
  std::size_t max_conns = 64;
  double rate_limit = 2;
  std::int64_t drain_ms = 4'000;
  bool overload_run = false;
  std::uint64_t metrics_every = 0;
  std::string metrics_out;
  std::string attack_mode;
  std::string chaos_upstream;
  bool slo_report = false;
  std::string spans_path;
  std::string timeseries_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    // Value of `--name=` flags, nullptr when `arg` is a different flag.
    const auto value = [arg](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    const char* v = nullptr;
    bool parsed = true;
    if ((v = value("--scale="))) {
      parsed = parse_number(v, scale);
    } else if ((v = value("--seed="))) {
      parsed = parse_number(v, seed);
    } else if ((v = value("--loss="))) {
      parsed = parse_number(v, loss);
    } else if ((v = value("--chaos-seed="))) {
      parsed = parse_number(v, chaos_seed);
    } else if ((v = value("--threads="))) {
      parsed = parse_number(v, threads) && threads >= 1 &&
               threads <= pdns::ShardedStore::kMaxShards;
    } else if ((v = value("--report="))) {
      report_path = v;
    } else if ((v = value("--durable="))) {
      durable_dir = v;
    } else if ((v = value("--max-conns="))) {
      parsed = parse_number(v, max_conns);
      overload_run = true;
    } else if ((v = value("--rate-limit="))) {
      parsed = parse_number(v, rate_limit);
      overload_run = true;
    } else if ((v = value("--drain-ms="))) {
      parsed = parse_number(v, drain_ms);
      overload_run = true;
    } else if ((v = value("--metrics-every="))) {
      parsed = parse_number(v, metrics_every);
    } else if ((v = value("--metrics-out="))) {
      metrics_out = v;
    } else if ((v = value("--attack="))) {
      attack_mode = v;
    } else if (std::strcmp(arg, "--slo-report") == 0) {
      slo_report = true;
    } else if ((v = value("--spans="))) {
      spans_path = v;
    } else if ((v = value("--timeseries="))) {
      timeseries_path = v;
    } else if ((v = value("--chaos-upstream="))) {
      chaos_upstream = v;
    } else {
      std::fprintf(stderr, "nx_pipeline: unknown flag: %s\n", arg);
      return 2;
    }
    if (!parsed) {
      std::fprintf(stderr, "nx_pipeline: bad value: %s\n", arg);
      return 2;
    }
  }

  // ---------------------------------------------------------------- attack
  // Adversarial demo mode: one generator through the whole ablation ladder.
  if (!attack_mode.empty()) {
    std::unique_ptr<attack::AttackGenerator> generator;
    if (attack_mode == "nxns") {
      attack::NxnsConfig config;
      config.seed = seed;
      generator = std::make_unique<attack::NxnsAttack>(config);
    } else if (attack_mode == "torture" || attack_mode == "torture-dga") {
      attack::WaterTortureConfig config;
      config.seed = seed;
      config.dga_shaped = attack_mode == "torture-dga";
      generator = std::make_unique<attack::WaterTortureAttack>(config);
    } else if (attack_mode == "cname") {
      attack::CnameBombConfig config;
      config.seed = seed;
      generator = std::make_unique<attack::CnameBombAttack>(config);
    } else {
      std::fprintf(stderr,
                   "unknown --attack=%s (want nxns|torture|torture-dga|cname)\n",
                   attack_mode.c_str());
      return 2;
    }

    std::printf("=== adversarial demo: %s attack vs the defense ladder "
                "(seed %llu) ===\n\n",
                generator->name().c_str(),
                static_cast<unsigned long long>(seed));
    attack::HarnessConfig harness_config;
    harness_config.seed = seed;
    harness_config.attack_queries = 600;
    attack::AttackHarness harness(harness_config);
    std::printf("%-12s %12s %12s %12s %10s %9s\n", "plan", "upstream",
                "amplif.", "goodput", "capped", "spurious");
    for (const auto& plan : attack::DefensePlan::ablation()) {
      const auto report = harness.run(*generator, plan);
      std::printf("%-12s %12llu %12.2f %12.2f %10llu %9llu\n",
                  report.plan.c_str(),
                  static_cast<unsigned long long>(report.upstream_sends),
                  report.amplification(), report.goodput(),
                  static_cast<unsigned long long>(
                      report.resolver_stats.delegation_capped +
                      report.resolver_stats.cname_capped),
                  static_cast<unsigned long long>(
                      report.legit_spurious_nxdomain));
    }
    std::printf(
        "\namplification = upstream packets per attack query; goodput = "
        "legit answers per 1000 capacity units\n(upstream send costs %.0fx a "
        "client query).  'spurious' legit-name NXDomains must stay 0.\n",
        attack::AttackRunReport::kUpstreamCost);

    // Instrumented telemetry run: legit-only warmup (quiet baseline windows
    // for the anomaly detector), then the flood against the undefended
    // posture, all under full span sampling.  Seeded and byte-reproducible.
    if (slo_report || !spans_path.empty() || !timeseries_path.empty()) {
      obs::MetricsRegistry registry;
      obs::SpanTracer::Config span_config;
      span_config.seed = seed;
      span_config.capacity = 1 << 16;
      obs::SpanTracer spans(span_config);
      // Deep enough retention to keep the quiet warmup windows resident for
      // the whole delayed flood (the anomaly baseline lives there).
      obs::TimeSeriesStore::Config ts_config;
      ts_config.retention = 1024;
      obs::TimeSeriesStore ts(ts_config);

      attack::HarnessConfig telemetry_config;
      telemetry_config.seed = seed;
      telemetry_config.attack_queries = 600;
      telemetry_config.warmup_queries = 600;
      telemetry_config.query_spacing = 1;
      telemetry_config.registry = &registry;
      telemetry_config.spans = &spans;
      telemetry_config.timeseries = &ts;
      // Seeded 1-3 s wire delay on every packet, so per-stage span durations
      // (and the latency SLO) measure something real.
      net::FaultSpec delay_spec;
      delay_spec.delay = 1.0;
      net::FaultPlan delay_plan(seed);
      delay_plan.set_default(delay_spec);
      telemetry_config.fault_plan = std::move(delay_plan);
      attack::AttackHarness instrumented(telemetry_config);

      std::printf("\n=== telemetry: instrumented warmup + %s flood "
                  "(undefended, seed %llu) ===\n",
                  generator->name().c_str(),
                  static_cast<unsigned long long>(seed));
      const auto flood =
          instrumented.run(*generator, attack::DefensePlan::undefended());
      std::printf("%d-query legit warmup, then %llu attack + %llu legit "
                  "queries; %zu time-series samples over %lld sim seconds\n",
                  telemetry_config.warmup_queries,
                  static_cast<unsigned long long>(flood.attack_queries),
                  static_cast<unsigned long long>(flood.legit_queries),
                  ts.samples().size(),
                  static_cast<long long>(ts.last_time()));
      emit_telemetry(spans, ts, slo_report, spans_path, timeseries_path);
    }
    return 0;
  }

  // One registry + span tracer shared by every instrumented module; with all
  // the flags off nothing binds to them and the run's output is untouched.
  const bool telemetry_enabled =
      slo_report || !spans_path.empty() || !timeseries_path.empty();
  const bool obs_enabled =
      metrics_every > 0 || !metrics_out.empty() || telemetry_enabled;
  obs::MetricsRegistry registry;
  obs::SpanTracer::Config span_config;
  span_config.seed = seed;
  span_config.capacity = 1 << 16;
  obs::SpanTracer spans(span_config);
  obs::TimeSeriesStore timeseries;
  const auto emit_metrics = [&registry](const char* label) {
    std::printf("# --- metrics: %s ---\n", label);
    std::fputs(obs::render_prometheus(registry).c_str(), stdout);
  };

  // ---------------------------------------------------------------- §4
  std::printf("=== §4 scale: passive-DNS NXDomain stream (2014-2022) ===\n");
  pdns::PassiveDnsStore store;
  if (!durable_dir.empty()) {
    // Crash-safe path: batches are pipelined into the group-commit WAL
    // writer (one fsync covers every batch riding the same group), delta
    // checkpoints run in the background, and the run ends with a forced
    // compaction, so a kill at any point loses only unacked batches.
    // Opening an existing directory recovers the previous run's committed
    // prefix first, and the run resumes after it: the stream is the same
    // for the same seed, so the recovered batches are not submitted again.
    synth::HistoryStreamConfig history;
    history.scale = 5e-9;
    history.seed = seed;
    const synth::NxHistoryStream stream(history);
    util::WorkerPool pool(threads > 1 ? threads : 0);
    const auto observations =
        threads > 1 ? stream.all_parallel(pool) : stream.all();

    pdns::DurableStore::Config durable_config;
    durable_config.shard_count = threads;
    durable_config.delta_every_batches = 8;  // background delta checkpoints
    auto durable = pdns::DurableStore::open(durable_dir, durable_config);
    if (!durable) {
      std::fprintf(stderr, "nx_pipeline: cannot open durable dir %s\n",
                   durable_dir.c_str());
      return 1;
    }
    if (obs_enabled) durable->bind_metrics(registry);
    if (telemetry_enabled) durable->trace_spans(&spans);
    const auto& recovery = durable->recovery();
    if (recovery.snapshot_loaded || recovery.replayed_batches > 0) {
      std::printf("(durable: recovered %llu checkpointed + %llu WAL batches"
                  "%s from %s)\n",
                  static_cast<unsigned long long>(recovery.snapshot_batches),
                  static_cast<unsigned long long>(recovery.replayed_batches),
                  recovery.wal_tail_truncated ? ", torn tail truncated" : "",
                  durable_dir.c_str());
    }
    constexpr std::size_t kBatch = 10'000;
    const std::uint64_t recovered = durable->committed_batches();
    std::uint64_t batch_no = 0;
    for (std::size_t at = 0; at < observations.size(); at += kBatch) {
      if (at / kBatch < recovered) continue;
      const auto n = std::min(kBatch, observations.size() - at);
      // Encode once at the edge; submit_frame pipelines: the WAL writer
      // coalesces whatever queues up while the previous group's fsync is in
      // flight.
      durable->submit_frame(
          pdns::encode_batch_frame(std::span(observations).subspan(at, n)));
      if (metrics_every > 0 && ++batch_no % metrics_every == 0) {
        emit_metrics(("after batch " + std::to_string(batch_no)).c_str());
      }
    }
    if (!durable->wait_durable()) {
      std::fprintf(stderr, "nx_pipeline: durable ingest failed\n");
      return 1;
    }
    if (!durable->checkpoint()) {  // forced compaction: fresh full base
      std::fprintf(stderr, "nx_pipeline: checkpoint failed\n");
      return 1;
    }
    store = durable->materialize();
    const auto stages = durable->stage_stats();
    std::printf("(durable ingest: %llu batches in %llu commit groups to %s, "
                "%llu checkpoints [%llu deltas, %llu compactions], "
                "%s observations)\n",
                static_cast<unsigned long long>(durable->committed_batches()),
                static_cast<unsigned long long>(stages.groups),
                durable_dir.c_str(),
                static_cast<unsigned long long>(durable->checkpoints_taken()),
                static_cast<unsigned long long>(stages.deltas_written),
                static_cast<unsigned long long>(stages.compactions),
                util::with_commas(store.total_observations()).c_str());
  } else if (threads > 1) {
    // Sharded path: partitionable stream generation, hash-partitioned
    // lock-free ingest (one worker per shard), deterministic fold.
    synth::HistoryStreamConfig history;
    history.scale = 5e-9;
    history.seed = seed;
    const synth::NxHistoryStream stream(history);
    util::WorkerPool pool(threads);
    const auto observations = stream.all_parallel(pool);
    pdns::ShardedStore sharded(threads);
    if (obs_enabled) sharded.bind_metrics(registry);
    // One SIE frame per 10k observations, encoded at the edge; each shard
    // still sees its observations in stream order, so the merged store is
    // independent of the frame split.
    constexpr std::size_t kBatch = 10'000;
    std::uint64_t batch_no = 0;
    for (std::size_t at = 0; at < observations.size(); at += kBatch) {
      const auto n = std::min(kBatch, observations.size() - at);
      const auto frame =
          pdns::encode_batch_frame(std::span(observations).subspan(at, n));
      const std::span<const std::uint8_t> frames[] = {frame};
      sharded.ingest_frames(frames, pool);
      if (metrics_every > 0 && ++batch_no % metrics_every == 0) {
        emit_metrics(("after batch " + std::to_string(batch_no)).c_str());
      }
    }
    store = sharded.merge();
    std::printf("(sharded ingest: %zu workers over %zu shards, %s observations)\n",
                threads, sharded.shard_count(),
                util::with_commas(store.total_observations()).c_str());
  } else {
    if (obs_enabled) store.bind_metrics(registry);
    synth::fill_store_with_history(store, 5e-9, seed);
  }
  const analysis::ScaleAnalysis scale_analysis(store);
  const auto summary = scale_analysis.summary();
  std::printf("NX responses: %s   distinct NXDomains: %s   (%.1f responses/name)\n",
              util::with_commas(summary.nx_responses).c_str(),
              util::with_commas(summary.distinct_nxdomains).c_str(),
              summary.responses_per_nxdomain);
  std::printf("yearly avg NX responses per month (scaled):\n");
  for (const auto& [year, avg] : scale_analysis.yearly_monthly_average()) {
    std::printf("  %d  %8.0f  %s\n", year, avg,
                std::string(static_cast<std::size_t>(avg / 40), '#').c_str());
  }
  std::printf("top TLDs by distinct NXDomains:\n");
  for (const auto& row : scale_analysis.top_tlds(5)) {
    std::printf("  .%-5s names=%-7s queries=%s\n", row.tld.c_str(),
                util::with_commas(row.distinct_nxdomains).c_str(),
                util::with_commas(row.nx_queries).c_str());
  }

  // ---------------------------------------------------------------- §5
  std::printf("\n=== §5 origin: WHOIS join + DGA + squatting + blocklist ===\n");
  synth::OriginCorpusConfig corpus_config;
  corpus_config.seed = seed;
  corpus_config.expired_count = 20'000;
  const auto corpus = synth::build_origin_corpus(corpus_config);

  const auto classifier = synth::trained_dga_classifier();
  const auto detector = squat::SquatDetector::with_defaults();
  const analysis::OriginAnalysis origin(corpus.whois_db, classifier, detector,
                                        corpus.blocklist);
  const auto report = origin.run(corpus.all_names);
  std::printf("NXDomains: %s   expired (WHOIS history): %s (%.2f%%)\n",
              util::with_commas(report.total_nxdomains).c_str(),
              util::with_commas(report.expired).c_str(),
              100 * report.expired_fraction);
  std::printf("DGA detected among expired: %s (%.2f%%, planted 3%%)\n",
              util::with_commas(report.dga_detected).c_str(),
              100 * report.dga_fraction_of_expired);
  std::printf("squatting domains: %s (", util::with_commas(report.squats_total).c_str());
  for (std::size_t t = 0; t < 5; ++t) {
    std::printf("%s%s=%llu", t ? " " : "",
                squat::to_string(squat::kAllSquatTypes[t]).c_str(),
                static_cast<unsigned long long>(report.squats_by_type[t]));
  }
  std::printf(")\nblocklisted: %s of %s sampled (",
              util::with_commas(report.blocklisted).c_str(),
              util::with_commas(report.blocklist_sampled).c_str());
  for (std::size_t c = 0; c < 4; ++c) {
    std::printf("%s%s=%llu", c ? " " : "",
                blocklist::to_string(blocklist::kAllCategories[c]).c_str(),
                static_cast<unsigned long long>(report.blocklisted_by_category[c]));
  }
  std::printf(")\n");

  // ---------------------------------------------------------------- §6
  std::printf("\n=== §6 security: NXD-Honeypot, 19 domains, scale %.3f ===\n", scale);
  synth::TrafficModelConfig model_config;
  model_config.seed = seed;
  model_config.scale = scale;
  const synth::HoneypotTrafficModel model(model_config);

  honeypot::TrafficRecorder no_hosting, control;
  model.fill_no_hosting_baseline(no_hosting);
  model.fill_control_group(control);
  honeypot::TrafficFilter filter;
  filter.learn_no_hosting(no_hosting);
  filter.learn_control_group(control);

  const auto vuln_db = vuln::VulnDb::with_defaults();
  honeypot::TrafficCategorizer::Config cat_config;
  cat_config.referer_verifier = [&model](const std::string& url,
                                         const std::string& domain) {
    return model.verify_referer(url, domain);
  };
  const honeypot::TrafficCategorizer categorizer(vuln_db, model.rdns(), cat_config);
  honeypot::BotnetAnalysis botnet(model.rdns());
  analysis::SecurityAnalysis security(filter, categorizer, botnet);

  std::vector<honeypot::TrafficRecord> capture;
  for (const auto& profile : synth::table1_profiles()) {
    auto records = model.generate_domain(profile);
    capture.insert(capture.end(), std::make_move_iterator(records.begin()),
                   std::make_move_iterator(records.end()));
    auto noise = model.generate_noise(profile.domain, 100);
    capture.insert(capture.end(), std::make_move_iterator(noise.begin()),
                   std::make_move_iterator(noise.end()));
  }
  const auto sec = security.run(capture);

  std::printf("filter: %s in / %s kept (%s scanner, %s establishment dropped)\n",
              util::with_commas(sec.filter.input).c_str(),
              util::with_commas(sec.filter.kept).c_str(),
              util::with_commas(sec.filter.dropped_ip_scanning).c_str(),
              util::with_commas(sec.filter.dropped_establishment).c_str());

  util::Table table({"domain", "crawler", "automated", "referral", "user", "others",
                     "total"});
  using honeypot::TrafficCategory;
  for (const auto& domain : sec.matrix.domains_by_total()) {
    const auto crawler =
        sec.matrix.at(domain, TrafficCategory::CrawlerSearchEngine) +
        sec.matrix.at(domain, TrafficCategory::CrawlerFileGrabber);
    const auto automated =
        sec.matrix.at(domain, TrafficCategory::AutoScriptSoftware) +
        sec.matrix.at(domain, TrafficCategory::AutoMaliciousRequest);
    const auto referral =
        sec.matrix.at(domain, TrafficCategory::ReferralSearchEngine) +
        sec.matrix.at(domain, TrafficCategory::ReferralEmbedded) +
        sec.matrix.at(domain, TrafficCategory::ReferralMaliciousLink);
    const auto user = sec.matrix.at(domain, TrafficCategory::UserPcMobile) +
                      sec.matrix.at(domain, TrafficCategory::UserInAppBrowser);
    table.row(domain, crawler, automated, referral, user,
              sec.matrix.at(domain, TrafficCategory::Other),
              sec.matrix.domain_total(domain));
  }
  table.render(std::cout);

  std::printf("\nbotnet takeover view (gpclick.com): %s beacons, %s victims\n",
              util::with_commas(botnet.beacons()).c_str(),
              util::with_commas(botnet.distinct_victims()).c_str());
  std::printf("  top relay hostnames:");
  for (const auto& [host, count] : botnet.by_hostname().top(3)) {
    std::printf("  %s (%s)", host.c_str(), util::pct_str(count, botnet.beacons()).c_str());
  }
  std::printf("\n  victim continents:");
  for (const auto& [continent, count] : botnet.by_continent().top(5)) {
    std::printf("  %s=%llu", continent.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("\n  in-app browsers:");
  for (const auto& [app, count] : sec.in_app_browsers.top(4)) {
    std::printf("  %s=%llu", app.c_str(), static_cast<unsigned long long>(count));
  }
  std::printf("\n");

  // ---------------------------------------------------------------- chaos
  if (loss > 0) {
    std::printf("\n=== chaos: resolver under %.0f%% injected loss (seed %llu) ===\n",
                100 * loss, static_cast<unsigned long long>(chaos_seed));
    resolver::DnsHierarchy hierarchy;
    std::vector<dns::DomainName> registered;
    for (int d = 0; d < 40; ++d) {
      const std::string tld = d % 2 ? "com" : "net";
      auto name = dns::DomainName::must("host" + std::to_string(d) + "." + tld);
      hierarchy.register_domain(name, dns::IPv4::from_octets(
                                          203, 0, 113, static_cast<std::uint8_t>(d)));
      registered.push_back(std::move(name));
    }

    net::SimNetwork network;
    net::FaultPlan plan(chaos_seed);
    net::FaultSpec spec;
    spec.drop = loss;
    spec.corrupt = loss / 2;
    spec.duplicate = loss / 4;
    plan.set_default(spec);
    network.set_fault_plan(std::move(plan));
    hierarchy.attach(network);

    resolver::RecursiveResolver resolver(hierarchy);
    resolver.use_network(network, {}, resolver::RetryPolicy{}, chaos_seed);

    pdns::PassiveDnsStore chaos_store;
    if (obs_enabled) {
      resolver.bind_metrics(registry);
      network.bind_metrics(registry);
      chaos_store.bind_metrics(registry, {{"stage", "chaos"}});
    }
    if (telemetry_enabled) resolver.trace_spans(&spans);
    resolver.set_observer([&chaos_store](const dns::Message& q,
                                         const dns::Message& r, bool,
                                         util::SimTime when) {
      chaos_store.ingest(pdns::observe(q, r, when));
    });

    util::Rng stream(chaos_seed);
    util::SimTime now = 0;
    util::SimTime next_sample = timeseries.config().window;
    std::uint16_t id = 1;
    for (int i = 0; i < 1'500; ++i, now += 2) {
      dns::DomainName name =
          stream.chance(0.5)
              ? registered[stream.bounded(registered.size())]
              : dns::DomainName::must("ghost" + std::to_string(stream.bounded(400)) +
                                      (stream.chance(0.5) ? ".com" : ".org"));
      const auto outcome =
          resolver.resolve(dns::make_query(id++, name, dns::RRType::A), now);
      now += outcome.elapsed;
      if (telemetry_enabled && now >= next_sample) {
        timeseries.observe(now, registry.snapshot());
        next_sample = now + timeseries.config().window;
      }
    }
    if (telemetry_enabled && now > timeseries.last_time()) {
      timeseries.observe(now, registry.snapshot());
    }

    const auto& rs = resolver.stats();
    const auto& fs = network.fault_stats();
    std::printf("faults injected: drops=%llu dups=%llu corruptions=%llu "
                "truncations=%llu delays=%llu\n",
                static_cast<unsigned long long>(fs.injected_drops),
                static_cast<unsigned long long>(fs.injected_duplicates),
                static_cast<unsigned long long>(fs.injected_corruptions),
                static_cast<unsigned long long>(fs.injected_truncations),
                static_cast<unsigned long long>(fs.injected_delays));
    std::printf("resolver: %llu queries, %llu cache hits, %llu upstream, "
                "%llu retries, %llu timeouts\n",
                static_cast<unsigned long long>(rs.client_queries),
                static_cast<unsigned long long>(rs.cache_hits),
                static_cast<unsigned long long>(rs.upstream_resolutions),
                static_cast<unsigned long long>(rs.retries),
                static_cast<unsigned long long>(rs.timeouts));
    std::printf("responses: %llu NXDOMAIN, %llu SERVFAIL (failure noise kept "
                "out of the NX aggregates)\n",
                static_cast<unsigned long long>(rs.nxdomain_responses),
                static_cast<unsigned long long>(rs.servfail_responses));
    std::printf("pdns store: %s observations, %s NX responses, %s distinct "
                "NXDomains, %s servfails\n",
                util::with_commas(chaos_store.total_observations()).c_str(),
                util::with_commas(chaos_store.nx_responses()).c_str(),
                util::with_commas(chaos_store.distinct_nxdomains()).c_str(),
                util::with_commas(chaos_store.servfail_responses()).c_str());
  }

  // ------------------------------------------------------- chaos-upstream
  // Adaptive upstream-health demo: one degraded replica out of three, the
  // health model steering around it.  Seeded and byte-reproducible.
  if (!chaos_upstream.empty()) {
    if (chaos_upstream != "flap" && chaos_upstream != "outage" &&
        chaos_upstream != "slow") {
      std::fprintf(stderr,
                   "unknown --chaos-upstream=%s (want flap|outage|slow)\n",
                   chaos_upstream.c_str());
      return 2;
    }
    std::printf("\n=== chaos-upstream: %s primary, adaptive health on "
                "(seed %llu) ===\n",
                chaos_upstream.c_str(),
                static_cast<unsigned long long>(chaos_seed));

    resolver::DnsHierarchy hierarchy;
    std::vector<dns::DomainName> registered;
    for (int d = 0; d < 12; ++d) {
      auto name = dns::DomainName::must("host" + std::to_string(d) + ".com");
      hierarchy.register_domain(
          name,
          dns::IPv4::from_octets(203, 0, 113, static_cast<std::uint8_t>(d)));
      registered.push_back(std::move(name));
    }
    net::SimNetwork network;
    network.set_fault_plan(net::FaultPlan(chaos_seed));
    const auto farm = resolver::HierarchyEndpoints::with_replicas(3);
    hierarchy.attach(network, farm);

    resolver::RecursiveResolver resolver(hierarchy);
    resolver.use_network(network, farm, resolver::RetryPolicy{}, chaos_seed);
    if (obs_enabled) {
      resolver.bind_metrics(registry);
      network.bind_metrics(registry);
    }
    if (telemetry_enabled) resolver.trace_spans(&spans);
    resolver::HealthConfig health;
    health.breaker.failure_threshold = 2;
    health.breaker.open_duration = 8;
    health.breaker.max_open_duration = 64;
    health.hedge_min_samples = 4;
    resolver.enable_health(health);

    const auto primary_spec = [&](int i) {
      net::FaultSpec spec;
      if (chaos_upstream == "outage" ||
          (chaos_upstream == "flap" && (i / 20) % 2 == 1)) {
        spec.drop = 1.0;
      } else if (chaos_upstream == "slow" && i >= 40) {
        spec.delay = 1.0;
        spec.delay_min = 5;
        spec.delay_max = 5;
      }
      return spec;
    };

    util::Rng stream(chaos_seed);
    std::uint16_t id = 1;
    std::uint64_t noerror = 0, nxdomain = 0, servfail = 0, spurious = 0;
    util::SimTime busy = 0;
    for (int i = 0; i < 240; ++i) {
      network.fault_plan().set_for(farm.auth, primary_spec(i));
      const bool absent = stream.chance(0.25);
      const dns::DomainName name =
          absent ? dns::DomainName::must("ghost" + std::to_string(i) + ".com")
                 : registered[stream.bounded(registered.size())];
      const auto outcome = resolver.resolve(
          dns::make_query(id++, name, dns::RRType::A), i * 10);
      busy += outcome.elapsed;
      switch (outcome.response.header.rcode) {
        case dns::RCode::NoError: ++noerror; break;
        case dns::RCode::NXDomain:
          ++nxdomain;
          if (!absent) ++spurious;
          break;
        default: ++servfail; break;
      }
      resolver.flush_cache();
    }

    const auto& rs = resolver.stats();
    const auto hs = resolver.health()->stats();
    std::printf("responses: %llu NOERROR, %llu NXDOMAIN, %llu SERVFAIL "
                "(%llu spurious NXDomains — must be 0) in %llu busy seconds\n",
                static_cast<unsigned long long>(noerror),
                static_cast<unsigned long long>(nxdomain),
                static_cast<unsigned long long>(servfail),
                static_cast<unsigned long long>(spurious),
                static_cast<unsigned long long>(busy));
    std::printf("health: %llu timeouts, %llu hedged (%llu won), breakers "
                "opened %llu / reclosed %llu, %llu probe sends, %llu "
                "breaker skips\n",
                static_cast<unsigned long long>(rs.timeouts),
                static_cast<unsigned long long>(rs.hedged_queries),
                static_cast<unsigned long long>(rs.hedge_wins),
                static_cast<unsigned long long>(hs.breaker_opened),
                static_cast<unsigned long long>(hs.breaker_reclosed),
                static_cast<unsigned long long>(hs.breaker_probes),
                static_cast<unsigned long long>(rs.breaker_skips));
    std::printf("%-18s %10s %10s %9s %7s %7s %6s\n", "upstream", "srtt_ms",
                "p95_s", "success%", "ok", "fail", "state");
    for (const auto& h : resolver.health()->snapshot()) {
      const char* state = h.breaker == util::BreakerState::Closed ? "closed"
                          : h.breaker == util::BreakerState::Open ? "open"
                                                                  : "half";
      std::printf("%-18s %10.2f %10lld %8.1f%% %7llu %7llu %6s\n",
                  h.server.to_string().c_str(), h.srtt_us / 1'000.0,
                  static_cast<long long>(h.p95), 100.0 * h.success_rate,
                  static_cast<unsigned long long>(h.successes),
                  static_cast<unsigned long long>(h.failures), state);
    }
  }

  // ------------------------------------------------------------- overload
  if (overload_run) {
    std::printf("\n=== overload: honeypot flood + slowloris (seed %llu, "
                "max-conns %zu, rate %.1f/s, drain %lld ms) ===\n",
                static_cast<unsigned long long>(seed), max_conns, rate_limit,
                static_cast<long long>(drain_ms));
    honeypot::TrafficRecorder ol_recorder;
    honeypot::NxdHoneypot::Config ol_config;
    ol_config.domain = "overload-demo.com";
    honeypot::NxdHoneypot ol_server(ol_config, ol_recorder);
    honeypot::OverloadConfig guard;
    guard.max_connections = max_conns;
    guard.per_ip_rate = rate_limit;
    guard.drain_deadline =
        std::max<util::SimTime>(1, (drain_ms + 999) / 1'000);
    ol_server.enable_overload(guard);
    obs::MetricsRegistry ol_registry;
    ol_server.gate()->bind_metrics(ol_registry);
    ol_recorder.bind_metrics(ol_registry);
    if (telemetry_enabled) ol_server.trace_spans(&spans);

    util::SimClock ol_clock;
    util::Rng flood(seed);
    const net::Endpoint ol_dst{dns::IPv4::from_octets(203, 0, 113, 10), 80};
    const std::string ol_request =
        "GET / HTTP/1.1\r\nHost: overload-demo.com\r\n\r\n";

    // Slowloris barrage: three connections per slot of capacity open a
    // header and then stall, so the cap fills and late arrivals shed 503;
    // the header deadline reaps the stalled ones.
    const std::size_t loris = max_conns != 0 ? 3 * max_conns : 96;
    for (std::size_t i = 0; i < loris; ++i) {
      const net::Endpoint src{
          dns::IPv4::from_octets(198, 51, static_cast<std::uint8_t>(i >> 8),
                                 static_cast<std::uint8_t>(i)),
          static_cast<std::uint16_t>(49'152 + i)};
      const auto opened = ol_server.conn_open(src, ol_clock.now());
      if (opened.accepted) {
        const std::string partial = "GET / HTTP/1.1\r\nHost: ";
        ol_server.conn_data(
            opened.id,
            std::span(reinterpret_cast<const std::uint8_t*>(partial.data()),
                      partial.size()),
            ol_clock.now());
      }
    }
    ol_clock.advance(guard.header_deadline + 1);
    ol_server.reap_expired(ol_clock.now());

    // One-shot request flood: a few hot sources hammer (tripping the per-IP
    // limiter), a long tail stays under it.
    for (int i = 0; i < 600; ++i) {
      const bool hot = flood.chance(0.7);
      const net::Endpoint src{
          dns::IPv4::from_octets(
              192, 0, 2,
              static_cast<std::uint8_t>(hot ? flood.bounded(3)
                                            : 16 + flood.bounded(200))),
          static_cast<std::uint16_t>(50'000 + i)};
      net::SimPacket packet;
      packet.protocol = net::Protocol::TCP;
      packet.src = src;
      packet.dst = ol_dst;
      packet.payload.assign(ol_request.begin(), ol_request.end());
      ol_server.handle_packet(packet, ol_clock.now());
      if (i % 20 == 19) ol_clock.advance(1);
    }

    // Graceful drain: a last wave is mid-request when the drain starts;
    // half finish inside the grace window, the stragglers are force-closed
    // at the drain deadline.
    std::vector<std::uint64_t> in_flight;
    for (int i = 0; i < 8; ++i) {
      const net::Endpoint src{dns::IPv4::from_octets(
                                  203, 0, 113, static_cast<std::uint8_t>(i)),
                              static_cast<std::uint16_t>(51'000 + i)};
      const auto opened = ol_server.conn_open(src, ol_clock.now());
      if (opened.accepted) in_flight.push_back(opened.id);
    }
    ol_server.begin_drain(ol_clock.now());
    for (std::size_t i = 0; i < in_flight.size(); i += 2) {
      ol_server.conn_data(
          in_flight[i],
          std::span(reinterpret_cast<const std::uint8_t*>(ol_request.data()),
                    ol_request.size()),
          ol_clock.now());
    }
    ol_clock.advance(guard.drain_deadline + 1);
    ol_server.reap_expired(ol_clock.now());

    const obs::MetricsSnapshot ol_snapshot = ol_registry.snapshot();
    std::fputs(ol_snapshot.to_text().c_str(), stdout);
    if (obs_enabled) registry.absorb(ol_snapshot);
    std::printf("(drain complete: %s)\n",
                ol_server.drain_complete() ? "yes" : "no");
  }

  if (!report_path.empty()) {
    analysis::ReportInputs inputs;
    inputs.title = "nx_pipeline run (seed " + std::to_string(seed) + ")";
    inputs.scale = &scale_analysis;
    inputs.origin = &report;
    inputs.security = &sec;
    inputs.botnet = &botnet;
    std::ofstream out(report_path);
    out << analysis::render_markdown_report(inputs);
    std::printf("report written to %s\n", report_path.c_str());
  }

  if (metrics_every > 0) emit_metrics("end of run");
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out, std::ios::binary);
    out << registry.snapshot().to_text();
    std::printf("metrics snapshot written to %s "
                "(render with `nxdtool metrics %s`)\n",
                metrics_out.c_str(), metrics_out.c_str());
  }
  if (telemetry_enabled) {
    emit_telemetry(spans, timeseries, slo_report, spans_path,
                   timeseries_path);
  }
  return 0;
}
