// nxdtool — command-line front end to the nxdlib analyzers.
//
// Subcommands:
//   dga <domain>...              classify (+ attribute) domains as DGA
//   squat <domain>...            squatting detection against the default
//                                brand list
//   idn <domain>...              punycode <-> unicode conversion and
//                                homograph unmasking
//   zone check <file> <origin>   parse an RFC 1035 zone file, report errors
//   zone dump <file> <origin>    parse and re-emit normalized master text
//   capture stats <jsonl>        categorize a capture log, print the
//                                category/port breakdown
//   resolve <domain>...          resolve against a demo hierarchy (shows
//                                NXDomain vs NOERROR and the Fig-1 trace)
//   recover <dir>                recover a durable ingest directory (WAL
//                                replay + repair + fresh checkpoint) and
//                                print stats
//   fsck <dir>                   read-only health report of a durable
//                                ingest directory
//   metrics <file>               re-render a metrics snapshot (written by
//                                nx_pipeline --metrics-out) as Prometheus
//                                exposition text — the same bytes the live
//                                GET /metrics endpoint serves
//   health <file>                summarize the resolver's upstream-health
//                                metrics from a snapshot: per-upstream SRTT
//                                gauges, breaker state transitions/probes/
//                                rejections, hedge win/loss counters, plus
//                                the honeypot connection gate's accept/shed/
//                                reap rates when the snapshot has them
//   spans <file.jsonl>           critical-path aggregation of a span export
//                                (written by nx_pipeline --spans): per-stage
//                                latency attribution + the slowest trace
//   slo <file>                   replay a time-series export (written by
//                                nx_pipeline --timeseries) through the SLO
//                                burn-rate monitor and the NXDomain anomaly
//                                detector
//   top <file> [window]          busiest counter series over the trailing
//                                window (default 60 s) of a time-series
//                                export
//
// Exit code: 0 on success, 1 on bad usage/unreadable input, 2 when a check
// subcommand found problems (e.g. zone errors, unclean durable dirs, firing
// SLO alerts / active anomalies).
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/security.hpp"
#include "dga/attribution.hpp"
#include "dga/classifier.hpp"
#include "dns/punycode.hpp"
#include "honeypot/capture_log.hpp"
#include "honeypot/categorizer.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "pdns/durable_store.hpp"
#include "resolver/recursive.hpp"
#include "resolver/zone_file.hpp"
#include "squat/detector.hpp"
#include "synth/origin_model.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace nxd;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: nxdtool <command> [args]\n"
               "  dga <domain>...             DGA classification + family attribution\n"
               "  squat <domain>...           squatting detection (default brand list)\n"
               "  idn <domain>...             punycode <-> unicode + homograph check\n"
               "  zone check <file> <origin>  validate a zone file\n"
               "  zone dump <file> <origin>   normalize a zone file to stdout\n"
               "  capture stats <file.jsonl>  categorize a honeypot capture log\n"
               "  resolve <domain>...         resolve against the demo hierarchy\n"
               "  recover <dir>               recover + compact a durable ingest dir\n"
               "  fsck <dir>                  read-only durable-dir health report\n"
               "  metrics <file>              render a metrics snapshot as Prometheus text\n"
               "  health <file>               per-upstream SRTT / breaker / hedge stats\n"
               "                              and gate accept/shed/reap rates from a\n"
               "                              metrics snapshot\n"
               "  spans <file.jsonl>          critical-path report from a span export\n"
               "  slo <file>                  SLO burn-rate + NXDomain anomaly replay of\n"
               "                              a time-series export\n"
               "  top <file> [window]         busiest counter series over the trailing\n"
               "                              window of a time-series export\n");
  return 1;
}

std::optional<std::string> read_file(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int cmd_dga(int argc, char** argv) {
  if (argc < 1) return usage();
  const auto classifier = synth::trained_dga_classifier();
  // Attribution window: ±3 days around a fixed reference (a real deployment
  // would use "today"; the tool stays deterministic).
  const auto families = dga::all_families();
  const dga::FamilyAttributor attributor(families, 19'000, 19'006, 150);

  for (int i = 0; i < argc; ++i) {
    const auto name = dns::DomainName::parse(argv[i]);
    if (!name) {
      std::printf("%-32s invalid-name\n", argv[i]);
      continue;
    }
    const auto verdict = classifier.classify(*name);
    const auto family = attributor.attribute(*name);
    std::printf("%-32s %s score=%.2f%s%s\n", argv[i],
                verdict.is_dga ? "DGA" : "benign", verdict.score,
                family ? " family=" : "",
                family ? family->family.c_str() : "");
  }
  return 0;
}

int cmd_squat(int argc, char** argv) {
  if (argc < 1) return usage();
  const auto detector = squat::SquatDetector::with_defaults();
  for (int i = 0; i < argc; ++i) {
    const auto name = dns::DomainName::parse(argv[i]);
    if (!name) {
      std::printf("%-32s invalid-name\n", argv[i]);
      continue;
    }
    if (const auto verdict = detector.classify(*name)) {
      std::printf("%-32s %s of %s\n", argv[i],
                  squat::to_string(verdict->type).c_str(),
                  verdict->target.to_string().c_str());
    } else {
      std::printf("%-32s clean\n", argv[i]);
    }
  }
  return 0;
}

int cmd_idn(int argc, char** argv) {
  if (argc < 1) return usage();
  const auto detector = squat::SquatDetector::with_defaults();
  for (int i = 0; i < argc; ++i) {
    const std::string_view input = argv[i];
    if (input.find("xn--") != std::string_view::npos) {
      const auto unicode = dns::idna_to_unicode(input);
      std::printf("%-32s unicode=%s", argv[i],
                  unicode ? unicode->c_str() : "<undecodable>");
    } else {
      const auto ascii = dns::idna_to_ascii(input);
      std::printf("%-32s ascii=%s", argv[i],
                  ascii ? ascii->c_str() : "<unencodable>");
    }
    // Homograph check on the ASCII form.
    const auto ascii = input.find("xn--") != std::string_view::npos
                           ? std::optional<std::string>(std::string(input))
                           : dns::idna_to_ascii(input);
    if (ascii) {
      if (const auto name = dns::DomainName::parse(*ascii)) {
        if (const auto verdict = detector.classify(*name)) {
          std::printf("  !! %s of %s", squat::to_string(verdict->type).c_str(),
                      verdict->target.to_string().c_str());
        }
      }
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_zone(int argc, char** argv) {
  if (argc < 3) return usage();
  const bool dump = std::strcmp(argv[0], "dump") == 0;
  if (!dump && std::strcmp(argv[0], "check") != 0) return usage();
  const auto text = read_file(argv[1]);
  if (!text) {
    std::fprintf(stderr, "nxdtool: cannot read %s\n", argv[1]);
    return 1;
  }
  const auto origin = dns::DomainName::parse(argv[2]);
  if (!origin) {
    std::fprintf(stderr, "nxdtool: bad origin '%s'\n", argv[2]);
    return 1;
  }
  const auto result = resolver::parse_zone_file(*text, *origin);
  for (const auto& error : result.errors) {
    std::fprintf(stderr, "%s:%zu: %s\n", argv[1], error.line,
                 error.message.c_str());
  }
  if (!result.zone) return 2;
  if (dump) {
    std::fputs(resolver::to_zone_file(*result.zone).c_str(), stdout);
  } else {
    std::printf("%s: OK (%zu records, origin %s)\n", argv[1], result.records,
                result.zone->origin().to_string().c_str());
  }
  return 0;
}

int cmd_capture(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[0], "stats") != 0) return usage();
  std::ifstream in(argv[1], std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "nxdtool: cannot read %s\n", argv[1]);
    return 1;
  }
  honeypot::TrafficRecorder recorder;
  const auto stats = honeypot::read_capture_log(in, recorder);
  std::printf("%s: %zu records loaded, %zu malformed lines skipped\n",
              argv[1], stats.loaded, stats.skipped_malformed);

  const net::ReverseDnsRegistry rdns;
  const auto vuln_db = vuln::VulnDb::with_defaults();
  const honeypot::TrafficCategorizer categorizer(vuln_db, rdns);
  util::Counter categories, domains;
  for (const auto& record : recorder.records()) {
    categories.add(honeypot::to_string(categorizer.categorize(record).category));
    if (!record.domain.empty()) domains.add(record.domain);
  }
  std::printf("\ncategories:\n");
  for (const auto& [category, count] : categories.top()) {
    std::printf("  %-30s %llu\n", category.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("\ntop ports:\n");
  for (const auto& [port, count] : recorder.port_counts().top(8)) {
    std::printf("  %-6s %llu\n", port.c_str(),
                static_cast<unsigned long long>(count));
  }
  if (!domains.empty()) {
    std::printf("\ntop domains:\n");
    for (const auto& [domain, count] : domains.top(8)) {
      std::printf("  %-30s %llu\n", domain.c_str(),
                  static_cast<unsigned long long>(count));
    }
  }
  return 0;
}

int cmd_resolve(int argc, char** argv) {
  if (argc < 1) return usage();
  // Demo hierarchy with a couple of registered names, so the tool shows
  // both outcomes and the Fig-1 trace.
  resolver::DnsHierarchy hierarchy;
  hierarchy.register_domain(dns::DomainName::must("example.com"),
                            *dns::IPv4::parse("93.184.216.34"));
  hierarchy.register_domain(dns::DomainName::must("example.org"),
                            *dns::IPv4::parse("93.184.216.34"));
  resolver::RecursiveResolver resolver(hierarchy);
  for (int i = 0; i < argc; ++i) {
    const auto name = dns::DomainName::parse(argv[i]);
    if (!name) {
      std::printf("%-32s invalid-name\n", argv[i]);
      continue;
    }
    resolver::IterativeTrace trace;
    const auto response =
        hierarchy.resolve_iterative(dns::make_query(1, *name), &trace);
    std::printf("%-32s %s\n", argv[i],
                dns::to_string(response.header.rcode).c_str());
    for (const auto& step : trace.steps) {
      std::printf("    [%s] %s\n", step.server_label.c_str(),
                  step.outcome.c_str());
    }
  }
  return 0;
}

int cmd_recover(int argc, char** argv) {
  if (argc != 1) return usage();
  const std::string dir = argv[0];
  if (!std::filesystem::is_directory(dir)) {
    std::fprintf(stderr, "nxdtool: not a directory: %s\n", dir.c_str());
    return 1;
  }
  auto store = pdns::DurableStore::open(dir, pdns::DurableStore::Config{});
  if (!store) {
    std::fprintf(stderr, "nxdtool: cannot recover %s\n", dir.c_str());
    return 1;
  }
  const auto& r = store->recovery();
  std::printf("recovered %s\n", dir.c_str());
  std::printf("  frontier:          %s at %llu batches (%llu deltas absorbed)\n",
              r.snapshot_loaded ? "manifest/base" : "none",
              static_cast<unsigned long long>(r.snapshot_batches),
              static_cast<unsigned long long>(r.deltas_absorbed));
  std::printf("  wal replayed:      %llu batches (%llu stale skipped)\n",
              static_cast<unsigned long long>(r.replayed_batches),
              static_cast<unsigned long long>(r.stale_batches_skipped));
  if (r.frontier_degraded) {
    std::printf("  DEGRADED:          newest manifest unusable "
                "(%llu invalid manifests, %llu corrupt chain files) — "
                "recovered through the previous frontier + longer replay\n",
                static_cast<unsigned long long>(r.invalid_manifests),
                static_cast<unsigned long long>(r.corrupt_chain_files));
  }
  if (r.wal_gap_detected) {
    std::printf("  WAL GAP:           replay stopped at a sequence gap "
                "(multi-fault damage); state is an exact shorter prefix\n");
  }
  if (r.wal_tail_truncated) {
    std::printf("  wal repaired:      %llu refused bytes removed\n",
                static_cast<unsigned long long>(r.discarded_wal_bytes));
  }
  if (r.invalid_snapshots > 0) {
    std::printf("  corrupt bases:     %llu skipped\n",
                static_cast<unsigned long long>(r.invalid_snapshots));
  }
  if (r.orphaned_chain_files > 0) {
    std::printf("  orphaned chain:    %llu files (checkpoint died before its "
                "manifest; retired at the next checkpoint)\n",
                static_cast<unsigned long long>(r.orphaned_chain_files));
  }
  if (r.removed_tmp_files > 0) {
    std::printf("  temporaries:       %llu swept\n",
                static_cast<unsigned long long>(r.removed_tmp_files));
  }
  // open() applied the one recovery rule fsck reports: it restored the
  // frontier, replayed the WAL run, and removed every WAL byte it refused.
  // Compact: fold everything into a fresh checkpoint so the next open
  // replays nothing and the chain files no manifest needs are retired.
  if (!store->checkpoint()) {
    std::fprintf(stderr, "nxdtool: checkpoint after recovery failed\n");
    return 1;
  }
  const auto recovered = store->materialize();
  std::printf("  committed:         %llu batches, %s observations\n",
              static_cast<unsigned long long>(store->committed_batches()),
              util::with_commas(recovered.total_observations()).c_str());
  std::printf("  compacted into a fresh checkpoint; dir is clean\n");
  return 0;
}

int cmd_fsck(int argc, char** argv) {
  if (argc != 1) return usage();
  const std::string dir = argv[0];
  if (!std::filesystem::is_directory(dir)) {
    std::fprintf(stderr, "nxdtool: not a directory: %s\n", dir.c_str());
    return 1;
  }
  const auto report = pdns::DurableStore::fsck(dir);
  std::printf("fsck %s\n", dir.c_str());
  std::uint64_t corrupt_manifests = 0;
  for (const auto& m : report.manifests) {
    if (!m.usable) ++corrupt_manifests;
    std::printf("  manifest   %-40s %s (frontier %llu, %llu deltas)\n",
                m.path.c_str(),
                m.usable ? "ok" : (m.decodable ? "BROKEN CHAIN" : "CORRUPT"),
                static_cast<unsigned long long>(m.frontier),
                static_cast<unsigned long long>(m.chain_deltas));
  }
  std::uint64_t corrupt_snapshots = 0;
  for (const auto& snap : report.snapshots) {
    if (!snap.valid) ++corrupt_snapshots;
    std::printf("  base image %-40s %s (%llu batches)\n", snap.path.c_str(),
                snap.valid ? "ok" : "CORRUPT",
                static_cast<unsigned long long>(snap.batches));
  }
  std::printf("  frontier: %llu batches (%llu base + %llu chain deltas)\n",
              static_cast<unsigned long long>(report.frontier),
              static_cast<unsigned long long>(report.best_snapshot_batches),
              static_cast<unsigned long long>(report.chain_deltas));
  std::printf("  wal: %llu segments, %llu records "
              "(%llu replayable, %llu stale)\n",
              static_cast<unsigned long long>(report.wal_segments),
              static_cast<unsigned long long>(report.wal_records),
              static_cast<unsigned long long>(report.replayable_batches),
              static_cast<unsigned long long>(report.stale_batches));
  if (report.wal_tail_truncated) {
    std::printf("  refused wal bytes: %llu (torn tail or past a gap; open "
                "removes them)\n",
                static_cast<unsigned long long>(report.discarded_wal_bytes));
  }
  if (report.orphaned_chain_files > 0) {
    std::printf("  orphaned chain files: %llu (no valid manifest references "
                "them)\n",
                static_cast<unsigned long long>(report.orphaned_chain_files));
  }
  if (report.tmp_files > 0) {
    std::printf("  leftover temporaries: %llu\n",
                static_cast<unsigned long long>(report.tmp_files));
  }
  std::printf("  recoverable: %llu batches (%llu frontier + %llu wal)\n",
              static_cast<unsigned long long>(report.recoverable_batches),
              static_cast<unsigned long long>(report.frontier),
              static_cast<unsigned long long>(report.replayable_batches));
  std::printf("  compaction debt: %llu (deltas to absorb + wal batches to "
              "replay at next open)\n",
              static_cast<unsigned long long>(report.compaction_debt));
  if (report.clean) {
    std::printf("  clean\n");
    return 0;
  }
  std::printf("  NOT CLEAN (%llu corrupt manifests, %llu corrupt bases"
              "%s%s%s) — run `nxdtool recover %s`\n",
              static_cast<unsigned long long>(corrupt_manifests),
              static_cast<unsigned long long>(corrupt_snapshots),
              report.wal_tail_truncated ? ", refused wal bytes" : "",
              report.orphaned_chain_files > 0 ? ", orphaned chain files" : "",
              report.tmp_files > 0 ? ", leftover temporaries" : "",
              dir.c_str());
  return 2;
}

}  // namespace

int cmd_health(int argc, char** argv) {
  if (argc != 1) return usage();
  const auto text = read_file(argv[0]);
  if (!text) {
    std::fprintf(stderr, "nxdtool: cannot read %s\n", argv[0]);
    return 1;
  }
  obs::MetricsSnapshot snapshot;
  std::string error;
  if (!obs::MetricsSnapshot::parse(*text, &snapshot, &error)) {
    std::fprintf(stderr, "nxdtool: %s is not a metrics snapshot: %s\n",
                 argv[0], error.c_str());
    return 1;
  }
  const auto counter = [&snapshot](const char* name,
                                   const obs::LabelSet& labels =
                                       {}) -> std::uint64_t {
    const auto* series = snapshot.find(name, labels);
    return series == nullptr ? 0 : series->counter;
  };

  // Per-upstream SRTT gauges (one series per consulted server).
  std::printf("%-22s %12s\n", "upstream", "srtt_ms");
  bool any = false;
  for (const auto& series : snapshot.series) {
    if (series.name != "nxd_resolver_upstream_srtt_us") continue;
    const char* server = "?";
    for (const auto& [key, text_value] : series.labels) {
      if (key == "server") server = text_value.c_str();
    }
    std::printf("%-22s %12.2f\n", server,
                static_cast<double>(series.gauge) / 1'000.0);
    any = true;
  }
  if (!any) {
    std::printf("(no nxd_resolver_upstream_srtt_us series: run with the "
                "health model enabled and bound)\n");
  }

  std::printf("\nhealth model: %llu successes, %llu failures\n",
              static_cast<unsigned long long>(
                  counter("nxd_resolver_health_successes_total")),
              static_cast<unsigned long long>(
                  counter("nxd_resolver_health_failures_total")));
  std::printf("breakers: opened %llu, half-opened %llu, reclosed %llu; "
              "%llu probes granted, %llu sends rejected, %llu candidates "
              "skipped\n",
              static_cast<unsigned long long>(counter(
                  "nxd_resolver_breaker_transitions_total", {{"to", "open"}})),
              static_cast<unsigned long long>(
                  counter("nxd_resolver_breaker_transitions_total",
                          {{"to", "half_open"}})),
              static_cast<unsigned long long>(
                  counter("nxd_resolver_breaker_transitions_total",
                          {{"to", "closed"}})),
              static_cast<unsigned long long>(
                  counter("nxd_resolver_breaker_probes_total")),
              static_cast<unsigned long long>(
                  counter("nxd_resolver_breaker_rejections_total")),
              static_cast<unsigned long long>(
                  counter("nxd_resolver_breaker_skips_total")));
  const auto hedged = counter("nxd_resolver_hedged_queries_total");
  const auto wins = counter("nxd_resolver_hedge_wins_total");
  std::printf("hedges: %llu raced, %llu won (%s), %llu lost\n",
              static_cast<unsigned long long>(hedged),
              static_cast<unsigned long long>(wins),
              util::pct_str(wins, hedged).c_str(),
              static_cast<unsigned long long>(
                  counter("nxd_resolver_hedge_losses_total")));

  // Connection-gate rates; shed and expired sum over every reason/phase.
  const auto opened = counter("nxd_honeypot_conns_opened_total");
  if (opened > 0) {
    const auto sum_of = [&snapshot](std::string_view name) {
      std::uint64_t total = 0;
      for (const auto& series : snapshot.series) {
        if (series.name == name) total += series.counter;
      }
      return total;
    };
    const auto accepted = counter("nxd_honeypot_conns_accepted_total");
    std::printf("\nconnection gate: %s opened\n",
                util::with_commas(opened).c_str());
    std::printf("  accept rate  %s\n", util::pct_str(accepted, opened).c_str());
    std::printf("  shed rate    %s\n",
                util::pct_str(sum_of("nxd_honeypot_conns_shed_total"), opened)
                    .c_str());
    std::printf("  reap rate    %s (of accepted)\n",
                util::pct_str(sum_of("nxd_honeypot_conns_expired_total"),
                              accepted)
                    .c_str());
  }
  return 0;
}

int cmd_spans(int argc, char** argv) {
  if (argc != 1) return usage();
  const auto text = read_file(argv[0]);
  if (!text) {
    std::fprintf(stderr, "nxdtool: cannot read %s\n", argv[0]);
    return 1;
  }
  std::vector<obs::SpanRecord> spans;
  std::string error;
  if (!obs::SpanTracer::parse_jsonl(*text, &spans, &error)) {
    std::fprintf(stderr, "nxdtool: %s is not a span export: %s\n", argv[0],
                 error.c_str());
    return 1;
  }
  std::fputs(obs::aggregate_spans(spans).to_text().c_str(), stdout);
  return 0;
}

int cmd_slo(int argc, char** argv) {
  if (argc != 1) return usage();
  const auto text = read_file(argv[0]);
  if (!text) {
    std::fprintf(stderr, "nxdtool: cannot read %s\n", argv[0]);
    return 1;
  }
  obs::TimeSeriesStore ts;
  std::string error;
  if (!obs::TimeSeriesStore::parse(*text, &ts, &error)) {
    std::fprintf(stderr, "nxdtool: %s is not a time-series export: %s\n",
                 argv[0], error.c_str());
    return 1;
  }
  if (ts.samples().empty()) {
    std::printf("%s: empty time series\n", argv[0]);
    return 0;
  }
  const util::SimTime first = ts.samples().front().t;
  const util::SimTime last = ts.last_time();

  // Replay the anomaly detector across the export at its window cadence, so
  // the offline verdict sequence matches what a live run would have seen.
  obs::NxAnomalyDetector detector;
  const util::SimTime step = detector.config().window;
  for (util::SimTime t = first + step; t < last; t += step) {
    detector.observe(ts, t);
  }
  detector.observe(ts, last);

  obs::SloMonitor monitor;
  const auto& report = monitor.evaluate(ts, last);
  std::printf("%s: %zu samples, t=[%lld, %lld]\n", argv[0],
              ts.samples().size(), static_cast<long long>(first),
              static_cast<long long>(last));
  std::fputs(report.to_text().c_str(), stdout);
  std::fputs(detector.to_text().c_str(), stdout);
  const bool anomalous = detector.state() != obs::AnomalyState::Quiet &&
                         detector.state() != obs::AnomalyState::Warmup;
  return (report.any_page() || report.any_ticket() || anomalous) ? 2 : 0;
}

int cmd_top(int argc, char** argv) {
  if (argc < 1 || argc > 2) return usage();
  const auto text = read_file(argv[0]);
  if (!text) {
    std::fprintf(stderr, "nxdtool: cannot read %s\n", argv[0]);
    return 1;
  }
  obs::TimeSeriesStore ts;
  std::string error;
  if (!obs::TimeSeriesStore::parse(*text, &ts, &error)) {
    std::fprintf(stderr, "nxdtool: %s is not a time-series export: %s\n",
                 argv[0], error.c_str());
    return 1;
  }
  util::SimTime window = 60;
  if (argc == 2) {
    window = std::atoll(argv[1]);
    if (window <= 0) return usage();
  }
  const util::SimTime now = ts.last_time();

  // Window-sum every counter series present, then rank.  Labels keep series
  // distinct (per-upstream, per-kind breakdowns surface individually).
  std::map<std::string, std::uint64_t> sums;
  for (const auto& sample : ts.samples()) {
    if (sample.t <= now - window || sample.t > now) continue;
    for (const auto& series : sample.delta.series) {
      if (series.counter == 0) continue;
      std::string key = series.name;
      if (!series.labels.empty()) {
        key += '{';
        bool sep = false;
        for (const auto& [k, v] : series.labels) {
          if (sep) key += ',';
          key += k + "=" + v;
          sep = true;
        }
        key += '}';
      }
      sums[key] += series.counter;
    }
  }
  std::vector<std::pair<std::string, std::uint64_t>> ranked(sums.begin(),
                                                            sums.end());
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  std::printf("top counters over the last %lld s (ending t=%lld):\n",
              static_cast<long long>(window), static_cast<long long>(now));
  std::printf("%-52s %12s %10s\n", "series", "delta", "rate/s");
  std::size_t shown = 0;
  for (const auto& [name, sum] : ranked) {
    if (++shown > 20) break;
    std::printf("%-52s %12s %10.2f\n", name.c_str(),
                util::with_commas(sum).c_str(),
                static_cast<double>(sum) / static_cast<double>(window));
  }
  if (ranked.empty()) std::printf("(no counter activity in the window)\n");
  return 0;
}

int cmd_metrics(int argc, char** argv) {
  if (argc != 1) return usage();
  const auto text = read_file(argv[0]);
  if (!text) {
    std::fprintf(stderr, "nxdtool: cannot read %s\n", argv[0]);
    return 1;
  }
  obs::MetricsSnapshot snapshot;
  std::string error;
  if (!obs::MetricsSnapshot::parse(*text, &snapshot, &error)) {
    std::fprintf(stderr, "nxdtool: %s is not a metrics snapshot: %s\n",
                 argv[0], error.c_str());
    return 1;
  }
  std::fputs(obs::render_prometheus(snapshot).c_str(), stdout);
  return 0;
}

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view command = argv[1];
  if (command == "dga") return cmd_dga(argc - 2, argv + 2);
  if (command == "squat") return cmd_squat(argc - 2, argv + 2);
  if (command == "idn") return cmd_idn(argc - 2, argv + 2);
  if (command == "zone") return cmd_zone(argc - 2, argv + 2);
  if (command == "capture") return cmd_capture(argc - 2, argv + 2);
  if (command == "resolve") return cmd_resolve(argc - 2, argv + 2);
  if (command == "recover") return cmd_recover(argc - 2, argv + 2);
  if (command == "fsck") return cmd_fsck(argc - 2, argv + 2);
  if (command == "metrics") return cmd_metrics(argc - 2, argv + 2);
  if (command == "health") return cmd_health(argc - 2, argv + 2);
  if (command == "spans") return cmd_spans(argc - 2, argv + 2);
  if (command == "slo") return cmd_slo(argc - 2, argv + 2);
  if (command == "top") return cmd_top(argc - 2, argv + 2);
  return usage();
}
