// feed: the scale pillar's real path (paper §4 and §5).
//
// A seeded NxHistoryStream, pre-encoded into 4096-observation SIE batch
// frames, is pushed through DurableStore::submit_frame with 64 frames in
// flight (group-commit WAL, background delta checkpoints), then a forced
// checkpoint and materialize feed the §4 queries and the §5 origin analysis,
// and finally the durable directory is reopened cold.  Each pass does all of
// that on a fresh directory; the serve phase runs passes until --seconds
// have elapsed and medians are reported.  Nearly all the time is pdns (frame
// apply, WAL, checkpoint) and analysis; no resolver or socket work.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>

#include "analysis/origin.hpp"
#include "analysis/scale.hpp"
#include "common.hpp"
#include "obs/metrics.hpp"
#include "pdns/durable_store.hpp"
#include "pdns/frame_view.hpp"
#include "pdns/sampler.hpp"
#include "pdns/sie_channel.hpp"
#include "pdns/snapshot.hpp"
#include "squat/detector.hpp"
#include "synth/origin_model.hpp"
#include "synth/scale_models.hpp"
#include "tracer.hpp"

namespace nxd::bench {
namespace {

struct FeedSizes {
  double scale;
  std::size_t frame_obs;
  std::size_t window;
  std::size_t expired;
  int min_passes;
};

// Passes are kept short (about 1 s) so a run holds enough of them for its
// medians to shrug off a slow pass: on a shared machine one pass can run 25%
// slower than the next.
FeedSizes feed_sizes(const Options& opt) {
  if (opt.smoke) return FeedSizes{2e-8, 4096, 64, 200, 2};
  return FeedSizes{5e-7, 4096, 64, 2'500, opt.trace ? 4 : 9};
}

struct FeedInputs {
  std::vector<std::vector<std::uint8_t>> frames;
  std::uint64_t observations = 0;
  synth::OriginCorpus corpus;
  dga::DgaClassifier classifier;
  squat::SquatDetector detector;
};

std::unique_ptr<FeedInputs> make_inputs(const FeedSizes& z,
                                        std::uint64_t seed) {
  synth::HistoryStreamConfig history;
  history.scale = z.scale;
  history.seed = seed;
  history.ok_fraction = 0.05;
  history.servfail_fraction = 0.02;
  const synth::NxHistoryStream stream(history);

  std::vector<std::vector<std::uint8_t>> frames;
  std::uint64_t observations = 0;
  std::vector<pdns::Observation> pending;
  const auto flush = [&](bool all) {
    std::size_t at = 0;
    while (pending.size() - at >= z.frame_obs ||
           (all && at < pending.size())) {
      const auto n = std::min(z.frame_obs, pending.size() - at);
      frames.push_back(
          pdns::encode_batch_frame(std::span(pending).subspan(at, n)));
      observations += n;
      at += n;
    }
    pending.erase(pending.begin(), pending.begin() + static_cast<long>(at));
  };
  for (std::size_t m = 0; m < stream.months(); ++m) {
    auto month = stream.month(m);
    pending.insert(pending.end(), std::make_move_iterator(month.begin()),
                   std::make_move_iterator(month.end()));
    flush(false);
  }
  flush(true);

  synth::OriginCorpusConfig corpus_config;
  corpus_config.seed = seed;
  corpus_config.expired_count = z.expired;
  return std::make_unique<FeedInputs>(FeedInputs{
      std::move(frames), observations,
      synth::build_origin_corpus(corpus_config),
      synth::trained_dga_classifier(), squat::SquatDetector::with_defaults()});
}

pdns::DurableStore::Config durable_config() {
  pdns::DurableStore::Config config;
  config.delta_every_batches = 16;
  config.compact_every_deltas = 16;
  return config;
}

}  // namespace

Result run_feed(const Options& opt, Tracer* tracer) {
  Result r;
  r.workload = "feed";
  r.threads = 3;  // producer, WAL writer, checkpoint worker
  const FeedSizes z = feed_sizes(opt);

  std::unique_ptr<FeedInputs> in;
  const auto setup_reps =
      repeated_setup(9, in, [&] { return make_inputs(z, opt.seed); });
  const double setup_s = median(setup_reps);
  r.sizes["observations"] = std::to_string(in->observations);
  r.sizes["frames"] = std::to_string(in->frames.size());
  r.sizes["frame_obs"] = std::to_string(z.frame_obs);
  r.sizes["in_flight"] = std::to_string(z.window);
  r.sizes["origin_names"] = std::to_string(in->corpus.all_names.size());
  std::fprintf(stderr, "feed: %llu observations in %zu frames, setup %.3f s\n",
               static_cast<unsigned long long>(in->observations),
               in->frames.size(), setup_s);

  const std::string dir = opt.work_dir + "/feed";
  const auto config = durable_config();
  const analysis::OriginAnalysis origin(in->corpus.whois_db, in->classifier,
                                        in->detector, in->corpus.blocklist);
  obs::MetricsRegistry registry;

  std::vector<double> ingest_s, analysis_s, recover_s, frame_lat_us;
  std::vector<double> pass_p50_us, pass_p99_us;
  std::vector<double> traced_pass_s, untraced_pass_s;
  pdns::DurableStore::StageStats stages{};
  double ingest_wall_ns = 0;
  std::uint64_t disk_bytes = 0;
  double bytes_per_domain = 0;
  pdns::DurableStore::RecoveryInfo last_recovery;
  std::vector<std::uint8_t> reference;  // serial ingest_view snapshot

  const auto serve_start = now_ns();
  for (int pass = 0;
       pass < z.min_passes || seconds_since(serve_start) < opt.seconds;
       ++pass) {
    const bool traced = tracer != nullptr && pass % 2 == 1;
    if (tracer != nullptr) tracer->set_active(traced);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    auto store = pdns::DurableStore::open(dir, config);
    if (!store) {
      r.check(false, "cannot open durable dir " + dir);
      break;
    }
    store->bind_metrics(registry);

    // ---- serve: durable ingest
    bool durable = false;
    const std::size_t pass_acks_begin = frame_lat_us.size();
    const auto pass_start = now_ns();
    {
      Span phase(tracer, S::PhaseServe);
      std::deque<std::pair<std::uint64_t, std::uint64_t>> inflight;
      const auto retire = [&] {
        const auto [ticket, submitted] = inflight.front();
        inflight.pop_front();
        bool ok = false;
        {
          Span s(tracer, S::PdnsWait);
          ok = store->wait_batch(ticket);
        }
        frame_lat_us.push_back(static_cast<double>(now_ns() - submitted) *
                               1e-3);
        if (!ok) ++r.failed;
      };
      for (const auto& frame : in->frames) {
        const auto submitted = now_ns();
        std::uint64_t ticket = 0;
        {
          Span s(tracer, S::PdnsSubmit);
          ticket = store->submit_frame(frame);
        }
        ++r.attempted;
        if (ticket == 0) {
          ++r.failed;
          continue;
        }
        inflight.emplace_back(ticket, submitted);
        if (inflight.size() >= z.window) retire();
      }
      while (!inflight.empty()) retire();
      Span s(tracer, S::PdnsWait);
      durable = store->wait_durable();
    }
    const auto ingest_ns = static_cast<double>(now_ns() - pass_start);
    ingest_s.push_back(ingest_ns * 1e-9);
    ingest_wall_ns += ingest_ns;
    const std::vector<double> pass_acks(
        frame_lat_us.begin() + static_cast<long>(pass_acks_begin),
        frame_lat_us.end());
    pass_p50_us.push_back(percentile(pass_acks, 0.50));
    pass_p99_us.push_back(percentile(pass_acks, 0.99));

    // ---- analysis: checkpoint + materialize, §4 queries, §5 origin
    const auto analysis_start = now_ns();
    pdns::PassiveDnsStore materialized;
    std::uint64_t rss_before = 0, rss_after = 0;
    bool checkpointed = false;
    analysis::ScaleSummary summary;
    std::vector<analysis::MonthlyPoint> monthly;
    std::vector<analysis::TldRow> tlds;
    std::vector<analysis::LifespanPoint> lifespan;
    analysis::OriginReport origin_report;
    {
      Span phase(tracer, S::PhaseAnalysis);
      {
        Span s(tracer, S::PdnsCheckpoint);
        checkpointed = store->checkpoint();
      }
      rss_before = current_rss_kb();
      {
        Span s(tracer, S::PdnsMaterialize);
        materialized = store->materialize();
      }
      rss_after = current_rss_kb();
      const analysis::ScaleAnalysis scale(materialized);
      {
        Span s(tracer, S::AnalysisSummary);
        summary = scale.summary();
      }
      {
        Span s(tracer, S::AnalysisMonthly);
        monthly = scale.monthly_series();
      }
      {
        Span s(tracer, S::AnalysisTopTlds);
        tlds = scale.top_tlds(20);
      }
      {
        Span s(tracer, S::AnalysisLifespan);
        lifespan = scale.lifespan_series(pdns::DomainSampler(1000, opt.seed));
      }
      {
        Span s(tracer, S::PdnsHighTraffic);
        materialized.high_traffic_nxdomains(100);
      }
      {
        Span s(tracer, S::AnalysisOrigin);
        origin_report = origin.run(in->corpus.all_names);
      }
    }
    analysis_s.push_back(seconds_since(analysis_start));
    r.check(durable, "wait_durable failed");
    r.check(checkpointed, "checkpoint failed");
    r.check(!monthly.empty() && !tlds.empty() && !lifespan.empty(),
            "an empty §4 series");
    r.check(summary.nx_responses == materialized.nx_responses(),
            "summary disagrees with the store");
    // Keep only the snapshot bytes for the checks, so check copies never
    // set the peak RSS.
    const auto materialized_bytes = pdns::save_snapshot(materialized);
    const auto distinct_domains = materialized.distinct_domains();
    materialized = pdns::PassiveDnsStore{};

    const auto s_stats = store->stage_stats();
    stages.groups += s_stats.groups;
    stages.batches += s_stats.batches;
    stages.observations += s_stats.observations;
    stages.append_ns += s_stats.append_ns;
    stages.fsync_ns += s_stats.fsync_ns;
    stages.apply_ns += s_stats.apply_ns;
    stages.checkpoint_ns += s_stats.checkpoint_ns;
    r.check(store->committed_batches() == in->frames.size(),
            "committed batches != frames submitted");
    store.reset();  // drain + join; the directory is now what a crash leaves
    disk_bytes = directory_bytes(dir);
    if (distinct_domains > 0 && rss_after > rss_before) {
      bytes_per_domain = static_cast<double>(rss_after - rss_before) * 1024.0 /
                         static_cast<double>(distinct_domains);
    }

    // ---- recover: cold open of the durable directory
    const auto recover_start = now_ns();
    std::optional<pdns::DurableStore> recovered;
    {
      Span phase(tracer, S::PhaseRecover);
      Span s(tracer, S::PdnsOpen);
      recovered = pdns::DurableStore::open(dir, config);
    }
    recover_s.push_back(seconds_since(recover_start));
    // Later passes start from the heap earlier passes' threads left behind,
    // so the peak is taken over setup and one full pass, before any check.
    if (pass == 0) r.peak_rss_kb = peak_rss_kb();
    const auto pass_s = seconds_since(pass_start);
    (traced ? traced_pass_s : untraced_pass_s).push_back(pass_s);
    if (tracer != nullptr) tracer->set_active(true);

    // ---- checks (untimed)
    if (!recovered) {
      r.check(false, "cold recovery failed");
      break;
    }
    last_recovery = recovered->recovery();
    r.check(recovered->committed_batches() == in->frames.size(),
            "recovered batches != frames submitted");
    r.check(origin_report.total_nxdomains == in->corpus.all_names.size(),
            "origin analysis lost names");
    const auto recovered_bytes = recovered->snapshot_bytes();
    recovered.reset();
    if (reference.empty()) {
      pdns::PassiveDnsStore serial;
      for (const auto& frame : in->frames) {
        const auto view = pdns::FrameView::parse(frame);
        r.check(view.has_value(), "frame failed to parse");
        if (!view) continue;
        for (const auto& obs : *view) serial.ingest_view(obs);
      }
      reference = pdns::save_snapshot(serial);
    }
    r.check(materialized_bytes == reference,
            "materialized snapshot != serial ingest_view snapshot");
    r.check(recovered_bytes == reference,
            "recovered snapshot != serial ingest_view snapshot");
    std::fprintf(stderr,
                 "feed pass %d%s: ingest %.3f s, analysis %.3f s, recover "
                 "%.3f s, peak rss %llu kB\n",
                 pass, traced ? " (traced)" : "", ingest_s.back(),
                 analysis_s.back(), recover_s.back(),
                 static_cast<unsigned long long>(peak_rss_kb()));
  }
  std::filesystem::remove_all(dir);

  const auto obs_count = static_cast<double>(in->observations);
  std::vector<double> pass_rates;
  for (const double s : ingest_s) pass_rates.push_back(obs_count / s);
  r.e2e["setup_s"] = {setup_s, "s"};
  r.e2e["ops_per_s"] = {median(pass_rates), "1/s"};
  // Frame-ack latency, like throughput, as the median over passes of each
  // pass's percentile: pooled percentiles follow the slowest passes.
  r.e2e["op_p50_us"] = {median(pass_p50_us), "us"};
  r.e2e["op_p99_us"] = {median(pass_p99_us), "us"};
  r.e2e["analysis_s"] = {median(analysis_s), "s"};
  r.e2e["recover_s"] = {median(recover_s), "s"};

  const auto pct_of_ingest = [&](std::uint64_t ns) {
    return ingest_wall_ns > 0 ? 100.0 * static_cast<double>(ns) / ingest_wall_ns
                              : 0.0;
  };
  r.layer["ledger.op_p999_us"] = {percentile(frame_lat_us, 0.999), "us"};
  r.layer["pdns.wal_append_pct"] = {pct_of_ingest(stages.append_ns), "%"};
  r.layer["pdns.wal_fsync_pct"] = {pct_of_ingest(stages.fsync_ns), "%"};
  r.layer["pdns.apply_pct"] = {pct_of_ingest(stages.apply_ns), "%"};
  r.layer["pdns.ckpt_pct"] = {pct_of_ingest(stages.checkpoint_ns), "%"};
  r.layer["pdns.batches_per_group"] = {
      stages.groups > 0 ? static_cast<double>(stages.batches) /
                              static_cast<double>(stages.groups)
                        : 0.0,
      "ratio"};
  r.layer["pdns.disk_bytes_per_obs"] = {
      static_cast<double>(disk_bytes) / obs_count, "B"};
  r.layer["pdns.bytes_per_domain"] = {bytes_per_domain, "B"};
  r.layer["pdns.recover_replayed_batches"] = {
      static_cast<double>(last_recovery.replayed_batches), "count"};
  r.layer["pdns.recover_deltas_absorbed"] = {
      static_cast<double>(last_recovery.deltas_absorbed), "count"};
  if (!traced_pass_s.empty() && !untraced_pass_s.empty()) {
    r.detail["trace.traced_unit"] = median(traced_pass_s);
    r.detail["trace.untraced_unit"] = median(untraced_pass_s);
  }

  const double total_obs = static_cast<double>(stages.observations);
  if (total_obs > 0) {
    r.detail["pdns.wal_append_ns_per_obs"] =
        static_cast<double>(stages.append_ns) / total_obs;
    r.detail["pdns.wal_fsync_ns_per_obs"] =
        static_cast<double>(stages.fsync_ns) / total_obs;
    r.detail["pdns.apply_ns_per_obs"] =
        static_cast<double>(stages.apply_ns) / total_obs;
    r.detail["pdns.ckpt_ns_per_obs"] =
        static_cast<double>(stages.checkpoint_ns) / total_obs;
  }
  r.detail["passes"] = static_cast<double>(ingest_s.size());
  return r;
}

}  // namespace nxd::bench
