// Durable-ingest overhead: what does crash safety cost?
//
// Generates one seeded NXDomain stream (outside every timed region), splits
// it into fixed-size batches, then ingests it four ways:
//
//   * memory     — plain PassiveDnsStore ingest, no durability (baseline);
//   * wal        — DurableStore, blocking caller: every batch is a group of
//                  one (append + fsync before the ack), no checkpoints;
//   * wal+ckpt serial — same blocking caller, plus incremental delta
//                  checkpoints every K batches and periodic compaction; the
//                  ablation showing what fsync-per-batch costs;
//   * wal+ckpt   — the production group-commit path: the caller pipelines
//                  submit_frame() with a bounded in-flight window, so the
//                  writer coalesces many batches per fsync barrier, with the
//                  same delta checkpoints running in the background.
//
// Every durable arm encodes each batch at the edge (encode_batch_frame, inside
// the timed region) and submits the frame, which DurableStore validates with
// FrameView::parse before it reaches the log — the same work a real feed
// producer and the store pay per batch.
//
// Each durable run reports the per-stage breakdown (append / fsync-wait /
// apply / checkpoint ns per observation) from DurableStore::stage_stats(),
// and the group-commit run prints its group-size histogram — the direct
// evidence of how many acks ride one barrier.
//
// After the durable runs the directory is recovered cold and the recovered
// snapshot is compared byte-for-byte against the serial baseline's — the
// overhead column is only meaningful if the durable path computes the
// identical answer.  Recovery wall-clock is reported too.
//
// Usage: wal_throughput [--scale=1e-6] [--seed=42] [--batch=2000]
//                       [--ckpt-every=16] [--compact-every=16] [--window=64]
//                       [--dir=PATH] [--json=BENCH_wal.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "pdns/durable_store.hpp"
#include "pdns/sie_channel.hpp"
#include "pdns/snapshot.hpp"
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

struct RunResult {
  std::string name;
  double ingest_seconds = 0;
  double obs_per_second = 0;
  double overhead = 1.0;  // wall-clock factor vs the memory baseline
  nxd::pdns::DurableStore::StageStats stages;
  bool snapshot_identical = true;
};

double per_obs(std::uint64_t ns, std::uint64_t observations) {
  return observations > 0
             ? static_cast<double>(ns) / static_cast<double>(observations)
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1e-6;
  std::uint64_t seed = 42;
  std::size_t batch_size = 2000;
  std::uint64_t ckpt_every = 16;
  std::uint64_t compact_every = 16;
  std::size_t window = 64;
  std::string dir =
      (std::filesystem::temp_directory_path() / "nxd_wal_bench").string();
  std::string json_path = "BENCH_wal.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) scale = std::atof(argv[i] + 8);
    if (std::strncmp(argv[i], "--seed=", 7) == 0) seed = std::strtoull(argv[i] + 7, nullptr, 10);
    if (std::strncmp(argv[i], "--batch=", 8) == 0) batch_size = std::strtoull(argv[i] + 8, nullptr, 10);
    if (std::strncmp(argv[i], "--ckpt-every=", 13) == 0) ckpt_every = std::strtoull(argv[i] + 13, nullptr, 10);
    if (std::strncmp(argv[i], "--compact-every=", 16) == 0) compact_every = std::strtoull(argv[i] + 16, nullptr, 10);
    if (std::strncmp(argv[i], "--window=", 9) == 0) window = std::strtoull(argv[i] + 9, nullptr, 10);
    if (std::strncmp(argv[i], "--dir=", 6) == 0) dir = argv[i] + 6;
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }
  if (batch_size == 0) batch_size = 1;
  if (window == 0) window = 1;

  using namespace nxd;

  std::printf(
      "=== durable ingest overhead: group-commit WAL + delta checkpoints vs "
      "memory (scale=%g seed=%llu batch=%zu window=%zu) ===\n",
      scale, static_cast<unsigned long long>(seed), batch_size, window);

  synth::HistoryStreamConfig history;
  history.scale = scale;
  history.seed = seed;
  history.ok_fraction = 0.05;
  history.servfail_fraction = 0.02;
  const auto observations = synth::NxHistoryStream(history).all();
  const std::size_t batches =
      (observations.size() + batch_size - 1) / batch_size;
  std::printf("stream: %s observations in %zu batches\n\n",
              util::with_commas(static_cast<std::uint64_t>(observations.size())).c_str(),
              batches);

  auto each_batch = [&](auto&& fn) {
    for (std::size_t at = 0; at < observations.size(); at += batch_size) {
      const auto n = std::min(batch_size, observations.size() - at);
      fn(std::span(observations).subspan(at, n));
    }
  };

  // Memory baseline.
  pdns::PassiveDnsStore serial;
  const auto serial_start = Clock::now();
  each_batch([&](auto batch) {
    for (const auto& obs : batch) serial.ingest(obs);
  });
  const double serial_seconds = seconds_since(serial_start);
  const auto serial_snapshot = pdns::save_snapshot(serial);

  std::vector<RunResult> runs;
  {
    RunResult r;
    r.name = "memory";
    r.ingest_seconds = serial_seconds;
    r.obs_per_second = serial_seconds > 0
                           ? static_cast<double>(observations.size()) / serial_seconds
                           : 0;
    runs.push_back(r);
  }

  struct Variant {
    const char* name;
    bool checkpoints;
    bool piped;
  };
  const Variant variants[] = {
      {"wal", false, false},
      {"wal+ckpt serial", true, false},
      {"wal+ckpt", true, true},
  };

  double recover_seconds = 0;
  std::uint64_t recovered_batches = 0;
  pdns::DurableStore::StageStats piped_stages{};
  for (const auto& variant : variants) {
    std::filesystem::remove_all(dir);
    pdns::DurableStore::Config config;
    config.delta_every_batches = variant.checkpoints ? ckpt_every : 0;
    config.compact_every_deltas = compact_every;
    RunResult r;
    r.name = variant.name;
    {
      auto store = pdns::DurableStore::open(dir, config);
      if (!store) {
        std::fprintf(stderr, "cannot open durable dir %s\n", dir.c_str());
        return 1;
      }
      const auto start = Clock::now();
      bool ok = true;
      if (variant.piped) {
        // Bounded in-flight window: the caller keeps up to `window` batches
        // submitted; the writer coalesces whatever queues up while the
        // previous group's fsync is in flight.
        std::deque<std::uint64_t> inflight;
        each_batch([&](auto batch) {
          if (!ok) return;
          const auto ticket =
              store->submit_frame(pdns::encode_batch_frame(batch));
          if (ticket == 0) {
            ok = false;
            return;
          }
          inflight.push_back(ticket);
          if (inflight.size() >= window) {
            ok = ok && store->wait_batch(inflight.front());
            inflight.pop_front();
          }
        });
        while (ok && !inflight.empty()) {
          ok = store->wait_batch(inflight.front());
          inflight.pop_front();
        }
      } else {
        each_batch([&](auto batch) {
          ok = ok && store->wait_batch(
                         store->submit_frame(pdns::encode_batch_frame(batch)));
        });
      }
      r.ingest_seconds = seconds_since(start);
      if (!ok) {
        std::fprintf(stderr, "durable ingest failed (%s)\n", variant.name);
        return 1;
      }
      r.stages = store->stage_stats();
      if (variant.piped) piped_stages = r.stages;
      r.snapshot_identical = store->snapshot_bytes() == serial_snapshot;
    }
    r.obs_per_second = r.ingest_seconds > 0
                           ? static_cast<double>(observations.size()) / r.ingest_seconds
                           : 0;
    r.overhead = serial_seconds > 0 ? r.ingest_seconds / serial_seconds : 0;
    if (variant.checkpoints && variant.piped) {
      // Cold recovery of the manifest+delta+tail layout after the piped run
      // (the realistic shape: base image, delta chain, WAL tail).
      const auto start = Clock::now();
      auto recovered = pdns::DurableStore::open(dir, config);
      recover_seconds = seconds_since(start);
      if (recovered) {
        recovered_batches = recovered->committed_batches();
        r.snapshot_identical = r.snapshot_identical &&
                               recovered->snapshot_bytes() == serial_snapshot;
      } else {
        r.snapshot_identical = false;
      }
    }
    runs.push_back(r);
  }
  std::filesystem::remove_all(dir);

  const auto total_obs = static_cast<std::uint64_t>(observations.size());
  util::Table table({"config", "ingest s", "obs/s", "overhead", "groups",
                     "append ns/obs", "fsync ns/obs", "apply ns/obs",
                     "ckpt ns/obs", "snapshot"});
  for (const auto& r : runs) {
    const bool durable = r.name != "memory";
    table.add_row(
        {r.name, fixed(r.ingest_seconds, 3),
         util::with_commas(static_cast<std::uint64_t>(r.obs_per_second)),
         durable ? fixed(r.overhead, 2) + "x" : "1.00x",
         durable ? std::to_string(r.stages.groups) : "-",
         durable ? fixed(per_obs(r.stages.append_ns, total_obs), 1) : "-",
         durable ? fixed(per_obs(r.stages.fsync_ns, total_obs), 1) : "-",
         durable ? fixed(per_obs(r.stages.apply_ns, total_obs), 1) : "-",
         durable ? fixed(per_obs(r.stages.checkpoint_ns, total_obs), 1) : "-",
         durable ? (r.snapshot_identical ? "identical" : "MISMATCH")
                 : "baseline"});
  }
  table.render(std::cout);

  std::printf("\ngroup-size histogram (group-commit run, batches per fsync):\n");
  for (std::size_t b = 0; b < piped_stages.group_size_log2.size(); ++b) {
    if (piped_stages.group_size_log2[b] == 0) continue;
    std::printf("  %4llu..%-4llu : %llu groups\n",
                static_cast<unsigned long long>(1ULL << b),
                static_cast<unsigned long long>((2ULL << b) - 1),
                static_cast<unsigned long long>(piped_stages.group_size_log2[b]));
  }
  std::printf("cold recovery: %.3f s for %llu batches\n", recover_seconds,
              static_cast<unsigned long long>(recovered_batches));

  bool all_identical = true;
  for (const auto& r : runs) all_identical = all_identical && r.snapshot_identical;

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"wal_throughput\",\n");
    std::fprintf(f, "  \"scale\": %g,\n  \"seed\": %llu,\n", scale,
                 static_cast<unsigned long long>(seed));
    std::fprintf(f, "  \"observations\": %llu,\n",
                 static_cast<unsigned long long>(observations.size()));
    std::fprintf(f, "  \"batch_size\": %zu,\n", batch_size);
    std::fprintf(f, "  \"delta_every_batches\": %llu,\n",
                 static_cast<unsigned long long>(ckpt_every));
    std::fprintf(f, "  \"compact_every_deltas\": %llu,\n",
                 static_cast<unsigned long long>(compact_every));
    std::fprintf(f, "  \"pipeline_window\": %zu,\n", window);
    std::fprintf(f, "  \"recover_seconds\": %.6f,\n", recover_seconds);
    std::fprintf(f, "  \"durable_equivalent\": %s,\n", all_identical ? "true" : "false");
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto& r = runs[i];
      std::fprintf(
          f,
          "    {\"config\": \"%s\", \"ingest_seconds\": %.6f, "
          "\"obs_per_second\": %.1f, \"overhead\": %.3f, "
          "\"groups\": %llu, \"deltas\": %llu, \"compactions\": %llu, "
          "\"append_ns_per_obs\": %.2f, \"fsync_ns_per_obs\": %.2f, "
          "\"apply_ns_per_obs\": %.2f, \"checkpoint_ns_per_obs\": %.2f, "
          "\"snapshot_identical\": %s}%s\n",
          r.name.c_str(), r.ingest_seconds, r.obs_per_second, r.overhead,
          static_cast<unsigned long long>(r.stages.groups),
          static_cast<unsigned long long>(r.stages.deltas_written),
          static_cast<unsigned long long>(r.stages.compactions),
          per_obs(r.stages.append_ns, total_obs),
          per_obs(r.stages.fsync_ns, total_obs),
          per_obs(r.stages.apply_ns, total_obs),
          per_obs(r.stages.checkpoint_ns, total_obs),
          r.snapshot_identical ? "true" : "false",
          i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  return all_identical ? 0 : 1;
}
