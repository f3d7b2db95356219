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
// The four arms and the recovery run kRepeats times, back to back per
// repeat; every figure is reported as the median with its interquartile
// range (quartiles by linear interpolation), beside the host's CPU count,
// CPU model and compiler.
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
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <thread>
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

constexpr int kRepeats = 5;

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

/// Median and quartiles of a sample (linear interpolation between ranks).
struct Spread {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
};

Spread spread_of(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const auto at = [&v](double q) {
    const double rank = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
  };
  return {at(0.5), at(0.25), at(0.75)};
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size()) {
      return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
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

  // Every repeat runs the memory baseline, the three durable arms and the
  // cold recovery; runs[rep][arm] keeps each repeat's numbers.
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

  std::vector<std::uint8_t> serial_snapshot;
  std::vector<std::vector<RunResult>> runs(kRepeats);
  std::vector<double> recover_seconds;
  std::uint64_t recovered_batches = 0;
  pdns::DurableStore::StageStats piped_stages{};
  for (int rep = 0; rep < kRepeats; ++rep) {
    // Memory baseline.
    pdns::PassiveDnsStore serial;
    const auto serial_start = Clock::now();
    each_batch([&](auto batch) {
      for (const auto& obs : batch) serial.ingest(obs);
    });
    const double serial_seconds = seconds_since(serial_start);
    if (rep == 0) serial_snapshot = pdns::save_snapshot(serial);
    {
      RunResult r;
      r.name = "memory";
      r.ingest_seconds = serial_seconds;
      r.obs_per_second =
          serial_seconds > 0
              ? static_cast<double>(observations.size()) / serial_seconds
              : 0;
      r.snapshot_identical = pdns::save_snapshot(serial) == serial_snapshot;
      runs[rep].push_back(r);
    }

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
          // Bounded in-flight window: the caller keeps up to `window`
          // batches submitted; the writer coalesces whatever queues up
          // while the previous group's fsync is in flight.
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
            ok = ok && store->wait_batch(store->submit_frame(
                           pdns::encode_batch_frame(batch)));
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
      r.obs_per_second =
          r.ingest_seconds > 0
              ? static_cast<double>(observations.size()) / r.ingest_seconds
              : 0;
      r.overhead = serial_seconds > 0 ? r.ingest_seconds / serial_seconds : 0;
      if (variant.checkpoints && variant.piped) {
        // Cold recovery of the manifest+delta+tail layout after the piped
        // run (the realistic shape: base image, delta chain, WAL tail).
        const auto start = Clock::now();
        auto recovered = pdns::DurableStore::open(dir, config);
        recover_seconds.push_back(seconds_since(start));
        if (recovered) {
          recovered_batches = recovered->committed_batches();
          r.snapshot_identical = r.snapshot_identical &&
                                 recovered->snapshot_bytes() == serial_snapshot;
        } else {
          r.snapshot_identical = false;
        }
      }
      runs[rep].push_back(r);
    }
    std::filesystem::remove_all(dir);
  }

  // Each arm's figures across the repeats.
  const auto total_obs = static_cast<std::uint64_t>(observations.size());
  struct ArmSummary {
    std::string name;
    bool durable = false;
    bool identical = true;
    Spread ingest, rate, overhead, append, fsync, apply, checkpoint;
    double groups = 0, deltas = 0, compactions = 0;  // medians
  };
  std::vector<ArmSummary> arms;
  bool all_identical = true;
  for (std::size_t arm = 0; arm < runs.front().size(); ++arm) {
    ArmSummary a;
    a.name = runs.front()[arm].name;
    a.durable = a.name != "memory";
    std::vector<double> ingest, rate, overhead, append, fsync, apply, ckpt,
        groups, deltas, compactions;
    for (const auto& rep : runs) {
      const RunResult& r = rep[arm];
      a.identical = a.identical && r.snapshot_identical;
      ingest.push_back(r.ingest_seconds);
      rate.push_back(r.obs_per_second);
      overhead.push_back(r.overhead);
      append.push_back(per_obs(r.stages.append_ns, total_obs));
      fsync.push_back(per_obs(r.stages.fsync_ns, total_obs));
      apply.push_back(per_obs(r.stages.apply_ns, total_obs));
      ckpt.push_back(per_obs(r.stages.checkpoint_ns, total_obs));
      groups.push_back(static_cast<double>(r.stages.groups));
      deltas.push_back(static_cast<double>(r.stages.deltas_written));
      compactions.push_back(static_cast<double>(r.stages.compactions));
    }
    a.ingest = spread_of(ingest);
    a.rate = spread_of(rate);
    a.overhead = spread_of(overhead);
    a.append = spread_of(append);
    a.fsync = spread_of(fsync);
    a.apply = spread_of(apply);
    a.checkpoint = spread_of(ckpt);
    a.groups = spread_of(groups).median;
    a.deltas = spread_of(deltas).median;
    a.compactions = spread_of(compactions).median;
    all_identical = all_identical && a.identical;
    arms.push_back(a);
  }

  const auto range = [](const Spread& s, int places) {
    return fixed(s.q1, places) + "-" + fixed(s.q3, places);
  };
  std::printf("medians of %d repeats [interquartile range]\n", kRepeats);
  util::Table table({"config", "ingest s", "ingest s IQR", "obs/s", "overhead",
                     "groups", "append ns/obs", "fsync ns/obs", "apply ns/obs",
                     "ckpt ns/obs", "ckpt IQR", "snapshot"});
  for (const auto& a : arms) {
    const auto durable_only = [&a](std::string v) {
      return a.durable ? v : std::string("-");
    };
    table.add_row(
        {a.name, fixed(a.ingest.median, 3), range(a.ingest, 3),
         util::with_commas(static_cast<std::uint64_t>(a.rate.median)),
         a.durable ? fixed(a.overhead.median, 2) + "x" : "1.00x",
         durable_only(fixed(a.groups, 0)),
         durable_only(fixed(a.append.median, 1)),
         durable_only(fixed(a.fsync.median, 1)),
         durable_only(fixed(a.apply.median, 1)),
         durable_only(fixed(a.checkpoint.median, 1)),
         durable_only(range(a.checkpoint, 1)),
         a.durable ? (a.identical ? "identical" : "MISMATCH") : "baseline"});
  }
  table.render(std::cout);

  std::printf("\ngroup-size histogram (last group-commit run, batches per fsync):\n");
  for (std::size_t b = 0; b < piped_stages.group_size_log2.size(); ++b) {
    if (piped_stages.group_size_log2[b] == 0) continue;
    std::printf("  %4llu..%-4llu : %llu groups\n",
                static_cast<unsigned long long>(1ULL << b),
                static_cast<unsigned long long>((2ULL << b) - 1),
                static_cast<unsigned long long>(piped_stages.group_size_log2[b]));
  }
  const Spread recover = spread_of(recover_seconds);
  std::printf("cold recovery: %.3f s [%.3f-%.3f] for %llu batches\n",
              recover.median, recover.q1, recover.q3,
              static_cast<unsigned long long>(recovered_batches));
  const std::string cpu = cpu_model();
  const std::string cc = compiler();
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("host: nproc=%u, %s, %s\n", nproc, cpu.c_str(), cc.c_str());

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    const auto iqr = [](const Spread& s) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "[%.6f, %.6f]", s.q1, s.q3);
      return std::string(buf);
    };
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"wal_throughput\",\n");
    std::fprintf(f, "  \"repeats\": %d,\n", kRepeats);
    std::fprintf(f, "  \"statistic\": \"median of repeats; *_iqr = [q1, q3]\",\n");
    std::fprintf(f, "  \"nproc\": %u,\n", nproc);
    std::fprintf(f, "  \"cpu_model\": \"%s\",\n", cpu.c_str());
    std::fprintf(f, "  \"compiler\": \"%s\",\n", cc.c_str());
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
    std::fprintf(f, "  \"recover_seconds\": %.6f,\n", recover.median);
    std::fprintf(f, "  \"recover_seconds_iqr\": %s,\n", iqr(recover).c_str());
    std::fprintf(f, "  \"durable_equivalent\": %s,\n", all_identical ? "true" : "false");
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t i = 0; i < arms.size(); ++i) {
      const auto& a = arms[i];
      std::fprintf(
          f,
          "    {\"config\": \"%s\", \"ingest_seconds\": %.6f, "
          "\"ingest_seconds_iqr\": %s, \"obs_per_second\": %.1f, "
          "\"obs_per_second_iqr\": %s, \"overhead\": %.3f, "
          "\"overhead_iqr\": %s, \"groups\": %.0f, \"deltas\": %.0f, "
          "\"compactions\": %.0f, \"append_ns_per_obs\": %.2f, "
          "\"append_ns_per_obs_iqr\": %s, \"fsync_ns_per_obs\": %.2f, "
          "\"fsync_ns_per_obs_iqr\": %s, \"apply_ns_per_obs\": %.2f, "
          "\"apply_ns_per_obs_iqr\": %s, \"checkpoint_ns_per_obs\": %.2f, "
          "\"checkpoint_ns_per_obs_iqr\": %s, \"snapshot_identical\": %s}%s\n",
          a.name.c_str(), a.ingest.median, iqr(a.ingest).c_str(),
          a.rate.median, iqr(a.rate).c_str(), a.overhead.median,
          iqr(a.overhead).c_str(), a.groups, a.deltas, a.compactions,
          a.append.median, iqr(a.append).c_str(), a.fsync.median,
          iqr(a.fsync).c_str(), a.apply.median, iqr(a.apply).c_str(),
          a.checkpoint.median, iqr(a.checkpoint).c_str(),
          a.identical ? "true" : "false", i + 1 < arms.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  return all_identical ? 0 : 1;
}
