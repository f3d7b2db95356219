// Shared plumbing for the nxd_bench workloads: options, the result record
// every workload fills, timing, percentiles and process memory.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace nxd::bench {

class Tracer;

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the serve phase (honeypot: converted to a fixed number of
  /// passes; feed: at least its minimum number of passes).
  double seconds = 20;
  bool trace = false;
  /// ~1% input sizes, for the smoke test only.
  bool smoke = false;
  /// Scratch space for durable stores and capture logs (removed at exit).
  std::string work_dir = ".bench_build/work";
  /// When set, the full result and the span JSONL are written here.
  std::string out_dir;
  std::string git_sha = "unknown";

  /// Analysis and recover repetitions per run, spread evenly over the serve
  /// phase.  `full` is the count for a full-size run.
  std::size_t reps(std::size_t full = 20) const { return smoke ? 2 : full; }
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run produced.  `e2e` is filled by untraced runs and
/// `layer` by traced runs; `detail` carries every other number worth keeping
/// in the result file (per-span costs, per-stage counters, sizes).
struct Result {
  std::string workload;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::map<std::string, double> detail;
  std::map<std::string, std::string> sizes;
  /// CPUs the workload's threads run on at once; below this `nproc` marks
  /// the run degraded.
  unsigned threads = 1;
  /// Peak RSS to report; 0 means the process peak at exit.
  std::uint64_t peak_rss_kb = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> values, double q);

/// Latency percentiles that a slow spell on a shared machine cannot drag:
/// the samples are cut into consecutive windows of `window` (1024 keeps ten
/// samples beyond each window's p99) and the medians of the per-window p50
/// and p99 are reported.
struct WindowedLatency {
  double p50 = 0;
  double p99 = 0;
};
WindowedLatency windowed_latency(const std::vector<double>& samples,
                                 std::size_t window = 1'024);

/// VmHWM / VmRSS of this process, in kB.
std::uint64_t peak_rss_kb();
std::uint64_t current_rss_kb();

/// Moves the measuring thread round the CPUs this process may use, one CPU
/// per step.  On a shared VM one vCPU can run at half speed for minutes
/// while its host core is busy, and a single-threaded run that stays on it
/// reads twice as slow throughout.  Stepping every few serve chunks and
/// before every repetition gives each CPU a fair share of the samples, so a
/// slow one moves a minority of them and the medians pass over it.  With
/// `rotate` false every step pins to the same CPU (the last one allowed).
class CpuRotation {
 public:
  /// Serve chunks between steps (about 0.7 s): each move leaves cold caches
  /// that slow the next few operations, and that must stay out of the p99
  /// of most latency windows.
  static constexpr std::size_t kChunksPerStep = 16;

  explicit CpuRotation(bool rotate);
  /// Pin the calling thread, and `also` when it is running, to the next CPU.
  bool next(std::thread* also = nullptr);

 private:
  std::vector<int> cpus_;
  std::size_t step_ = 0;
};

/// Run `setup` `reps` times, keep the last result, and return the wall time
/// of each repetition.  Earlier results are destroyed before the next
/// repetition starts, so memory does not stack up.  Each repetition takes
/// the next step of `rotation` when one is given.
template <typename T, typename F>
std::vector<double> repeated_setup(int reps, T& keep, F&& setup,
                                   CpuRotation* rotation = nullptr) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    keep = T{};
    if (rotation != nullptr) rotation->next();
    const auto start = now_ns();
    keep = setup();
    times.push_back(seconds_since(start));
  }
  return times;
}

/// Bytes of all regular files under `dir`.
std::uint64_t directory_bytes(const std::string& dir);

/// Workload entry points.
Result run_feed(const Options& opt, Tracer* tracer);
Result run_resolve(const Options& opt, Tracer* tracer);
Result run_attack(const Options& opt, Tracer* tracer);
Result run_honeypot(const Options& opt, Tracer* tracer);

}  // namespace nxd::bench
