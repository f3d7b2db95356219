#include "common.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>

namespace nxd::bench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

WindowedLatency windowed_latency(const std::vector<double>& samples,
                                 std::size_t window) {
  std::vector<double> p50s, p99s;
  std::size_t at = 0;
  while (at < samples.size()) {
    // A short tail joins the previous window rather than standing alone.
    std::size_t end = std::min(samples.size(), at + window);
    if (samples.size() - end < window / 2) end = samples.size();
    const std::vector<double> part(samples.begin() + static_cast<long>(at),
                                   samples.begin() + static_cast<long>(end));
    p50s.push_back(percentile(part, 0.50));
    p99s.push_back(percentile(part, 0.99));
    at = end;
  }
  return WindowedLatency{median(p50s), median(p99s)};
}

namespace {

std::uint64_t status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stoull(line.substr(prefix.size()));
    }
  }
  return 0;
}

}  // namespace

CpuRotation::CpuRotation(bool rotate) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
  if (!rotate && !cpus_.empty()) cpus_.erase(cpus_.begin(), cpus_.end() - 1);
}

bool CpuRotation::next(std::thread* also) {
  if (cpus_.empty()) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[step_++ % cpus_.size()], &one);
  bool ok = sched_setaffinity(0, sizeof(one), &one) == 0;
  if (also != nullptr && also->joinable()) {
    ok = pthread_setaffinity_np(also->native_handle(), sizeof(one), &one) ==
             0 &&
         ok;
  }
  return ok;
}

std::uint64_t peak_rss_kb() { return status_kb("VmHWM"); }
std::uint64_t current_rss_kb() { return status_kb("VmRSS"); }

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace nxd::bench
