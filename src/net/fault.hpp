// Seeded fault injection for the simulated network substrate.
//
// The paper's measurement pipeline (Fig. 1) assumes a recursive resolver
// observing traffic under real-world loss and flaky authoritative servers.
// A FaultPlan is the chaos knob that makes SimNetwork (and the capture-side
// recorders) exhibit that world deterministically: per-destination drop /
// duplicate / corrupt / truncate / delay probabilities drawn from a seeded
// RNG, per-class counters, and scoped or time-bounded outage windows.
// An empty plan injects nothing and consumes no randomness, so fault-free
// runs are bit-identical to runs predating this layer.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/endpoint.hpp"
#include "util/civil_time.hpp"
#include "util/rng.hpp"

namespace nxd::net {

/// Per-destination fault probabilities.  All default to zero (no faults).
struct FaultSpec {
  double drop = 0;       // packet silently lost in transit
  double duplicate = 0;  // packet delivered twice
  double corrupt = 0;    // 1..max_corrupt_bytes random bit flips
  double truncate = 0;   // payload cut at a random earlier offset
  double delay = 0;      // delivery delayed by [delay_min, delay_max] seconds
  util::SimTime delay_min = 1;
  util::SimTime delay_max = 3;
  int max_corrupt_bytes = 4;

  bool is_noop() const noexcept {
    return drop <= 0 && duplicate <= 0 && corrupt <= 0 && truncate <= 0 &&
           delay <= 0;
  }
};

/// Per-class counters for every fault the plan actually injected.
struct FaultStats {
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_duplicates = 0;
  std::uint64_t injected_corruptions = 0;
  std::uint64_t injected_truncations = 0;
  std::uint64_t injected_delays = 0;
  std::uint64_t outage_drops = 0;
  util::SimTime total_delay = 0;

  std::uint64_t total_faults() const noexcept {
    return injected_drops + injected_duplicates + injected_corruptions +
           injected_truncations + injected_delays + outage_drops;
  }

  friend bool operator==(const FaultStats&, const FaultStats&) = default;
};

/// Which faults fired on one packet, for the carrier to count.  Corruption
/// and truncation have already mutated the payload; drop/duplicate/delay
/// are for the carrier to act on.
struct FaultVerdict {
  bool drop = false;
  bool outage = false;  ///< the drop came from an outage window
  bool duplicate = false;
  bool corrupted = false;
  bool truncated = false;
  bool delayed = false;
  util::SimTime delay = 0;
};

class FaultPlan {
 public:
  /// Empty plan: no faults, no RNG consumption, `empty()` is true.
  FaultPlan() = default;
  explicit FaultPlan(std::uint64_t seed) : rng_(seed) {}

  /// Fault spec applied to destinations without a per-endpoint entry.
  void set_default(const FaultSpec& spec);
  /// Fault spec for one destination endpoint (overrides the default).
  void set_for(const Endpoint& dst, const FaultSpec& spec);

  /// Time-bounded outage: every packet to `dst` with now in [from, until)
  /// is dropped (counted under outage_drops).
  void add_outage(const Endpoint& dst, util::SimTime from, util::SimTime until);

  bool in_outage(const Endpoint& dst, util::SimTime now) const;

  /// True when the plan can never inject anything (no specs, no outages).
  bool empty() const noexcept;

  /// Run one packet through the fault stage.  `now` feeds the timed outage
  /// check; carriers without a clock pass 0 (scoped FaultWindows still
  /// apply).  Mutates `payload` on corruption/truncation.
  FaultVerdict apply(const Endpoint& dst, std::vector<std::uint8_t>& payload,
                     util::SimTime now);

  /// This plan's own record of what it injected (SimNetwork's registry
  /// counts from each verdict instead, so its totals span plan swaps).
  const FaultStats& stats() const noexcept { return stats_; }

 private:
  friend class FaultWindow;

  struct TimedOutage {
    Endpoint dst;
    util::SimTime from = 0;
    util::SimTime until = 0;
  };

  const FaultSpec* spec_for(const Endpoint& dst) const;

  util::Rng rng_{0};
  bool has_default_ = false;
  FaultSpec default_spec_;
  std::unordered_map<Endpoint, FaultSpec, EndpointHash> per_endpoint_;
  std::vector<TimedOutage> timed_outages_;
  // Scoped outages (driven by FaultWindow): reference counts so windows nest.
  int scoped_total_outages_ = 0;
  std::unordered_map<Endpoint, int, EndpointHash> scoped_outages_;
  FaultStats stats_;
};

/// RAII outage scope: while alive, every packet to the given destination
/// (or to every destination) is dropped.  Windows nest; destruction restores
/// the previous state.
class FaultWindow {
 public:
  /// Total outage: the whole network is dark for the scope's lifetime.
  explicit FaultWindow(FaultPlan& plan);
  /// Outage of a single destination endpoint (one dead server).
  FaultWindow(FaultPlan& plan, const Endpoint& dst);
  ~FaultWindow();

  FaultWindow(const FaultWindow&) = delete;
  FaultWindow& operator=(const FaultWindow&) = delete;

 private:
  FaultPlan& plan_;
  std::optional<Endpoint> dst_;
};

}  // namespace nxd::net
