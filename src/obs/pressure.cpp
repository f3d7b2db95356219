#include "obs/pressure.hpp"

namespace nxd::obs {

const char* to_string(PressureLevel level) noexcept {
  switch (level) {
    case PressureLevel::Normal:
      return "normal";
    case PressureLevel::Elevated:
      return "elevated";
    case PressureLevel::High:
      return "high";
    case PressureLevel::Critical:
      return "critical";
  }
  return "?";
}

PressureSignal::PressureSignal(PressureThresholds thresholds)
    : thresholds_(thresholds),
      own_registry_(std::make_unique<MetricsRegistry>()) {
  acquire_metrics(*own_registry_);
}

void PressureSignal::acquire_metrics(MetricsRegistry& registry) {
  m_.raised = registry.counter("nxd_pressure_raised_total",
                               "Degradation-ladder level steps climbed");
  m_.lowered = registry.counter("nxd_pressure_lowered_total",
                                "Degradation-ladder level steps released");
  m_.updates = registry.counter("nxd_pressure_updates_total",
                                "Pressure-signal input samples");
  m_.level = registry.gauge("nxd_pressure_level",
                            "Current degradation level (0=normal..3=critical)");
  m_.wal_lag = registry.gauge("nxd_pressure_wal_lag_batches",
                              "Last sampled WAL group-commit lag (batches)");
  m_.checkpoint_debt =
      registry.gauge("nxd_pressure_checkpoint_debt",
                     "Last sampled checkpoint debt (batches + chain length)");
}

void PressureSignal::bind_metrics(MetricsRegistry& registry) {
  if (own_registry_ != nullptr) registry.absorb(own_registry_->snapshot());
  acquire_metrics(registry);
  own_registry_.reset();
}

int PressureSignal::raise_target(const PressureInputs& in) const noexcept {
  int level = 0;
  for (int i = 0; i < 3; ++i) {
    if (in.wal_lag_batches >= thresholds_.wal_lag[i] ||
        in.checkpoint_debt >= thresholds_.checkpoint_debt[i]) {
      level = i + 1;
    }
  }
  return level;
}

int PressureSignal::release_floor(const PressureInputs& in) const noexcept {
  // Hysteresis: holding a level requires an input at or above HALF its
  // raise threshold — dropping below that on every input releases the step.
  int level = 0;
  for (int i = 0; i < 3; ++i) {
    if (in.wal_lag_batches >= thresholds_.wal_lag[i] / 2 ||
        in.checkpoint_debt >= thresholds_.checkpoint_debt[i] / 2) {
      level = i + 1;
    }
  }
  return level;
}

PressureLevel PressureSignal::update(const PressureInputs& inputs,
                                     util::SimTime) {
  inputs_ = inputs;
  m_.updates.inc();
  m_.wal_lag.set(static_cast<std::int64_t>(inputs.wal_lag_batches));
  m_.checkpoint_debt.set(static_cast<std::int64_t>(inputs.checkpoint_debt));

  const int current = level_.load(std::memory_order_relaxed);
  const int target = raise_target(inputs);
  int next = current;
  if (target > current) {
    next = target;
    m_.raised.inc(static_cast<std::uint64_t>(target - current));
  } else {
    const int floor = release_floor(inputs);
    if (floor < current) {
      next = floor;
      m_.lowered.inc(static_cast<std::uint64_t>(current - floor));
    }
  }
  if (next != current) level_.store(next, std::memory_order_relaxed);
  const int floor = external_floor_.load(std::memory_order_relaxed);
  const int effective = next >= floor ? next : floor;
  m_.level.set(effective);
  return static_cast<PressureLevel>(effective);
}

void PressureSignal::set_external_floor(int level) noexcept {
  if (level < 0) level = 0;
  if (level > 3) level = 3;
  external_floor_.store(level, std::memory_order_relaxed);
  m_.level.set(level_index());
}

PressureStats PressureSignal::stats() const noexcept {
  PressureStats s;
  s.raised = m_.raised.value();
  s.lowered = m_.lowered.value();
  s.updates = m_.updates.value();
  return s;
}

}  // namespace nxd::obs
