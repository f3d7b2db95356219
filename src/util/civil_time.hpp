// Civil (proleptic Gregorian) calendar arithmetic on a day index, plus the
// simulated clock the measurement pipelines run on.
//
// The whole library models time as "days since 1970-01-01" (`Day`) and
// "seconds since epoch" (`SimTime`).  Nothing reads the wall clock: every
// experiment is replayable.
#pragma once

#include <cstdint>
#include <string>

namespace nxd::util {

/// Days since 1970-01-01 (can be negative).
using Day = std::int64_t;

/// Seconds since 1970-01-01T00:00:00Z in the simulation.
using SimTime = std::int64_t;

constexpr SimTime kSecondsPerDay = 86'400;

struct CivilDate {
  int year;
  unsigned month;  // 1..12
  unsigned day;    // 1..31

  friend bool operator==(const CivilDate&, const CivilDate&) = default;
};

/// Hinnant's days_from_civil: exact for all proleptic Gregorian dates.
Day to_day(const CivilDate& d) noexcept;

/// Inverse of to_day.  Days beyond +/-2^39 (about 1.5 billion years) clamp
/// to that bound, so any Day, even from outside input, yields a valid date.
CivilDate from_day(Day z) noexcept;

/// Month index since 1970-01 (year*12 + month-1 shifted); convenient key for
/// per-month aggregation across the paper's 2014-2022 window.
std::int64_t month_index(Day z) noexcept;

/// "YYYY-MM" label for a month index.
std::string format_month(std::int64_t month_idx);

/// Deterministic simulation clock.  Advancing is explicit; the honeypot,
/// resolver caches, and lifecycle engine all take their notion of "now" from
/// one of these.
class SimClock {
 public:
  explicit SimClock(SimTime start = 0) noexcept : now_(start) {}

  SimTime now() const noexcept { return now_; }
  Day today() const noexcept { return now_ / kSecondsPerDay; }

  void advance(SimTime seconds) noexcept { now_ += seconds; }
  void advance_days(std::int64_t days) noexcept {
    now_ += days * kSecondsPerDay;
  }
  void set(SimTime t) noexcept { now_ = t; }

 private:
  SimTime now_;
};

}  // namespace nxd::util
