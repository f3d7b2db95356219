#include "util/civil_time.hpp"

#include <algorithm>
#include <cstdio>

namespace nxd::util {

Day to_day(const CivilDate& d) noexcept {
  // Howard Hinnant, "chrono-Compatible Low-Level Date Algorithms".
  const int y = d.year - (d.month <= 2 ? 1 : 0);
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);            // [0, 399]
  const unsigned doy =
      (153 * (d.month + (d.month > 2 ? -3 : 9)) + 2) / 5 + d.day - 1;   // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;           // [0, 146096]
  return static_cast<Day>(era) * 146097 + static_cast<Day>(doe) - 719468;
}

CivilDate from_day(Day z) noexcept {
  // Days can come from outside input (a decoded pdns frame).  Clamping to
  // +/-2^39 days (about 1.5 billion years) keeps every step below, and the
  // int year, free of overflow.
  constexpr Day kLimit = Day{1} << 39;
  z = std::clamp(z, -kLimit, kLimit);
  z += 719468;
  const Day era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);          // [0, 146096]
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;             // [0, 399]
  const int y = static_cast<int>(yoe) + static_cast<int>(era) * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);          // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                               // [0, 11]
  const unsigned day = doy - (153 * mp + 2) / 5 + 1;                     // [1, 31]
  const unsigned month = mp + (mp < 10 ? 3 : -9);                        // [1, 12]
  return CivilDate{y + (month <= 2 ? 1 : 0), month, day};
}

std::int64_t month_index(Day z) noexcept {
  const CivilDate d = from_day(z);
  return static_cast<std::int64_t>(d.year) * 12 + static_cast<std::int64_t>(d.month) - 1;
}

std::string format_month(std::int64_t month_idx) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%04d-%02u", static_cast<int>(month_idx / 12),
                static_cast<unsigned>(month_idx % 12 + 1));
  return buf;
}

}  // namespace nxd::util
