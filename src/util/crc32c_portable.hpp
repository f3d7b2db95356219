// The portable CRC32C body (slicing-by-4 over four 256-entry tables):
// util::crc32c's path on CPUs without the SSE4.2 crc32 instruction.  It is a
// header so the unit tests compile it beside the hardware path and check
// both against a bitwise reference on one machine.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace nxd::util {

namespace crc32c_detail {

// Reflected Castagnoli polynomial.
inline constexpr std::uint32_t kPoly = 0x82f63b78u;

struct Tables {
  // t[0] is the classic byte table; t[1..3] extend it for slicing-by-4.
  std::array<std::array<std::uint32_t, 256>, 4> t{};

  constexpr Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xff];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xff];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xff];
    }
  }
};

inline constexpr Tables kTables{};

}  // namespace crc32c_detail

/// util::crc32c computed with tables only; same values on every CPU.
inline std::uint32_t crc32c_portable(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept {
  const auto& t = crc32c_detail::kTables.t;
  std::uint32_t c = ~crc;
  std::size_t i = 0;
  for (; i + 4 <= data.size(); i += 4) {
    c ^= static_cast<std::uint32_t>(data[i]) |
         (static_cast<std::uint32_t>(data[i + 1]) << 8) |
         (static_cast<std::uint32_t>(data[i + 2]) << 16) |
         (static_cast<std::uint32_t>(data[i + 3]) << 24);
    c = t[3][c & 0xff] ^ t[2][(c >> 8) & 0xff] ^ t[1][(c >> 16) & 0xff] ^
        t[0][c >> 24];
  }
  for (; i < data.size(); ++i) {
    c = (c >> 8) ^ t[0][(c ^ data[i]) & 0xff];
  }
  return ~c;
}

}  // namespace nxd::util
