// Bitwise CRC32C reference: one shift-and-xor step per input bit, with no
// table and no instruction, the differential oracle for util::crc32c (the
// SSE4.2 path on CPUs that have it) and util::crc32c_portable (the tables).
#pragma once

#include <cstdint>
#include <span>

namespace nxd::oracle {

/// CRC32C of `data` continuing from `crc`, as util::crc32c defines it.
inline std::uint32_t crc32c_bitwise(std::uint32_t crc,
                                    std::span<const std::uint8_t> data) {
  constexpr std::uint32_t kPoly = 0x82f63b78u;  // Castagnoli, reflected
  std::uint32_t c = ~crc;
  for (const std::uint8_t byte : data) {
    c ^= byte;
    for (int bit = 0; bit < 8; ++bit) c = (c >> 1) ^ (kPoly & (0u - (c & 1u)));
  }
  return ~c;
}

}  // namespace nxd::oracle
