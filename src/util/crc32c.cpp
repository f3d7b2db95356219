#include "util/crc32c.hpp"

#include <cstring>

#include "util/crc32c_portable.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define NXD_CRC32C_SSE42 1
#endif

namespace nxd::util {

namespace {

#ifdef NXD_CRC32C_SSE42
// The SSE4.2 crc32 instruction computes CRC32C (the Castagnoli polynomial,
// reflected) with neither the pre- nor the post-inversion, so the wrapper
// supplies both, as the table path does.  Compiled for SSE4.2 on its own;
// only called once the CPU has said it has the instruction.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}

bool cpu_has_sse42() noexcept {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has;
}
#endif

}  // namespace

std::uint32_t crc32c(std::uint32_t crc,
                     std::span<const std::uint8_t> data) noexcept {
#ifdef NXD_CRC32C_SSE42
  if (cpu_has_sse42()) return crc32c_sse42(crc, data);
#endif
  return crc32c_portable(crc, data);
}

}  // namespace nxd::util
