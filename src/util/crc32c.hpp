// CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum guarding every
// persisted byte: WAL records, checkpoint snapshots, and the checked-record
// framing in util/checked_io.  CRC32C is the same polynomial iSCSI (RFC
// 3720), ext4 metadata, and LevelDB/RocksDB logs use; its published test
// vectors let the unit tests pin the polynomial so the on-disk framing can
// never silently change.
//
// On x86-64 CPUs with SSE4.2 (checked once at run time) the checksum uses the
// crc32 instruction; elsewhere it falls back to the portable slicing-by-4
// tables in util/crc32c_portable.hpp.  Both give the same values.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace nxd::util {

/// CRC of `data` continuing from `crc` (pass 0 to start a new checksum).
/// crc32c(crc32c(0, a), b) == crc32c(0, a+b) — streamable.
std::uint32_t crc32c(std::uint32_t crc,
                     std::span<const std::uint8_t> data) noexcept;

inline std::uint32_t crc32c(std::span<const std::uint8_t> data) noexcept {
  return crc32c(0, data);
}

inline std::uint32_t crc32c(std::string_view data) noexcept {
  return crc32c(0, {reinterpret_cast<const std::uint8_t*>(data.data()),
                    data.size()});
}

}  // namespace nxd::util
