// Recovery-manifest and chain-file codecs for pdns::DurableStore's
// incremental checkpoints.
//
// A durable directory holds three kinds of checkpoint artifacts, every one
// an atomically committed, CRC32C-framed file (util::write_record_atomic):
//
//   base    "snapshot-<batches>.nxs"        full store image
//             payload: magic "NXCP" u32 | version u16 | batches u64 |
//                      v2 snapshot bytes
//             (the pre-manifest checkpoint format, unchanged; when no
//             manifest's chain loads — a legacy directory, or one whose
//             every manifest is damaged — the newest valid base is the
//             frontier on its own)
//
//   delta   "delta-<frontier>-<shard>.nxd"  one shard's tail at a frontier
//             payload: magic "NXDL" u32 | version u16 | frontier u64 |
//                      shard u32 | v2 snapshot bytes
//
//   manifest "manifest-<frontier>.nxm"      the consistent-cut pin
//             payload: magic "NXMF" u32 | version u16 | frontier u64 |
//                      base_batches u64 | wal_floor_segment u64 |
//                      delta_count u32 | per delta: frontier u64, shard u32
//
// A manifest pins a byte-exact recovery frontier: load the base image
// (batches 1..base_batches), absorb each listed delta in order (reaching
// 1..frontier), then replay the WAL run seq frontier+1, frontier+2, ...
// (pdns/durable_store.hpp has the one recovery rule).  Every listed
// file must validate; a manifest whose chain is damaged is unusable as a
// whole and recovery falls back to the previous manifest — whose WAL floor
// is still retained, so the same batches are recovered through a longer
// replay instead of being lost.  All integers are big-endian; u64s are
// written high word first (the convention shared by every codec in the
// repo).  Each encoder returns the whole record buffer — kRecordHeaderBytes
// of headroom, then the payload — so a base or delta image is encoded once,
// in the buffer that util::write_record_atomic frames and writes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pdns/store.hpp"

namespace nxd::pdns {

// ---- file naming -----------------------------------------------------------

std::string base_path(const std::string& dir, std::uint64_t batches);
std::string delta_path(const std::string& dir, std::uint64_t frontier,
                       std::uint32_t shard);
std::string manifest_path(const std::string& dir, std::uint64_t frontier);

/// Base snapshot files, newest (highest covered-batch count) first.
std::vector<std::pair<std::uint64_t, std::string>> list_bases(
    const std::string& dir);
/// Manifest files, newest (highest frontier) first.
std::vector<std::pair<std::uint64_t, std::string>> list_manifests(
    const std::string& dir);

struct DeltaFile {
  std::uint64_t frontier = 0;
  std::uint32_t shard = 0;
  std::string path;
};
/// Delta files, ascending (frontier, shard).
std::vector<DeltaFile> list_deltas(const std::string& dir);

// ---- manifest codec ---------------------------------------------------------

struct ManifestDelta {
  std::uint64_t frontier = 0;
  std::uint32_t shard = 0;
  bool operator==(const ManifestDelta&) const = default;
};

struct Manifest {
  std::uint64_t frontier = 0;       ///< batches 1..frontier live in base+deltas
  std::uint64_t base_batches = 0;   ///< 0 = empty base, no base file
  std::uint64_t wal_floor_segment = 0;  ///< first segment that may hold seq > frontier
  std::vector<ManifestDelta> deltas;    ///< chain, ascending (frontier, shard)

  /// The manifest payload as a record buffer (see util::CheckedWriter::append_framed).
  std::vector<std::uint8_t> encode_record() const;
  static std::optional<Manifest> decode(std::span<const std::uint8_t> payload);
};

// ---- chain-file payload codecs ----------------------------------------------

/// Base checkpoint record (the legacy "NXCP" format).
std::vector<std::uint8_t> encode_base_record(std::uint64_t batches,
                                             const PassiveDnsStore& store);
struct LoadedBase {
  PassiveDnsStore store;
  std::uint64_t batches = 0;
};
/// Validate framing, header, and the embedded v2 snapshot of a base file.
std::optional<LoadedBase> load_base_file(const std::string& path);

/// Delta checkpoint record ("NXDL").
std::vector<std::uint8_t> encode_delta_record(std::uint64_t frontier,
                                              std::uint32_t shard,
                                              const PassiveDnsStore& store);
/// Validate and load a delta file; the header's (frontier, shard) must match
/// the expected identity from the manifest (a renamed/cross-linked delta is
/// corruption, not data).
std::optional<PassiveDnsStore> load_delta_file(const std::string& path,
                                               std::uint64_t expect_frontier,
                                               std::uint32_t expect_shard);

/// Read and decode a manifest file; nullopt when unreadable or malformed.
std::optional<Manifest> load_manifest_file(const std::string& path);

}  // namespace nxd::pdns
