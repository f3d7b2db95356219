#include "pdns/manifest.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>

#include "pdns/snapshot.hpp"
#include "util/bytes.hpp"
#include "util/checked_io.hpp"

namespace nxd::pdns {

namespace {

constexpr std::uint32_t kBaseMagic = 0x4e584350;      // "NXCP"
constexpr std::uint16_t kBaseVersion = 1;
constexpr std::uint32_t kDeltaMagic = 0x4e58444c;     // "NXDL"
constexpr std::uint16_t kDeltaVersion = 1;
constexpr std::uint32_t kManifestMagic = 0x4e584d46;  // "NXMF"
constexpr std::uint16_t kManifestVersion = 1;

/// A manifest that claims more deltas than this is corrupt, not ambitious
/// (kMaxShards shards × a long uncompacted chain still stays far below it).
constexpr std::uint32_t kMaxManifestDeltas = 1u << 16;

constexpr std::size_t kBaseHeaderBytes = 4 + 2 + 8;
constexpr std::size_t kDeltaHeaderBytes = 4 + 2 + 8 + 4;

void put_u64(util::ByteWriter& w, std::uint64_t v) {
  w.u32(static_cast<std::uint32_t>(v >> 32));
  w.u32(static_cast<std::uint32_t>(v));
}

std::uint64_t get_u64(util::ByteReader& r) {
  const std::uint64_t hi = r.u32();
  return (hi << 32) | r.u32();
}

}  // namespace

// ---- file naming -----------------------------------------------------------

std::string base_path(const std::string& dir, std::uint64_t batches) {
  char name[48];
  std::snprintf(name, sizeof(name), "snapshot-%012" PRIu64 ".nxs", batches);
  return dir + "/" + name;
}

std::string delta_path(const std::string& dir, std::uint64_t frontier,
                       std::uint32_t shard) {
  char name[64];
  std::snprintf(name, sizeof(name), "delta-%012" PRIu64 "-%03u.nxd", frontier,
                shard);
  return dir + "/" + name;
}

std::string manifest_path(const std::string& dir, std::uint64_t frontier) {
  char name[48];
  std::snprintf(name, sizeof(name), "manifest-%012" PRIu64 ".nxm", frontier);
  return dir + "/" + name;
}

std::vector<std::pair<std::uint64_t, std::string>> list_bases(
    const std::string& dir) {
  return util::list_numbered(dir, "snapshot-", ".nxs", /*newest_first=*/true);
}

std::vector<std::pair<std::uint64_t, std::string>> list_manifests(
    const std::string& dir) {
  return util::list_numbered(dir, "manifest-", ".nxm", /*newest_first=*/true);
}

std::vector<DeltaFile> list_deltas(const std::string& dir) {
  std::vector<DeltaFile> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string filename = entry.path().filename().string();
    // "delta-<frontier 12>-<shard 3>.nxd": split on the second dash.
    if (!filename.starts_with("delta-") || !filename.ends_with(".nxd")) {
      continue;
    }
    const auto dash = filename.rfind('-');
    if (dash == std::string::npos || dash <= 6) continue;
    const auto frontier =
        util::parse_numbered(filename.substr(0, dash), "delta-", "");
    const auto shard = util::parse_numbered(filename.substr(dash), "-", ".nxd");
    if (!frontier || !shard || *shard > 0xffffffffULL) continue;
    out.push_back({*frontier, static_cast<std::uint32_t>(*shard),
                   entry.path().string()});
  }
  std::sort(out.begin(), out.end(), [](const DeltaFile& a, const DeltaFile& b) {
    return std::tie(a.frontier, a.shard) < std::tie(b.frontier, b.shard);
  });
  return out;
}

// ---- manifest codec ---------------------------------------------------------

std::vector<std::uint8_t> Manifest::encode_record() const {
  util::ByteWriter w;
  // Headroom for the record header, filled when the record is written.
  for (std::size_t i = 0; i < util::kRecordHeaderBytes; ++i) w.u8(0);
  w.u32(kManifestMagic);
  w.u16(kManifestVersion);
  put_u64(w, frontier);
  put_u64(w, base_batches);
  put_u64(w, wal_floor_segment);
  w.u32(static_cast<std::uint32_t>(deltas.size()));
  for (const auto& delta : deltas) {
    put_u64(w, delta.frontier);
    w.u32(delta.shard);
  }
  return std::move(w).take();
}

std::optional<Manifest> Manifest::decode(
    std::span<const std::uint8_t> payload) {
  util::ByteReader r(payload);
  if (r.u32() != kManifestMagic) return std::nullopt;
  if (r.u16() != kManifestVersion) return std::nullopt;
  Manifest m;
  m.frontier = get_u64(r);
  m.base_batches = get_u64(r);
  m.wal_floor_segment = get_u64(r);
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > kMaxManifestDeltas) return std::nullopt;
  m.deltas.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ManifestDelta d;
    d.frontier = get_u64(r);
    d.shard = r.u32();
    m.deltas.push_back(d);
  }
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  // Structural sanity: the chain must sit between base and frontier in
  // ascending order — anything else cannot have been written by checkpoint().
  if (m.base_batches > m.frontier) return std::nullopt;
  for (std::size_t i = 0; i < m.deltas.size(); ++i) {
    const auto& d = m.deltas[i];
    if (d.frontier <= m.base_batches || d.frontier > m.frontier) {
      return std::nullopt;
    }
    if (i > 0) {
      const auto& prev = m.deltas[i - 1];
      if (std::tie(prev.frontier, prev.shard) >= std::tie(d.frontier, d.shard)) {
        return std::nullopt;
      }
    }
  }
  return m;
}

std::optional<Manifest> load_manifest_file(const std::string& path) {
  const auto payload = util::read_file_checked(path);
  if (!payload) return std::nullopt;
  return Manifest::decode(*payload);
}

// ---- chain-file payload codecs ----------------------------------------------

std::vector<std::uint8_t> encode_base_record(std::uint64_t batches,
                                             const PassiveDnsStore& store) {
  auto record =
      save_snapshot(store, util::kRecordHeaderBytes + kBaseHeaderBytes);
  std::uint8_t* p = record.data() + util::kRecordHeaderBytes;
  util::store_be32(p, kBaseMagic);
  util::store_be16(p + 4, kBaseVersion);
  util::store_be64(p + 6, batches);
  return record;
}

std::optional<LoadedBase> load_base_file(const std::string& path) {
  const auto payload = util::read_file_checked(path);
  if (!payload) return std::nullopt;
  util::ByteReader r(*payload);
  if (r.u32() != kBaseMagic) return std::nullopt;
  if (r.u16() != kBaseVersion) return std::nullopt;
  const std::uint64_t batches = get_u64(r);
  if (!r.ok()) return std::nullopt;
  auto store = load_snapshot(
      std::span(*payload).subspan(payload->size() - r.remaining()));
  if (!store) return std::nullopt;
  return LoadedBase{std::move(*store), batches};
}

std::vector<std::uint8_t> encode_delta_record(std::uint64_t frontier,
                                              std::uint32_t shard,
                                              const PassiveDnsStore& store) {
  auto record =
      save_snapshot(store, util::kRecordHeaderBytes + kDeltaHeaderBytes);
  std::uint8_t* p = record.data() + util::kRecordHeaderBytes;
  util::store_be32(p, kDeltaMagic);
  util::store_be16(p + 4, kDeltaVersion);
  util::store_be64(p + 6, frontier);
  util::store_be32(p + 14, shard);
  return record;
}

std::optional<PassiveDnsStore> load_delta_file(const std::string& path,
                                               std::uint64_t expect_frontier,
                                               std::uint32_t expect_shard) {
  const auto payload = util::read_file_checked(path);
  if (!payload) return std::nullopt;
  util::ByteReader r(*payload);
  if (r.u32() != kDeltaMagic) return std::nullopt;
  if (r.u16() != kDeltaVersion) return std::nullopt;
  const std::uint64_t frontier = get_u64(r);
  const std::uint32_t shard = r.u32();
  if (!r.ok() || frontier != expect_frontier || shard != expect_shard) {
    return std::nullopt;
  }
  return load_snapshot(
      std::span(*payload).subspan(payload->size() - r.remaining()));
}

}  // namespace nxd::pdns
