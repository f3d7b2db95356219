// Reference decoder for SIE batch frames, the differential oracle for the
// zero-copy pdns::FrameView.
//
// It materializes every observation: a std::string for the name text, a
// parsed DomainName, and a re-serialization to enforce canonical encoding.
// It shares only the wire constants with FrameView, so the parity suites
// (ingest_fastpath_test, fuzz_test) compare two independent codepaths.
//
// Strict: rejects (nullopt) bad magic or version, a truncated payload,
// trailing bytes, unparseable or non-canonical names, and an unknown rcode
// or sensor class.  All-or-nothing: no partial batch is ever returned.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "pdns/frame_view.hpp"
#include "pdns/observation.hpp"
#include "util/bytes.hpp"

namespace nxd::oracle {

inline std::optional<std::vector<pdns::Observation>> decode_batch_frame(
    std::span<const std::uint8_t> bytes) {
  const auto get_u64 = [](util::ByteReader& r) {
    const std::uint64_t hi = r.u32();
    return (hi << 32) | r.u32();
  };
  util::ByteReader r(bytes);
  if (r.u32() != pdns::kSieFrameMagic) return std::nullopt;
  if (r.u16() != pdns::kSieFrameVersion) return std::nullopt;
  const std::uint32_t count = r.u32();
  if (!r.ok()) return std::nullopt;

  std::vector<pdns::Observation> out;
  out.reserve(std::min<std::uint32_t>(count, 4096));
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t name_len = r.u8();
    const std::string name_text = r.str(name_len);
    const std::uint16_t qtype = r.u16();
    const std::uint8_t rcode = r.u8();
    const std::uint64_t when = get_u64(r);
    const std::uint8_t cls = r.u8();
    const std::uint16_t index = r.u16();
    if (!r.ok()) return std::nullopt;
    if (rcode > static_cast<std::uint8_t>(dns::RCode::Refused) ||
        cls > static_cast<std::uint8_t>(pdns::SensorClass::Research)) {
      return std::nullopt;
    }
    auto name = dns::DomainName::parse(name_text);
    if (!name) return std::nullopt;
    // Canonical encoding only: re-serializing the parsed name must give the
    // transmitted bytes (no case or trailing-dot aliases slip through).
    if (name->to_string() != name_text) return std::nullopt;

    pdns::Observation obs;
    obs.name = std::move(*name);
    obs.qtype = static_cast<dns::RRType>(qtype);
    obs.rcode = static_cast<dns::RCode>(rcode);
    obs.when = static_cast<util::SimTime>(when - pdns::kSieTimeBias);
    obs.sensor.cls = static_cast<pdns::SensorClass>(cls);
    obs.sensor.index = index;
    out.push_back(std::move(obs));
  }
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return out;
}

}  // namespace nxd::oracle
