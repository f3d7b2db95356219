// Zero-copy SIE batch-frame decoding — the only ingest decoder.
//
// FrameView::parse makes one strict validation pass over a frame
// (reject-whole), then iteration yields ObservationViews whose name is a
// string_view aliasing the frame bytes.  Nothing is allocated per
// observation; views route straight into shard-local ingest.  A separate
// allocating decoder in the tests (tests/frame_oracle.hpp) is the
// differential oracle: the seeded parity suites pin that both accept
// exactly the same frames and decode the same fields.
//
// Lifetime: a FrameView and every ObservationView it yields alias the frame
// buffer passed to parse() — the buffer must outlive them.
//
// Wire format (written by encode_batch_frame, pdns/sie_channel): big-endian,
// magic "SIEB" u32, version u16, count u32, then per observation: name_len
// u8, presentation bytes, qtype u16, rcode u8, when u64 (biased +2^62),
// sensor class u8, sensor index u16.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "pdns/observation.hpp"

namespace nxd::pdns {

// Wire constants — single source of truth for the encoder and decoder.
inline constexpr std::uint32_t kSieFrameMagic = 0x53494542;  // "SIEB"
inline constexpr std::uint16_t kSieFrameVersion = 1;
/// SimTime can be negative (pre-epoch civil dates); biased like the snapshot.
inline constexpr std::uint64_t kSieTimeBias = 1ULL << 62;

/// One observation, decoded in place.  `name` is canonical presentation text
/// (validated by DomainName::is_canonical_text) aliasing the frame buffer.
struct ObservationView {
  std::string_view name;
  dns::RRType qtype = dns::RRType::A;
  dns::RCode rcode = dns::RCode::NoError;
  util::SimTime when = 0;
  SensorId sensor;

  bool is_nxdomain() const noexcept { return rcode == dns::RCode::NXDomain; }
  util::Day day() const noexcept { return when / util::kSecondsPerDay; }

  /// Registered-domain key, byte-identical to
  /// registered_domain_key(DomainName::parse(name)): the last two labels,
  /// the single label, or "." for the root.
  std::string_view registered_key() const noexcept {
    if (name == ".") return name;
    const auto last = name.rfind('.');
    if (last == std::string_view::npos) return name;
    const auto prev = name.rfind('.', last - 1);
    return prev == std::string_view::npos ? name : name.substr(prev + 1);
  }

  /// TLD, byte-identical to DomainName::tld(): last label, empty for root.
  std::string_view tld() const noexcept {
    if (name == ".") return {};
    const auto last = name.rfind('.');
    return last == std::string_view::npos ? name : name.substr(last + 1);
  }

  /// Allocating conversion for the slow path and differential tests.
  Observation materialize() const;
};

/// A strictly validated batch frame, decodable without allocation.
class FrameView {
 public:
  /// Strict parse.  Rejects (nullopt) bad magic or version, truncated
  /// payload, trailing bytes, non-canonical or invalid names, unknown rcode
  /// or sensor class.  All-or-nothing: a frame either validates whole or no
  /// view of it is ever produced.
  static std::optional<FrameView> parse(std::span<const std::uint8_t> frame);

  std::uint32_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  class const_iterator {
   public:
    using value_type = ObservationView;

    ObservationView operator*() const noexcept;
    const_iterator& operator++() noexcept;
    friend bool operator==(const const_iterator& a,
                           const const_iterator& b) noexcept {
      return a.remaining_ == b.remaining_;
    }

   private:
    friend class FrameView;
    const_iterator(const std::uint8_t* p, std::uint32_t remaining) noexcept
        : p_(p), remaining_(remaining) {}
    const std::uint8_t* p_ = nullptr;
    std::uint32_t remaining_ = 0;
  };

  const_iterator begin() const noexcept {
    return const_iterator{records_, count_};
  }
  const_iterator end() const noexcept { return const_iterator{nullptr, 0}; }

 private:
  FrameView(const std::uint8_t* records, std::uint32_t count) noexcept
      : records_(records), count_(count) {}

  const std::uint8_t* records_ = nullptr;  // first record, past the header
  std::uint32_t count_ = 0;
};

}  // namespace nxd::pdns
