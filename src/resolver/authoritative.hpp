// Authoritative server logic: owns zones, answers wire messages.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "dns/message.hpp"
#include "resolver/zone.hpp"

namespace nxd::resolver {

class AuthoritativeServer {
 public:
  /// Add a zone; returns a stable reference for populating records.  The
  /// first zone for an origin wins: adding an origin that is already hosted
  /// returns the existing zone unchanged and ignores `soa`.
  Zone& add_zone(dns::DomainName origin, dns::SoaData soa);

  /// Most-specific zone containing the name, or nullptr.  Probes the name's
  /// own suffixes, longest first: O(label count), whatever the zone count.
  const Zone* find_zone(const dns::DomainName& name) const;

  /// The zone whose origin is exactly `origin`, or nullptr.  O(1).
  const Zone* zone_at(const dns::DomainName& origin) const;
  Zone* zone_at(const dns::DomainName& origin) {
    return const_cast<Zone*>(std::as_const(*this).zone_at(origin));
  }

  /// Drop the zone with exactly this origin; returns false if absent.  O(1).
  bool remove_zone(const dns::DomainName& origin);

  std::size_t zone_count() const noexcept { return zones_.size(); }

  /// Answer one query message.  REFUSED when no zone matches; otherwise the
  /// zone's lookup result rendered per RFC 1035/2308 (NXDomain carries the
  /// SOA in the authority section; CNAMEs are chased within the same zone).
  dns::Message answer(const dns::Message& query) const;

  /// When on, NXDomain responses also carry an NSEC range proof from the
  /// answering zone (the span of non-existence around the qname), enabling
  /// RFC 8198 aggressive negative caching downstream.  Off by default: the
  /// classic single-SOA authority section stays the baseline shape.
  void set_range_proofs(bool on) noexcept { range_proofs_ = on; }
  bool range_proofs() const noexcept { return range_proofs_; }

  std::uint64_t queries_served() const noexcept { return queries_; }
  std::uint64_t nxdomains_served() const noexcept { return nxdomains_; }

 private:
  // Zones by origin wire form (DomainName::wire(), empty for the root).
  // The tail of a name's wire form at each label boundary is an ancestor's
  // wire form: find_zone probes those views without building names or
  // text.  unique_ptr keeps each Zone* valid on rehash.
  struct WireHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view wire) const noexcept {
      return std::hash<std::string_view>{}(wire);
    }
  };
  std::unordered_map<std::string, std::unique_ptr<Zone>, WireHash, std::equal_to<>>
      zones_;
  bool range_proofs_ = false;
  mutable std::uint64_t queries_ = 0;
  mutable std::uint64_t nxdomains_ = 0;
};

}  // namespace nxd::resolver
