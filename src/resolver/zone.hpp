// Authoritative zone data and lookup semantics.
//
// A Zone owns the records at and below an origin name.  Lookup distinguishes
// the four cases an authoritative server must answer differently:
//   - Answer:      records of the requested type exist at the name
//   - CName:       the name exists as an alias
//   - Delegation:  the name falls under a child zone cut (NS records)
//   - NoData:      the name exists but not with that type (NOERROR/empty)
//   - NxDomain:    the name does not exist in the zone at all
// The NoData/NxDomain distinction is the paper's §2 point: an NXDomain
// response means the *name* does not exist, not merely the record type.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "dns/message.hpp"
#include "dns/record.hpp"

namespace nxd::resolver {

enum class LookupKind {
  Answer,
  CName,
  Delegation,
  NoData,
  NxDomain,
};

struct LookupResult {
  LookupKind kind = LookupKind::NxDomain;
  std::vector<dns::ResourceRecord> records;  // answers, alias, or NS set
};

/// An NSEC-style range proof: the canonically adjacent pair of existing
/// names around a non-existent qname.  `owner < qname < next` in RFC 4034
/// §6.1 order, except at the end of the chain where `next` wraps to the
/// zone apex.  `owner_is_delegation` carries the NS bit of the owner's type
/// bitmap so consumers can honor the RFC 8198 §5.4 caveat (names below a
/// zone cut are not provably absent from the parent's chain).
struct NsecCover {
  dns::DomainName owner;
  dns::DomainName next;
  bool owner_is_delegation = false;
};

class Zone {
 public:
  Zone(dns::DomainName origin, dns::SoaData soa);

  const dns::DomainName& origin() const noexcept { return origin_; }
  const dns::SoaData& soa() const noexcept { return soa_; }
  dns::ResourceRecord soa_record() const;

  /// Add a record; the record's name must be at or below the origin.
  /// Returns false (and ignores the record) otherwise.
  bool add(dns::ResourceRecord rr);

  LookupResult lookup(const dns::DomainName& name, dns::RRType type) const;

  /// Range proof for a name that does NOT exist in the zone: the adjacent
  /// (owner, next) pair in canonical order over every existing name — the
  /// apex, every stored owner name, and every empty non-terminal (ENTs
  /// exist per RFC 8020, so a sound chain must include them).  Returns
  /// nullopt when `name` exists, lies outside the zone, or falls under a
  /// delegation cut (the parent chain proves nothing there).
  std::optional<NsecCover> nsec_cover(const dns::DomainName& name) const;

  std::size_t record_count() const noexcept;

  /// Visit every record in deterministic (owner-name, insertion) order —
  /// used by zone-file export and zone diff tooling.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [name, records] : nodes_) {
      for (const auto& rr : records) fn(rr);
    }
  }

 private:
  struct NodeKey {
    dns::DomainName name;
    friend auto operator<=>(const NodeKey&, const NodeKey&) = default;
  };

  dns::DomainName origin_;
  dns::SoaData soa_;
  // name -> all records at that name.  std::map keeps deterministic order.
  std::map<dns::DomainName, std::vector<dns::ResourceRecord>> nodes_;
};

}  // namespace nxd::resolver
