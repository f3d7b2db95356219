#include "resolver/zone.hpp"

#include <algorithm>
#include <set>

namespace nxd::resolver {

Zone::Zone(dns::DomainName origin, dns::SoaData soa)
    : origin_(std::move(origin)), soa_(std::move(soa)) {}

dns::ResourceRecord Zone::soa_record() const {
  return dns::make_soa(origin_, soa_);
}

bool Zone::add(dns::ResourceRecord rr) {
  if (!rr.name.is_subdomain_of(origin_)) return false;
  nodes_[rr.name].push_back(std::move(rr));
  return true;
}

LookupResult Zone::lookup(const dns::DomainName& name, dns::RRType type) const {
  if (!name.is_subdomain_of(origin_)) {
    return LookupResult{LookupKind::NxDomain, {}};
  }

  // Zone-cut check: walk the ancestors of `name` strictly below the origin,
  // highest first.  The first NS set found is a delegation and shadows any
  // (stale) data at or below it — including records at `name` itself.  NS
  // records at the zone apex are authoritative data, not a cut, and the
  // walk never reaches the apex.
  const std::size_t origin_depth = origin_.label_count();
  for (std::size_t depth = origin_depth + 1; depth <= name.label_count();
       ++depth) {
    const dns::DomainName ancestor = name.suffix(depth);
    const auto it = nodes_.find(ancestor);
    if (it == nodes_.end()) continue;
    const bool has_ns = std::any_of(
        it->second.begin(), it->second.end(),
        [](const dns::ResourceRecord& rr) { return rr.type() == dns::RRType::NS; });
    if (!has_ns) continue;
    // A cut at the query name itself still delegates (the parent side of a
    // cut is never authoritative for it) — except for the NS set itself,
    // which the parent may serve as the referral data.
    if (ancestor == name && type == dns::RRType::NS) break;
    LookupResult out{LookupKind::Delegation, {}};
    for (const auto& ns : it->second) {
      if (ns.type() == dns::RRType::NS) out.records.push_back(ns);
    }
    return out;
  }

  const auto it = nodes_.find(name);
  if (it == nodes_.end()) {
    // The name itself is absent, but if any stored name lies *below* it, the
    // queried name is an "empty non-terminal" and must yield NOERROR/NoData
    // rather than NXDomain (RFC 8020 semantics).
    for (const auto& [stored, records] : nodes_) {
      if (stored != name && stored.is_subdomain_of(name)) {
        return LookupResult{LookupKind::NoData, {}};
      }
    }
    return LookupResult{LookupKind::NxDomain, {}};
  }

  LookupResult out;
  for (const auto& rr : it->second) {
    if (rr.type() == type) out.records.push_back(rr);
  }
  if (!out.records.empty()) {
    out.kind = LookupKind::Answer;
    return out;
  }
  // CNAME at the name answers any type except a query for the CNAME itself.
  for (const auto& rr : it->second) {
    if (rr.type() == dns::RRType::CNAME && type != dns::RRType::CNAME) {
      out.kind = LookupKind::CName;
      out.records.push_back(rr);
      return out;
    }
  }
  out.kind = LookupKind::NoData;
  return out;
}

std::optional<NsecCover> Zone::nsec_cover(const dns::DomainName& qname) const {
  if (!qname.is_subdomain_of(origin_)) return std::nullopt;
  // Only sound for names the zone is authoritative over: if lookup would
  // refer the query away (below a cut) there is no proof to give.
  if (lookup(qname, dns::RRType::A).kind != LookupKind::NxDomain) {
    return std::nullopt;
  }

  // The chain spans every *existing* name: apex, stored owners, and the
  // empty non-terminals implied by deeper owners.  Sorted canonically so a
  // single adjacent pair brackets the absent qname.
  struct CanonicalLess {
    bool operator()(const dns::DomainName& a, const dns::DomainName& b) const {
      return dns::canonical_less(a, b);
    }
  };
  std::set<dns::DomainName, CanonicalLess> chain;
  chain.insert(origin_);
  for (const auto& [name, records] : nodes_) {
    for (auto walk = name; walk != origin_ && walk.is_subdomain_of(origin_);
         walk = walk.parent()) {
      chain.insert(walk);
    }
  }

  const auto upper = chain.upper_bound(qname);
  // qname is under the origin and absent, so the apex — canonically minimal
  // in its own subtree — is always strictly below it: upper != begin().
  const auto& next = upper == chain.end() ? origin_ : *upper;
  const auto& owner = *std::prev(upper);
  const auto owner_records = nodes_.find(owner);
  const bool is_delegation =
      owner != origin_ && owner_records != nodes_.end() &&
      std::any_of(owner_records->second.begin(), owner_records->second.end(),
                  [](const dns::ResourceRecord& rr) {
                    return rr.type() == dns::RRType::NS;
                  });
  return NsecCover{owner, next, is_delegation};
}

std::size_t Zone::record_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [name, records] : nodes_) n += records.size();
  return n;
}

}  // namespace nxd::resolver
