#include "resolver/authoritative.hpp"

#include <utility>

namespace nxd::resolver {

Zone& AuthoritativeServer::add_zone(dns::DomainName origin, dns::SoaData soa) {
  auto& zone = zones_[origin.to_string()];
  if (!zone) zone = std::make_unique<Zone>(std::move(origin), std::move(soa));
  return *zone;
}

const Zone* AuthoritativeServer::find_zone(const dns::DomainName& name) const {
  // Each tail of the text after a dot is an ancestor's text; "." is last.
  const std::string text = name.to_string();
  std::string_view suffix = text;
  while (true) {
    if (const auto it = zones_.find(suffix); it != zones_.end()) {
      return it->second.get();
    }
    if (suffix == ".") return nullptr;
    const std::size_t dot = suffix.find('.');
    suffix = dot == std::string_view::npos ? "." : suffix.substr(dot + 1);
  }
}

const Zone* AuthoritativeServer::zone_at(const dns::DomainName& origin) const {
  const auto it = zones_.find(origin.to_string());
  return it == zones_.end() ? nullptr : it->second.get();
}

bool AuthoritativeServer::remove_zone(const dns::DomainName& origin) {
  return zones_.erase(origin.to_string()) > 0;
}

dns::Message AuthoritativeServer::answer(const dns::Message& query) const {
  ++queries_;
  if (query.questions.empty()) {
    return dns::make_response(query, dns::RCode::FormErr);
  }
  const auto& q = query.questions.front();
  const Zone* zone = find_zone(q.name);
  if (zone == nullptr) {
    return dns::make_response(query, dns::RCode::Refused);
  }

  dns::Message response = dns::make_response(query, dns::RCode::NoError);
  response.header.aa = true;
  response.header.ra = false;

  dns::DomainName lookup_name = q.name;
  // Chase CNAME chains inside this server's data (bounded to avoid loops).
  for (int hops = 0; hops < 8; ++hops) {
    const LookupResult result = zone->lookup(lookup_name, q.qtype);
    switch (result.kind) {
      case LookupKind::Answer:
        for (const auto& rr : result.records) response.answers.push_back(rr);
        return response;
      case LookupKind::CName: {
        response.answers.push_back(result.records.front());
        const auto& target =
            std::get<dns::CnameData>(result.records.front().rdata).target;
        // Chase only within the answering zone.  A target in another zone —
        // even one this server hosts — is the resolver's problem to restart
        // (RFC 1034 §3.6.2 servers answer from one zone of authority);
        // chasing it here would silently absorb cross-zone alias chains.
        if (!target.is_subdomain_of(zone->origin())) return response;
        lookup_name = target;
        continue;
      }
      case LookupKind::Delegation:
        response.header.aa = false;
        for (const auto& rr : result.records) {
          response.authorities.push_back(rr);
        }
        return response;
      case LookupKind::NoData:
        response.authorities.push_back(zone->soa_record());
        return response;
      case LookupKind::NxDomain:
        ++nxdomains_;
        response.header.rcode = dns::RCode::NXDomain;
        response.authorities.push_back(zone->soa_record());
        if (range_proofs_) {
          if (const auto cover = zone->nsec_cover(lookup_name)) {
            response.authorities.push_back(
                dns::make_nsec(cover->owner, cover->next,
                               cover->owner_is_delegation, zone->soa().minimum));
          }
        }
        return response;
    }
  }
  return dns::make_response(query, dns::RCode::ServFail);
}

}  // namespace nxd::resolver
