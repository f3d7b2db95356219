#include "resolver/hierarchy.hpp"

#include <algorithm>

namespace nxd::resolver {

namespace {

const std::string kDefaultTlds[] = {"com", "net", "org", "info", "io"};

}  // namespace

bool is_referral(const dns::Message& response) {
  return response.header.rcode == dns::RCode::NoError &&
         response.answers.empty() &&
         std::any_of(response.authorities.begin(), response.authorities.end(),
                     [](const dns::ResourceRecord& rr) {
                       return rr.type() == dns::RRType::NS;
                     });
}

std::vector<net::Endpoint> HierarchyEndpoints::tier_servers(
    ServerTier tier) const {
  std::vector<net::Endpoint> out;
  switch (tier) {
    case ServerTier::Root:
      out.push_back(root);
      out.insert(out.end(), root_replicas.begin(), root_replicas.end());
      break;
    case ServerTier::Tld:
      out.push_back(tld);
      out.insert(out.end(), tld_replicas.begin(), tld_replicas.end());
      break;
    case ServerTier::Authoritative:
      out.push_back(auth);
      out.insert(out.end(), auth_replicas.begin(), auth_replicas.end());
      break;
  }
  return out;
}

HierarchyEndpoints HierarchyEndpoints::with_replicas(int per_tier) {
  HierarchyEndpoints endpoints;
  const auto sibling = [](const net::Endpoint& primary, int offset) {
    const std::uint32_t addr = primary.ip.addr + static_cast<std::uint32_t>(offset);
    return net::Endpoint{dns::IPv4{addr}, primary.port};
  };
  for (int i = 1; i < per_tier; ++i) {
    endpoints.root_replicas.push_back(sibling(endpoints.root, i));
    endpoints.tld_replicas.push_back(sibling(endpoints.tld, i));
    endpoints.auth_replicas.push_back(sibling(endpoints.auth, i));
  }
  return endpoints;
}

DnsHierarchy::DnsHierarchy() {
  for (const auto& tld : kDefaultTlds) add_tld(tld);
}

void DnsHierarchy::add_tld(const std::string& tld) { tld_registry_.insert(tld); }

bool DnsHierarchy::has_tld(const std::string& tld) const {
  return tld_registry_.contains(tld);
}

dns::SoaData DnsHierarchy::make_soa(const dns::DomainName& zone_origin) const {
  dns::SoaData soa;
  soa.mname = *zone_origin.child("ns1");
  soa.rname = *zone_origin.child("hostmaster");
  soa.serial = 1;
  soa.minimum = 300;
  return soa;
}

bool DnsHierarchy::register_domain(const dns::DomainName& domain,
                                   dns::IPv4 address, std::uint32_t ttl) {
  if (domain.label_count() < 2) return false;
  const dns::DomainName reg = domain.registered_domain();
  if (auth_.zone_at(reg) != nullptr) return false;

  add_tld(std::string(reg.tld()));
  Zone& zone = auth_.add_zone(reg, make_soa(reg));
  zone.add(dns::make_a(reg, address, ttl));
  if (const auto www = reg.child("www")) {
    zone.add(dns::make_a(*www, address, ttl));
  }
  if (const auto ns1 = reg.child("ns1")) {
    zone.add(dns::make_ns(reg, *ns1));
  }
  return true;
}

void DnsHierarchy::deregister_domain(const dns::DomainName& domain) {
  auth_.remove_zone(domain.registered_domain());
}

bool DnsHierarchy::is_registered(const dns::DomainName& domain) const {
  return auth_.zone_at(domain.registered_domain()) != nullptr;
}

Zone* DnsHierarchy::zone_of(const dns::DomainName& domain) {
  return auth_.zone_at(domain.registered_domain());
}

dns::Message DnsHierarchy::answer_at(ServerTier tier,
                                     const dns::Message& query) const {
  if (query.questions.empty()) {
    return dns::make_response(query, dns::RCode::FormErr);
  }
  const dns::DomainName& qname = query.questions.front().name;
  // The root and TLD servers' SOAs, parsed once.
  static const dns::SoaData kRootSoa{
      .mname = dns::DomainName::must("a.root-servers.net"),
      .rname = dns::DomainName::must("nstld.verisign-grs.com"),
      .minimum = 86'400};
  static const dns::SoaData kTldSoa{
      .mname = dns::DomainName::must("a.gtld-servers.net"),
      .rname = kRootSoa.rname,
      .minimum = 900};

  switch (tier) {
    case ServerTier::Root: {
      // The root knows which TLDs exist.
      ++root_queries_;
      if (qname.is_root()) {
        return dns::make_response(query, dns::RCode::NoError);
      }
      const std::string tld(qname.tld());
      if (!tld_registry_.contains(tld)) {
        return dns::make_nxdomain(query,
                                  dns::make_soa(dns::DomainName{}, kRootSoa));
      }
      dns::Message referral = dns::make_response(query, dns::RCode::NoError);
      referral.authorities.push_back(
          dns::make_ns(qname.suffix(1), kTldSoa.mname));
      return referral;
    }

    case ServerTier::Tld: {
      // The TLD server knows which registered domains are delegated.
      ++tld_queries_;
      const std::string tld(qname.tld());
      if (!tld_registry_.contains(tld)) {
        // Lame query for a TLD this server farm does not carry.
        return dns::make_response(query, dns::RCode::Refused);
      }
      const dns::DomainName reg = qname.registered_domain();
      if (auth_.zone_at(reg) == nullptr) {
        return dns::make_nxdomain(
            query, dns::make_soa(qname.suffix(1), kTldSoa));
      }
      dns::Message referral = dns::make_response(query, dns::RCode::NoError);
      if (const auto ns1 = reg.child("ns1")) {
        referral.authorities.push_back(dns::make_ns(reg, *ns1));
      }
      return referral;
    }

    case ServerTier::Authoritative:
      ++auth_queries_;
      return auth_.answer(query);
  }
  return dns::make_response(query, dns::RCode::ServFail);  // unreachable
}

void DnsHierarchy::attach(net::SimNetwork& network,
                          const HierarchyEndpoints& endpoints) const {
  // Every replica of a tier answers identically — one shared farm behind
  // several addresses, so fault plans can hit replicas individually.
  for (const ServerTier tier : {ServerTier::Root, ServerTier::Tld,
                                ServerTier::Authoritative}) {
    for (const net::Endpoint& endpoint : endpoints.tier_servers(tier)) {
      network.attach(endpoint, net::Protocol::UDP,
                     [this, tier](const net::SimPacket& packet)
                         -> std::optional<std::vector<std::uint8_t>> {
                       const auto query = dns::decode(packet.payload);
                       // A corrupted/truncated query never reaches the DNS
                       // logic: real servers drop what they cannot parse.
                       if (!query || query->header.qr) return std::nullopt;
                       return dns::encode(answer_at(tier, *query));
                     });
    }
  }
}

dns::Message DnsHierarchy::resolve_iterative(const dns::Message& query,
                                             IterativeTrace* trace) const {
  auto note = [&](IterationStep::Server server, std::string label,
                  std::string outcome) {
    if (trace != nullptr) {
      trace->steps.push_back(IterationStep{server, std::move(label), std::move(outcome)});
    }
  };

  if (query.questions.empty()) {
    return dns::make_response(query, dns::RCode::FormErr);
  }
  const dns::DomainName& qname = query.questions.front().name;

  // Step 1: root server.
  dns::Message root_response = answer_at(ServerTier::Root, query);
  if (qname.is_root()) {
    note(IterationStep::Server::Root, ".", "answer (root)");
    return root_response;
  }
  const std::string tld(qname.tld());
  if (root_response.header.rcode == dns::RCode::NXDomain) {
    note(IterationStep::Server::Root, ".", "NXDOMAIN (no such TLD)");
    return root_response;
  }
  note(IterationStep::Server::Root, ".", "referral to " + tld + ".");

  // Step 2: TLD server.
  const dns::DomainName reg = qname.registered_domain();
  dns::Message tld_response = answer_at(ServerTier::Tld, query);
  if (!is_referral(tld_response)) {
    note(IterationStep::Server::Tld, tld + ".", "NXDOMAIN (not delegated)");
    return tld_response;
  }
  note(IterationStep::Server::Tld, tld + ".", "referral to " + reg.to_string());

  // Step 3: authoritative server for the registered domain.
  dns::Message response = answer_at(ServerTier::Authoritative, query);
  note(IterationStep::Server::Authoritative, reg.to_string(),
       dns::to_string(response.header.rcode));
  return response;
}

}  // namespace nxd::resolver
