#include "dns/record.hpp"

#include <charconv>
#include <cstdio>

#include "util/strings.hpp"

namespace nxd::dns {

std::optional<IPv4> IPv4::parse(std::string_view text) {
  const auto parts = util::split(text, '.');
  if (parts.size() != 4) return std::nullopt;
  std::uint32_t addr = 0;
  for (const auto part : parts) {
    if (part.empty() || part.size() > 3) return std::nullopt;
    unsigned value = 0;
    const auto [ptr, ec] =
        std::from_chars(part.data(), part.data() + part.size(), value);
    if (ec != std::errc{} || ptr != part.data() + part.size() || value > 255) {
      return std::nullopt;
    }
    addr = (addr << 8) | value;
  }
  return IPv4{addr};
}

std::string IPv4::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", octet(0), octet(1), octet(2),
                octet(3));
  return buf;
}

RRType rdata_type(const RData& rdata) noexcept {
  struct Visitor {
    RRType operator()(const IPv4&) const { return RRType::A; }
    RRType operator()(const NsData&) const { return RRType::NS; }
    RRType operator()(const CnameData&) const { return RRType::CNAME; }
    RRType operator()(const SoaData&) const { return RRType::SOA; }
    RRType operator()(const PtrData&) const { return RRType::PTR; }
    RRType operator()(const MxData&) const { return RRType::MX; }
    RRType operator()(const TxtData&) const { return RRType::TXT; }
    RRType operator()(const AaaaData&) const { return RRType::AAAA; }
    RRType operator()(const NsecData&) const { return RRType::NSEC; }
  };
  return std::visit(Visitor{}, rdata);
}

std::string ResourceRecord::to_string() const {
  struct Visitor {
    std::string operator()(const IPv4& ip) const { return ip.to_string(); }
    std::string operator()(const NsData& d) const { return d.ns.to_string(); }
    std::string operator()(const CnameData& d) const {
      return d.target.to_string();
    }
    std::string operator()(const SoaData& d) const {
      return d.mname.to_string() + " " + d.rname.to_string() + " " +
             std::to_string(d.serial);
    }
    std::string operator()(const PtrData& d) const { return d.target.to_string(); }
    std::string operator()(const MxData& d) const {
      return std::to_string(d.preference) + " " + d.exchange.to_string();
    }
    std::string operator()(const TxtData& d) const { return "\"" + d.text + "\""; }
    std::string operator()(const AaaaData&) const { return "<aaaa>"; }
    std::string operator()(const NsecData& d) const {
      return d.next.to_string() + (d.owner_is_delegation ? " NS" : "");
    }
  };
  return name.to_string() + " " + std::to_string(ttl) + " IN " +
         nxd::dns::to_string(type()) + " " + std::visit(Visitor{}, rdata);
}

ResourceRecord make_a(const DomainName& name, IPv4 ip, std::uint32_t ttl) {
  return ResourceRecord{name, RRClass::IN, ttl, ip};
}

ResourceRecord make_ns(const DomainName& zone, const DomainName& ns,
                       std::uint32_t ttl) {
  return ResourceRecord{zone, RRClass::IN, ttl, NsData{ns}};
}

ResourceRecord make_cname(const DomainName& name, const DomainName& target,
                          std::uint32_t ttl) {
  return ResourceRecord{name, RRClass::IN, ttl, CnameData{target}};
}

ResourceRecord make_soa(const DomainName& zone, SoaData soa, std::uint32_t ttl) {
  return ResourceRecord{zone, RRClass::IN, ttl, std::move(soa)};
}

ResourceRecord make_ptr(const DomainName& rev_name, const DomainName& target,
                        std::uint32_t ttl) {
  return ResourceRecord{rev_name, RRClass::IN, ttl, PtrData{target}};
}

ResourceRecord make_txt(const DomainName& name, std::string text,
                        std::uint32_t ttl) {
  return ResourceRecord{name, RRClass::IN, ttl, TxtData{std::move(text)}};
}

ResourceRecord make_nsec(const DomainName& owner, const DomainName& next,
                         bool owner_is_delegation, std::uint32_t ttl) {
  return ResourceRecord{owner, RRClass::IN, ttl,
                        NsecData{next, owner_is_delegation}};
}

}  // namespace nxd::dns
