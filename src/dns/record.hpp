// Resource records (RFC 1035 §3.2) with typed RDATA.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <variant>

#include "dns/name.hpp"
#include "dns/types.hpp"

namespace nxd::dns {

/// IPv4 address in host-order integer form with dotted-quad helpers.
struct IPv4 {
  std::uint32_t addr = 0;

  static IPv4 from_octets(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                          std::uint8_t d) noexcept {
    return IPv4{(static_cast<std::uint32_t>(a) << 24) |
                (static_cast<std::uint32_t>(b) << 16) |
                (static_cast<std::uint32_t>(c) << 8) | d};
  }

  static std::optional<IPv4> parse(std::string_view text);

  std::uint8_t octet(int i) const noexcept {
    return static_cast<std::uint8_t>(addr >> (8 * (3 - i)));
  }

  std::string to_string() const;

  friend bool operator==(const IPv4&, const IPv4&) = default;
  friend auto operator<=>(const IPv4&, const IPv4&) = default;
};

struct IPv4Hash {
  std::size_t operator()(const IPv4& ip) const noexcept {
    std::uint64_t x = ip.addr * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(x ^ (x >> 32));
  }
};

struct SoaData {
  DomainName mname;       // primary nameserver
  DomainName rname;       // responsible mailbox
  std::uint32_t serial = 0;
  std::uint32_t refresh = 3600;
  std::uint32_t retry = 600;
  std::uint32_t expire = 86400;
  std::uint32_t minimum = 300;  // negative-caching TTL (RFC 2308)

  friend bool operator==(const SoaData&, const SoaData&) = default;
};

struct MxData {
  std::uint16_t preference = 10;
  DomainName exchange;

  friend bool operator==(const MxData&, const MxData&) = default;
};

struct AaaaData {
  std::array<std::uint8_t, 16> addr{};

  friend bool operator==(const AaaaData&, const AaaaData&) = default;
};

/// Typed RDATA.  A std::variant keeps the record type and its data in sync
/// by construction; `rr_type()` derives the wire type from the active
/// alternative.  NS/CNAME/PTR all carry a bare DomainName, so they are
/// wrapped to stay distinguishable.
struct NsData {
  DomainName ns;
  friend bool operator==(const NsData&, const NsData&) = default;
};
struct CnameData {
  DomainName target;
  friend bool operator==(const CnameData&, const CnameData&) = default;
};
struct PtrData {
  DomainName target;
  friend bool operator==(const PtrData&, const PtrData&) = default;
};
struct TxtData {
  std::string text;
  friend bool operator==(const TxtData&, const TxtData&) = default;
};

/// Authenticated denial of existence (RFC 4034 §4), reduced to what the
/// aggressive negative cache (RFC 8198) needs: the canonically-next owner
/// name, which together with the record's owner name proves the span
/// (owner, next) holds no names — plus one bit of the type bitmap, "does the
/// owner itself have NS", so a resolver never synthesizes answers for names
/// below a delegation cut (RFC 8198 §5.4 caveat).
struct NsecData {
  DomainName next;
  bool owner_is_delegation = false;
  friend bool operator==(const NsecData&, const NsecData&) = default;
};

using RData = std::variant<IPv4, NsData, CnameData, SoaData, PtrData, MxData,
                           TxtData, AaaaData, NsecData>;

RRType rdata_type(const RData& rdata) noexcept;

struct ResourceRecord {
  DomainName name;
  RRClass rr_class = RRClass::IN;
  std::uint32_t ttl = 300;
  RData rdata;

  RRType type() const noexcept { return rdata_type(rdata); }

  std::string to_string() const;

  friend bool operator==(const ResourceRecord&, const ResourceRecord&) = default;
};

ResourceRecord make_a(const DomainName& name, IPv4 ip, std::uint32_t ttl = 300);
ResourceRecord make_ns(const DomainName& zone, const DomainName& ns,
                       std::uint32_t ttl = 86400);
ResourceRecord make_cname(const DomainName& name, const DomainName& target,
                          std::uint32_t ttl = 300);
ResourceRecord make_soa(const DomainName& zone, SoaData soa,
                        std::uint32_t ttl = 3600);
ResourceRecord make_ptr(const DomainName& rev_name, const DomainName& target,
                        std::uint32_t ttl = 3600);
ResourceRecord make_txt(const DomainName& name, std::string text,
                        std::uint32_t ttl = 300);
ResourceRecord make_nsec(const DomainName& owner, const DomainName& next,
                         bool owner_is_delegation = false,
                         std::uint32_t ttl = 300);

}  // namespace nxd::dns
