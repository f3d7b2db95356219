#include "dns/message.hpp"

#include <algorithm>
#include <cstring>

#include "util/bytes.hpp"

namespace nxd::dns {

std::string to_string(RCode rc) {
  switch (rc) {
    case RCode::NoError: return "NOERROR";
    case RCode::FormErr: return "FORMERR";
    case RCode::ServFail: return "SERVFAIL";
    case RCode::NXDomain: return "NXDOMAIN";
    case RCode::NotImp: return "NOTIMP";
    case RCode::Refused: return "REFUSED";
  }
  return "RCODE" + std::to_string(static_cast<int>(rc));
}

std::string to_string(RRType t) {
  switch (t) {
    case RRType::A: return "A";
    case RRType::NS: return "NS";
    case RRType::CNAME: return "CNAME";
    case RRType::SOA: return "SOA";
    case RRType::PTR: return "PTR";
    case RRType::MX: return "MX";
    case RRType::TXT: return "TXT";
    case RRType::AAAA: return "AAAA";
    case RRType::OPT: return "OPT";
    case RRType::NSEC: return "NSEC";
  }
  return "TYPE" + std::to_string(static_cast<int>(t));
}

namespace {

constexpr std::uint8_t kPointerTag = 0xc0;
constexpr std::uint16_t kMaxPointerOffset = 0x3fff;
// Smallest RR on the wire: root owner, type, class, TTL, empty RDATA.
constexpr std::size_t kMinRecordOctets = 11;

/// Name compressor.  The dictionary is the wire offsets of the labels
/// written inline, in write order; a suffix is looked up by walking the
/// bytes already written from each earlier offset, following pointers.
/// A suffix is written inline at most once (a repeat becomes a pointer), so
/// a match is the suffix's first occurrence, and every pointer targets
/// earlier, fully written data.
class NameEncoder {
 public:
  NameEncoder(util::ByteWriter& w, std::vector<std::uint16_t>& offsets)
      : w_(w), offsets_(offsets) {}

  void write(const DomainName& name) {
    const std::string_view wire = name.wire();
    // Only earlier names can match: this name's own entries are longer
    // suffixes of it, and they are not fully written yet.
    const std::size_t earlier = offsets_.size();
    for (std::size_t i = 0; i < wire.size();) {
      const std::string_view rest = wire.substr(i);
      for (std::size_t k = 0; k < earlier; ++k) {
        if (spells(offsets_[k], rest)) {
          w_.u16(static_cast<std::uint16_t>(0xc000 | offsets_[k]));
          return;
        }
      }
      if (w_.size() <= kMaxPointerOffset) {
        offsets_.push_back(static_cast<std::uint16_t>(w_.size()));
      }
      const std::size_t label_octets = 1 + static_cast<std::uint8_t>(rest[0]);
      w_.bytes(rest.substr(0, label_octets));
      i += label_octets;
    }
    w_.u8(0);  // root label
  }

 private:
  /// True when the name written at wire offset `at` is the name whose
  /// wire form (without its root octet) is `rest`.
  bool spells(std::size_t at, std::string_view rest) const {
    const auto wire = w_.view();
    for (std::size_t i = 0;;) {
      std::uint8_t len = wire[at];
      while ((len & kPointerTag) == kPointerTag) {
        at = (static_cast<std::size_t>(len & 0x3f) << 8) | wire[at + 1];
        len = wire[at];
      }
      if (i == rest.size()) return len == 0;
      if (len != static_cast<std::uint8_t>(rest[i]) ||
          std::memcmp(&wire[at + 1], rest.data() + i + 1, len) != 0) {
        return false;
      }
      at += 1 + len;
      i += 1 + len;
    }
  }

  util::ByteWriter& w_;
  std::vector<std::uint16_t>& offsets_;
};

void write_rr(util::ByteWriter& w, NameEncoder& names, const ResourceRecord& rr) {
  names.write(rr.name);
  w.u16(static_cast<std::uint16_t>(rr.type()));
  w.u16(static_cast<std::uint16_t>(rr.rr_class));
  w.u32(rr.ttl);
  const std::size_t rdlength_at = w.size();
  w.u16(0);  // placeholder
  const std::size_t rdata_start = w.size();

  struct Visitor {
    util::ByteWriter& w;
    NameEncoder& names;
    void operator()(const IPv4& ip) const { w.u32(ip.addr); }
    void operator()(const NsData& d) const { names.write(d.ns); }
    void operator()(const CnameData& d) const { names.write(d.target); }
    void operator()(const SoaData& d) const {
      names.write(d.mname);
      names.write(d.rname);
      w.u32(d.serial);
      w.u32(d.refresh);
      w.u32(d.retry);
      w.u32(d.expire);
      w.u32(d.minimum);
    }
    void operator()(const PtrData& d) const { names.write(d.target); }
    void operator()(const MxData& d) const {
      w.u16(d.preference);
      names.write(d.exchange);
    }
    void operator()(const TxtData& d) const {
      // TXT is one or more <character-string>s; we emit 255-octet chunks.
      std::string_view rest = d.text;
      do {
        const std::size_t n = std::min<std::size_t>(rest.size(), 255);
        w.u8(static_cast<std::uint8_t>(n));
        w.bytes(rest.substr(0, n));
        rest.remove_prefix(n);
      } while (!rest.empty());
    }
    void operator()(const AaaaData& d) const { w.bytes(d.addr); }
    void operator()(const NsecData& d) const {
      // RFC 4034 §4.1: next domain name (never compressed) + type bitmap.
      // We carry one bit of the bitmap — NS present at the owner — encoded
      // as window block 0, length 1, bit 2 set (0x80 >> 2 = 0x20).
      w.bytes(d.next.wire());
      w.u8(0);
      if (d.owner_is_delegation) {
        w.u8(0x00);  // window block 0
        w.u8(0x01);  // bitmap length
        w.u8(0x20);  // NS (type 2)
      }
    }
  };
  std::visit(Visitor{w, names}, rr.rdata);
  w.patch_u16(rdlength_at, static_cast<std::uint16_t>(w.size() - rdata_start));
}

/// Decode a (possibly compressed) name starting at the reader's cursor.
/// After return the cursor sits just past the name's in-place bytes.
std::optional<DomainName> read_name(util::ByteReader& r) {
  DomainName name;
  std::size_t jumps = 0;
  std::optional<std::size_t> resume;

  for (;;) {
    const std::uint8_t len = r.u8();
    if (!r.ok()) return std::nullopt;
    if (len == 0) break;
    if ((len & kPointerTag) == kPointerTag) {
      const std::uint8_t lo = r.u8();
      if (!r.ok()) return std::nullopt;
      const std::size_t target = (static_cast<std::size_t>(len & 0x3f) << 8) | lo;
      if (!resume) resume = r.pos();
      // A pointer must reference data before its own offset; the encoder
      // writes no other kind.  Labels read after a jump can still run
      // forward into a later pointer, so the jump cap stays as the
      // backstop against loops.
      if (target >= r.pos() - 2 || ++jumps > 64) return std::nullopt;
      r.seek(target);
      continue;
    }
    if ((len & kPointerTag) != 0) return std::nullopt;  // reserved tags 01/10
    const auto label = r.bytes(len);
    if (!r.ok()) return std::nullopt;
    // Validates, lowercases, and rejects a name over 255 wire octets.
    if (!name.append_label({reinterpret_cast<const char*>(label.data()),
                            label.size()})) {
      return std::nullopt;
    }
  }
  if (resume) r.seek(*resume);
  return name;
}

std::optional<ResourceRecord> read_rr(util::ByteReader& r) {
  auto name = read_name(r);
  if (!name) return std::nullopt;
  const auto type = static_cast<RRType>(r.u16());
  const auto rr_class = static_cast<RRClass>(r.u16());
  const std::uint32_t ttl = r.u32();
  const std::uint16_t rdlength = r.u16();
  if (!r.ok() || r.remaining() < rdlength) return std::nullopt;
  const std::size_t rdata_end = r.pos() + rdlength;

  std::optional<RData> rdata;
  switch (type) {
    case RRType::A: {
      if (rdlength != 4) return std::nullopt;
      rdata = IPv4{r.u32()};
      break;
    }
    case RRType::NS: {
      auto ns = read_name(r);
      if (!ns) return std::nullopt;
      rdata = NsData{*std::move(ns)};
      break;
    }
    case RRType::CNAME: {
      auto target = read_name(r);
      if (!target) return std::nullopt;
      rdata = CnameData{*std::move(target)};
      break;
    }
    case RRType::SOA: {
      auto mname = read_name(r);
      auto rname = read_name(r);
      if (!mname || !rname) return std::nullopt;
      SoaData soa;
      soa.mname = *std::move(mname);
      soa.rname = *std::move(rname);
      soa.serial = r.u32();
      soa.refresh = r.u32();
      soa.retry = r.u32();
      soa.expire = r.u32();
      soa.minimum = r.u32();
      rdata = std::move(soa);
      break;
    }
    case RRType::PTR: {
      auto target = read_name(r);
      if (!target) return std::nullopt;
      rdata = PtrData{*std::move(target)};
      break;
    }
    case RRType::MX: {
      MxData mx;
      mx.preference = r.u16();
      auto exchange = read_name(r);
      if (!exchange) return std::nullopt;
      mx.exchange = *std::move(exchange);
      rdata = std::move(mx);
      break;
    }
    case RRType::TXT: {
      TxtData txt;
      while (r.ok() && r.pos() < rdata_end) {
        const std::uint8_t n = r.u8();
        txt.text += r.str(n);
      }
      rdata = std::move(txt);
      break;
    }
    case RRType::AAAA: {
      if (rdlength != 16) return std::nullopt;
      AaaaData aaaa;
      const auto bytes = r.bytes(16);
      if (bytes.size() != 16) return std::nullopt;
      std::copy(bytes.begin(), bytes.end(), aaaa.addr.begin());
      rdata = std::move(aaaa);
      break;
    }
    case RRType::NSEC: {
      auto next = read_name(r);
      if (!next) return std::nullopt;
      NsecData nsec;
      nsec.next = *std::move(next);
      // Scan the type bitmap (window, length, bytes)* for the NS bit; any
      // other bits are ignored — we model only the delegation caveat.
      while (r.ok() && r.pos() < rdata_end) {
        const std::uint8_t window = r.u8();
        const std::uint8_t len = r.u8();
        if (!r.ok() || len == 0 || len > 32 ||
            r.pos() + len > rdata_end) {
          return std::nullopt;
        }
        const auto bytes = r.bytes(len);
        if (bytes.size() != len) return std::nullopt;
        if (window == 0 && len >= 1 && (bytes[0] & 0x20) != 0) {
          nsec.owner_is_delegation = true;
        }
      }
      rdata = std::move(nsec);
      break;
    }
    default:
      return std::nullopt;  // unknown type: reject rather than misparse
  }
  if (!r.ok() || r.pos() != rdata_end || !rdata) return std::nullopt;

  ResourceRecord rr;
  rr.name = *std::move(name);
  rr.rr_class = rr_class;
  rr.ttl = ttl;
  rr.rdata = *std::move(rdata);
  return rr;
}

}  // namespace

Message make_query(std::uint16_t id, const DomainName& name, RRType type) {
  Message msg;
  msg.header.id = id;
  msg.header.rd = true;
  msg.questions.push_back(Question{name, type, RRClass::IN});
  return msg;
}

Message make_response(const Message& query, RCode rcode) {
  Message msg;
  msg.header = query.header;
  msg.header.qr = true;
  msg.header.ra = true;
  msg.header.rcode = rcode;
  msg.questions = query.questions;
  return msg;
}

Message make_nxdomain(const Message& query, const ResourceRecord& zone_soa) {
  Message msg = make_response(query, RCode::NXDomain);
  msg.authorities.push_back(zone_soa);
  return msg;
}

std::vector<std::uint8_t> encode(const Message& msg) {
  // The message is built in per-thread scratch that keeps its capacity,
  // then copied out at exact size: callers keep encoded messages around
  // (the bench holds 120k queries per pass), so spare capacity in the
  // result would be resident memory.
  thread_local util::ByteWriter w;
  thread_local std::vector<std::uint16_t> offsets;
  w.clear();
  offsets.clear();
  const auto& h = msg.header;
  w.u16(h.id);
  std::uint16_t flags = 0;
  if (h.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>(static_cast<std::uint16_t>(h.opcode) << 11);
  if (h.aa) flags |= 0x0400;
  if (h.tc) flags |= 0x0200;
  if (h.rd) flags |= 0x0100;
  if (h.ra) flags |= 0x0080;
  flags |= static_cast<std::uint16_t>(h.rcode) & 0x000f;
  w.u16(flags);
  w.u16(static_cast<std::uint16_t>(msg.questions.size()));
  w.u16(static_cast<std::uint16_t>(msg.answers.size()));
  w.u16(static_cast<std::uint16_t>(msg.authorities.size()));
  w.u16(static_cast<std::uint16_t>(msg.additionals.size() +
                                   (msg.edns ? 1 : 0)));

  NameEncoder names(w, offsets);
  for (const auto& q : msg.questions) {
    names.write(q.name);
    w.u16(static_cast<std::uint16_t>(q.qtype));
    w.u16(static_cast<std::uint16_t>(q.qclass));
  }
  for (const auto& rr : msg.answers) write_rr(w, names, rr);
  for (const auto& rr : msg.authorities) write_rr(w, names, rr);
  for (const auto& rr : msg.additionals) write_rr(w, names, rr);
  if (msg.edns) {
    // OPT pseudo-RR (RFC 6891 §6.1.2): root owner, CLASS = advertised UDP
    // payload size, TTL = ext-rcode/version/flags, empty RDATA.
    w.u8(0);  // root name
    w.u16(static_cast<std::uint16_t>(RRType::OPT));
    w.u16(msg.edns->udp_payload);
    const std::uint32_t ttl_bits =
        (static_cast<std::uint32_t>(msg.edns->version) << 16) |
        (msg.edns->dnssec_ok ? 0x8000u : 0u);
    w.u32(ttl_bits);
    w.u16(0);  // rdlength
  }
  const auto wire = w.view();
  return {wire.begin(), wire.end()};
}

std::optional<Message> decode(std::span<const std::uint8_t> wire) {
  util::ByteReader r(wire);
  Message msg;
  auto& h = msg.header;
  h.id = r.u16();
  const std::uint16_t flags = r.u16();
  h.qr = (flags & 0x8000) != 0;
  h.opcode = static_cast<Opcode>((flags >> 11) & 0x0f);
  h.aa = (flags & 0x0400) != 0;
  h.tc = (flags & 0x0200) != 0;
  h.rd = (flags & 0x0100) != 0;
  h.ra = (flags & 0x0080) != 0;
  h.rcode = static_cast<RCode>(flags & 0x0f);
  const std::uint16_t qdcount = r.u16();
  const std::uint16_t ancount = r.u16();
  const std::uint16_t nscount = r.u16();
  const std::uint16_t arcount = r.u16();
  if (!r.ok()) return std::nullopt;

  for (std::uint16_t i = 0; i < qdcount; ++i) {
    auto name = read_name(r);
    if (!name) return std::nullopt;
    Question q;
    q.name = *std::move(name);
    q.qtype = static_cast<RRType>(r.u16());
    q.qclass = static_cast<RRClass>(r.u16());
    if (!r.ok()) return std::nullopt;
    msg.questions.push_back(std::move(q));
  }
  auto read_section = [&](std::uint16_t count,
                          std::vector<ResourceRecord>& out,
                          bool allow_opt) -> bool {
    // Never reserve more records than the remaining bytes could hold, so a
    // tiny packet claiming huge counts cannot allocate megabytes.
    out.reserve(std::min<std::size_t>(count, r.remaining() / kMinRecordOctets));
    for (std::uint16_t i = 0; i < count; ++i) {
      if (allow_opt) {
        // Peek for an OPT pseudo-RR: root owner (single zero byte) + type 41.
        const std::size_t mark = r.pos();
        if (r.remaining() >= 3 && wire[mark] == 0) {
          util::ByteReader peek(wire);
          peek.seek(mark + 1);
          if (static_cast<RRType>(peek.u16()) == RRType::OPT) {
            r.seek(mark + 3);
            if (msg.edns) return false;  // at most one OPT (RFC 6891 §6.1.1)
            EdnsInfo edns;
            edns.udp_payload = r.u16();
            const std::uint32_t ttl_bits = r.u32();
            edns.version = static_cast<std::uint8_t>((ttl_bits >> 16) & 0xff);
            edns.dnssec_ok = (ttl_bits & 0x8000u) != 0;
            const std::uint16_t rdlength = r.u16();
            r.bytes(rdlength);  // skip EDNS options
            if (!r.ok()) return false;
            msg.edns = edns;
            continue;
          }
        }
      }
      auto rr = read_rr(r);
      if (!rr) return false;
      out.push_back(*std::move(rr));
    }
    return true;
  };
  if (!read_section(ancount, msg.answers, false)) return std::nullopt;
  if (!read_section(nscount, msg.authorities, false)) return std::nullopt;
  if (!read_section(arcount, msg.additionals, true)) return std::nullopt;
  return msg;
}

}  // namespace nxd::dns
