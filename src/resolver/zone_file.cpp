#include "resolver/zone_file.hpp"

#include <charconv>

#include "util/strings.hpp"

namespace nxd::resolver {

namespace {

struct ParserState {
  dns::DomainName origin;
  std::uint32_t default_ttl = 3600;
  std::optional<dns::DomainName> last_owner;
  std::optional<dns::SoaData> soa;
  std::vector<dns::ResourceRecord> records;
  std::vector<ZoneParseError> errors;
  std::size_t line = 0;

  void error(std::string message) {
    errors.push_back(ZoneParseError{line, std::move(message)});
  }
};

/// Resolve a name token against the origin: "@" = origin, names with a
/// trailing dot are absolute, everything else is origin-relative.
std::optional<dns::DomainName> resolve_name(std::string_view token,
                                            const dns::DomainName& origin) {
  if (token == "@") return origin;
  if (!token.empty() && token.back() == '.') {
    return dns::DomainName::parse(token);
  }
  auto relative = dns::DomainName::parse(token);
  if (!relative) return std::nullopt;
  for (std::size_t i = 0; i < origin.label_count(); ++i) {
    if (!relative->append_label(origin.label(i))) return std::nullopt;
  }
  return relative;
}

std::optional<std::uint32_t> parse_u32(std::string_view token) {
  std::uint32_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    return std::nullopt;
  }
  return value;
}

std::optional<dns::AaaaData> parse_aaaa(std::string_view text) {
  // Full 8-group form only: "2001:0db8:0000:...:0001".
  const auto groups = util::split(text, ':');
  if (groups.size() != 8) return std::nullopt;
  dns::AaaaData out;
  for (std::size_t g = 0; g < 8; ++g) {
    if (groups[g].empty() || groups[g].size() > 4) return std::nullopt;
    std::uint32_t value = 0;
    const auto [ptr, ec] = std::from_chars(
        groups[g].data(), groups[g].data() + groups[g].size(), value, 16);
    if (ec != std::errc{} || ptr != groups[g].data() + groups[g].size()) {
      return std::nullopt;
    }
    out.addr[g * 2] = static_cast<std::uint8_t>(value >> 8);
    out.addr[g * 2 + 1] = static_cast<std::uint8_t>(value);
  }
  return out;
}

void parse_record_line(ParserState& state, std::vector<std::string_view> tokens) {
  // Owner: if the line started with whitespace the caller passes an empty
  // first token meaning "repeat last owner".
  dns::DomainName owner;
  std::size_t at = 0;
  if (tokens[0].empty()) {
    if (!state.last_owner) {
      state.error("record without owner and no previous owner");
      return;
    }
    owner = *state.last_owner;
    at = 1;
  } else {
    const auto resolved = resolve_name(tokens[0], state.origin);
    if (!resolved) {
      state.error("bad owner name '" + std::string(tokens[0]) + "'");
      return;
    }
    owner = *resolved;
    at = 1;
  }
  state.last_owner = owner;

  // Optional TTL and class, in either order.
  std::uint32_t ttl = state.default_ttl;
  while (at < tokens.size()) {
    if (const auto parsed = parse_u32(tokens[at])) {
      ttl = *parsed;
      ++at;
      continue;
    }
    if (util::iequals(tokens[at], "IN")) {
      ++at;
      continue;
    }
    break;
  }
  if (at >= tokens.size()) {
    state.error("missing record type");
    return;
  }
  const std::string type = util::to_lower(tokens[at++]);
  auto need = [&](std::size_t n) {
    if (tokens.size() - at < n) {
      state.error("type " + type + " needs " + std::to_string(n) + " field(s)");
      return false;
    }
    return true;
  };
  auto name_arg = [&](std::string_view token) {
    return resolve_name(token, state.origin);
  };

  if (type == "soa") {
    if (!need(7)) return;
    const auto mname = name_arg(tokens[at]);
    const auto rname = name_arg(tokens[at + 1]);
    const auto serial = parse_u32(tokens[at + 2]);
    const auto refresh = parse_u32(tokens[at + 3]);
    const auto retry = parse_u32(tokens[at + 4]);
    const auto expire = parse_u32(tokens[at + 5]);
    const auto minimum = parse_u32(tokens[at + 6]);
    if (!mname || !rname || !serial || !refresh || !retry || !expire ||
        !minimum) {
      state.error("malformed SOA fields");
      return;
    }
    state.soa = dns::SoaData{*mname, *rname, *serial, *refresh,
                             *retry,  *expire, *minimum};
    return;
  }
  if (type == "a") {
    if (!need(1)) return;
    const auto ip = dns::IPv4::parse(tokens[at]);
    if (!ip) {
      state.error("bad IPv4 '" + std::string(tokens[at]) + "'");
      return;
    }
    state.records.push_back(dns::make_a(owner, *ip, ttl));
    return;
  }
  if (type == "aaaa") {
    if (!need(1)) return;
    const auto addr = parse_aaaa(tokens[at]);
    if (!addr) {
      state.error("bad AAAA (full 8-group form required)");
      return;
    }
    state.records.push_back(
        dns::ResourceRecord{owner, dns::RRClass::IN, ttl, *addr});
    return;
  }
  if (type == "ns" || type == "cname" || type == "ptr") {
    if (!need(1)) return;
    const auto target = name_arg(tokens[at]);
    if (!target) {
      state.error("bad target name '" + std::string(tokens[at]) + "'");
      return;
    }
    if (type == "ns") {
      state.records.push_back(dns::make_ns(owner, *target, ttl));
    } else if (type == "cname") {
      state.records.push_back(dns::make_cname(owner, *target, ttl));
    } else {
      state.records.push_back(dns::make_ptr(owner, *target, ttl));
    }
    return;
  }
  if (type == "mx") {
    if (!need(2)) return;
    const auto preference = parse_u32(tokens[at]);
    const auto exchange = name_arg(tokens[at + 1]);
    if (!preference || *preference > 0xFFFF || !exchange) {
      state.error("malformed MX");
      return;
    }
    state.records.push_back(dns::ResourceRecord{
        owner, dns::RRClass::IN, ttl,
        dns::MxData{static_cast<std::uint16_t>(*preference), *exchange}});
    return;
  }
  if (type == "txt") {
    if (!need(1)) return;
    // Re-join the remaining tokens; strip surrounding quotes if present.
    std::string text;
    for (std::size_t i = at; i < tokens.size(); ++i) {
      if (i != at) text.push_back(' ');
      text.append(tokens[i]);
    }
    if (text.size() >= 2 && text.front() == '"' && text.back() == '"') {
      text = text.substr(1, text.size() - 2);
    }
    state.records.push_back(dns::make_txt(owner, std::move(text), ttl));
    return;
  }
  state.error("unsupported record type '" + type + "'");
}

}  // namespace

ZoneParseResult parse_zone_file(std::string_view text,
                                const dns::DomainName& default_origin) {
  ParserState state;
  state.origin = default_origin;

  for (const auto raw_line : util::split(text, '\n')) {
    ++state.line;
    // Strip comments, note leading whitespace (owner repetition).
    std::string_view line = raw_line;
    if (const auto semi = line.find(';'); semi != std::string_view::npos) {
      line = line.substr(0, semi);
    }
    const bool leading_ws =
        !line.empty() && (line.front() == ' ' || line.front() == '\t');
    line = util::trim(line);
    if (line.empty()) continue;

    auto tokens = util::split_nonempty(line, ' ');
    // Re-split on tabs inside tokens.
    std::vector<std::string_view> flat;
    for (const auto token : tokens) {
      for (const auto piece : util::split_nonempty(token, '\t')) {
        flat.push_back(piece);
      }
    }
    if (flat.empty()) continue;

    if (flat[0] == "$ORIGIN") {
      if (flat.size() < 2) {
        state.error("$ORIGIN needs a name");
        continue;
      }
      const auto origin = dns::DomainName::parse(flat[1]);
      if (!origin) {
        state.error("bad $ORIGIN name");
        continue;
      }
      state.origin = *origin;
      continue;
    }
    if (flat[0] == "$TTL") {
      const auto ttl = flat.size() >= 2 ? parse_u32(flat[1]) : std::nullopt;
      if (!ttl) {
        state.error("bad $TTL");
        continue;
      }
      state.default_ttl = *ttl;
      continue;
    }
    if (leading_ws) {
      flat.insert(flat.begin(), std::string_view{});
    }
    parse_record_line(state, std::move(flat));
  }

  ZoneParseResult result;
  result.errors = std::move(state.errors);
  if (!state.soa) {
    result.errors.push_back(ZoneParseError{0, "zone has no SOA record"});
  }
  if (!result.errors.empty()) return result;

  Zone zone(state.origin, *state.soa);
  for (auto& record : state.records) {
    if (!zone.add(std::move(record))) {
      result.errors.push_back(
          ZoneParseError{0, "record outside zone origin"});
    }
  }
  if (!result.errors.empty()) return result;
  result.records = zone.record_count();
  result.zone.emplace(std::move(zone));
  return result;
}

std::string to_zone_file(const Zone& zone) {
  std::string out;
  out += "$ORIGIN " + zone.origin().to_string() + ".\n";
  const auto& soa = zone.soa();
  out += "@ IN SOA " + soa.mname.to_string() + ". " + soa.rname.to_string() +
         ". " + std::to_string(soa.serial) + " " + std::to_string(soa.refresh) +
         " " + std::to_string(soa.retry) + " " + std::to_string(soa.expire) +
         " " + std::to_string(soa.minimum) + "\n";

  // All names are emitted absolute (trailing dot) so re-parsing never
  // re-applies the origin.
  auto absolute = [](const dns::DomainName& name) {
    return name.to_string() + ".";
  };
  zone.for_each([&](const dns::ResourceRecord& rr) {
    out += absolute(rr.name) + " " + std::to_string(rr.ttl) + " IN ";
    struct Visitor {
      std::string& out;
      const decltype(absolute)& abs;
      void operator()(const dns::IPv4& ip) const {
        out += "A " + ip.to_string();
      }
      void operator()(const dns::NsData& d) const { out += "NS " + abs(d.ns); }
      void operator()(const dns::CnameData& d) const {
        out += "CNAME " + abs(d.target);
      }
      void operator()(const dns::PtrData& d) const {
        out += "PTR " + abs(d.target);
      }
      void operator()(const dns::MxData& d) const {
        out += "MX " + std::to_string(d.preference) + " " + abs(d.exchange);
      }
      void operator()(const dns::TxtData& d) const {
        out += "TXT \"" + d.text + "\"";
      }
      void operator()(const dns::SoaData&) const { out += "; inline SOA"; }
      void operator()(const dns::NsecData& d) const {
        out += "NSEC " + abs(d.next);
        if (d.owner_is_delegation) out += " NS";
      }
      void operator()(const dns::AaaaData& d) const {
        out += "AAAA ";
        char buf[6];
        for (int g = 0; g < 8; ++g) {
          std::snprintf(buf, sizeof buf, "%02x%02x",
                        d.addr[static_cast<std::size_t>(g) * 2],
                        d.addr[static_cast<std::size_t>(g) * 2 + 1]);
          if (g != 0) out += ":";
          out += buf;
        }
      }
    };
    std::visit(Visitor{out, absolute}, rr.rdata);
    out += "\n";
  });
  return out;
}

}  // namespace nxd::resolver
