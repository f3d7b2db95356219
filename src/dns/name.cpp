#include "dns/name.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>

#include "util/strings.hpp"

namespace nxd::dns {

namespace {

// A spilled name's heap block holds the longest name's label octets, so
// append_label never has to grow it.
constexpr std::size_t kHeapBlock = DomainName::kMaxWireLength - 1;

bool valid_label(std::string_view label) {
  if (label.empty() || label.size() > DomainName::kMaxLabelLength) return false;
  for (const char c : label) {
    // Printable ASCII except '.' and whitespace.  Real passive-DNS data
    // contains underscores, wildcard '*' labels, and other oddities; a codec
    // that rejects them would silently drop real observations.
    if (c <= ' ' || c > '~' || c == '.') return false;
  }
  return true;
}

std::size_t octet(std::string_view wire, std::size_t at) noexcept {
  return static_cast<std::uint8_t>(wire[at]);
}

/// Wire offset of label `i` (0 = leftmost); the wire size when i is the
/// label count.
std::size_t label_offset(std::string_view wire, std::size_t i) noexcept {
  std::size_t at = 0;
  for (; i > 0; --i) at += 1 + octet(wire, at);
  return at;
}

std::string_view label_at(std::string_view wire, std::size_t at) noexcept {
  return wire.substr(at + 1, octet(wire, at));
}

}  // namespace

std::optional<DomainName> DomainName::parse(std::string_view text) {
  if (text == "." || text.empty()) return DomainName{};
  if (text.back() == '.') text.remove_suffix(1);
  if (text.size() > kMaxNameLength) return std::nullopt;

  DomainName out;
  for (;;) {
    const std::size_t dot = text.find('.');
    if (!out.append_label(text.substr(0, dot))) return std::nullopt;
    if (dot == std::string_view::npos) return out;
    text.remove_prefix(dot + 1);
  }
}

DomainName DomainName::must(std::string_view text) {
  auto parsed = parse(text);
  if (!parsed) {
    std::fprintf(stderr, "DomainName::must: invalid name '%.*s'\n",
                 static_cast<int>(text.size()), text.data());
    std::abort();
  }
  return *std::move(parsed);
}

bool DomainName::is_canonical_text(std::string_view text) noexcept {
  if (text == ".") return true;  // the root's one canonical spelling
  if (text.empty()) return false;       // parses to root, reserializes as "."
  if (text.back() == '.') return false;  // to_string() never emits one
  if (text.size() > kMaxNameLength) return false;
  std::size_t label_len = 0;
  for (const char c : text) {
    if (c == '.') {
      if (label_len == 0) return false;  // empty label
      label_len = 0;
      continue;
    }
    // Mirrors valid_label(), plus the lowercase requirement: parse() folds
    // case, so any uppercase byte cannot round-trip.
    if (c <= ' ' || c > '~') return false;
    if (c >= 'A' && c <= 'Z') return false;
    if (++label_len > kMaxLabelLength) return false;
  }
  return label_len > 0;
}

bool DomainName::append_label(std::string_view label) {
  if (!valid_label(label)) return false;
  const std::size_t size = size_ + 1 + label.size();
  if (size > kHeapBlock) return false;
  char* out = buf_;
  if (spilled()) {
    out = heap();
  } else if (size > kInlineCapacity) {
    out = new char[kHeapBlock];
    std::memcpy(out, buf_, size_);
    std::memcpy(buf_, &out, sizeof out);
  }
  out += size_;
  *out++ = static_cast<char>(label.size());
  for (const char c : label) *out++ = util::ascii_lower(c);
  size_ = static_cast<std::uint8_t>(size);
  ++count_;
  return true;
}

void DomainName::assign(const char* wire, std::size_t n, std::size_t count) {
  if (n > kInlineCapacity) {
    char* block = new char[kHeapBlock];
    std::memcpy(block, wire, n);
    std::memcpy(buf_, &block, sizeof block);
  } else {
    std::memcpy(buf_, wire, n);
  }
  size_ = static_cast<std::uint8_t>(n);
  count_ = static_cast<std::uint8_t>(count);
}

std::string_view DomainName::label(std::size_t i) const noexcept {
  return label_at(wire(), label_offset(wire(), i));
}

std::string DomainName::to_string() const {
  if (is_root()) return ".";
  // The wire form minus its first length octet, with every later length
  // octet turned into a dot.
  std::string out(data() + 1, size_ - 1u);
  for (std::size_t at = octet(wire(), 0); at < out.size();) {
    const std::size_t len = static_cast<std::uint8_t>(out[at]);
    out[at] = '.';
    at += 1 + len;
  }
  return out;
}

std::string_view DomainName::tld() const noexcept {
  if (count_ == 0) return {};
  return label(count_ - 1u);
}

std::string_view DomainName::sld() const noexcept {
  if (count_ < 2) return {};
  return label(count_ - 2u);
}

DomainName DomainName::suffix(std::size_t labels) const {
  if (labels >= count_) return *this;
  const std::size_t at = label_offset(wire(), count_ - labels);
  DomainName out;
  out.assign(data() + at, size_ - at, labels);
  return out;
}

bool DomainName::is_subdomain_of(const DomainName& ancestor) const noexcept {
  if (ancestor.size_ > size_) return false;
  const std::size_t at = size_ - ancestor.size_;
  if (wire().substr(at) != ancestor.wire()) return false;
  // The matching bytes must start on a label boundary.
  std::size_t boundary = 0;
  while (boundary < at) boundary += 1 + octet(wire(), boundary);
  return boundary == at;
}

std::optional<DomainName> DomainName::child(std::string_view label) const {
  if (!valid_label(label) || size_ + 1 + label.size() > kHeapBlock) {
    return std::nullopt;
  }
  std::array<char, kHeapBlock> bytes = {};
  bytes[0] = static_cast<char>(label.size());
  std::transform(label.begin(), label.end(), bytes.begin() + 1,
                 util::ascii_lower);
  std::memcpy(bytes.data() + 1 + label.size(), data(), size_);
  DomainName out;
  out.assign(bytes.data(), size_ + 1 + label.size(), count_ + 1u);
  return out;
}

std::strong_ordering operator<=>(const DomainName& a,
                                 const DomainName& b) noexcept {
  const std::string_view wa = a.wire();
  const std::string_view wb = b.wire();
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < wa.size() && ib < wb.size()) {
    const std::string_view la = label_at(wa, ia);
    const std::string_view lb = label_at(wb, ib);
    if (const auto c = la <=> lb; c != 0) return c;
    ia += 1 + la.size();
    ib += 1 + lb.size();
  }
  return (ia < wa.size()) <=> (ib < wb.size());
}

std::size_t DomainNameHash::operator()(const DomainName& n) const noexcept {
  const std::string_view wire = n.wire();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t at = 0; at < wire.size();) {
    const std::size_t end = at + 1 + octet(wire, at);
    for (++at; at < end; ++at) {
      h ^= static_cast<std::uint8_t>(wire[at]);
      h *= 0x100000001b3ULL;
    }
    h ^= '.';
    h *= 0x100000001b3ULL;
  }
  return static_cast<std::size_t>(h);
}

int canonical_compare(const DomainName& a, const DomainName& b) noexcept {
  // RFC 4034 §6.1: compare label-by-label starting from the rightmost
  // (most significant) label.  Labels are already lowercased at
  // construction, so a plain byte compare is the canonical one.  Every
  // label takes at least two octets, so a name has at most 127.
  const std::string_view wa = a.wire();
  const std::string_view wb = b.wire();
  std::array<std::uint8_t, 128> oa = {};
  std::array<std::uint8_t, 128> ob = {};
  std::size_t na = 0;
  std::size_t nb = 0;
  for (std::size_t at = 0; at < wa.size(); at += 1 + octet(wa, at)) {
    oa[na++] = static_cast<std::uint8_t>(at);
  }
  for (std::size_t at = 0; at < wb.size(); at += 1 + octet(wb, at)) {
    ob[nb++] = static_cast<std::uint8_t>(at);
  }
  const std::size_t n = std::min(na, nb);
  for (std::size_t i = 1; i <= n; ++i) {
    const int c = label_at(wa, oa[na - i]).compare(label_at(wb, ob[nb - i]));
    if (c != 0) return c < 0 ? -1 : 1;
  }
  if (na != nb) return na < nb ? -1 : 1;
  return 0;
}

bool canonical_less(const DomainName& a, const DomainName& b) noexcept {
  return canonical_compare(a, b) < 0;
}

}  // namespace nxd::dns
