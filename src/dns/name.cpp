#include "dns/name.hpp"

#include <cstdio>
#include <cstdlib>

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace nxd::dns {

namespace {

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

}  // namespace

std::optional<DomainName> DomainName::parse(std::string_view text) {
  if (text == "." || text.empty()) return DomainName{};
  if (text.back() == '.') text.remove_suffix(1);
  if (text.size() > kMaxNameLength) return std::nullopt;

  DomainName out;
  for (const auto piece : util::split(text, '.')) {
    if (!valid_label(piece)) return std::nullopt;
    out.labels_.push_back(util::to_lower(piece));
  }
  return out;
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

std::optional<DomainName> DomainName::from_labels(
    std::vector<std::string> labels) {
  std::size_t total = 0;
  for (auto& label : labels) {
    if (!valid_label(label)) return std::nullopt;
    for (char& c : label) c = util::ascii_lower(c);
    total += label.size() + 1;
  }
  if (total > kMaxNameLength + 1) return std::nullopt;
  DomainName out;
  out.labels_ = std::move(labels);
  return out;
}

std::string DomainName::to_string() const {
  if (labels_.empty()) return ".";
  return util::join(labels_, ".");
}

std::string_view DomainName::tld() const noexcept {
  if (labels_.empty()) return {};
  return labels_.back();
}

DomainName DomainName::registered_domain() const {
  if (labels_.size() <= 2) return *this;
  DomainName out;
  out.labels_.assign(labels_.end() - 2, labels_.end());
  return out;
}

std::string_view DomainName::sld() const noexcept {
  if (labels_.size() < 2) return {};
  return labels_[labels_.size() - 2];
}

bool DomainName::is_subdomain_of(const DomainName& ancestor) const noexcept {
  if (ancestor.labels_.size() > labels_.size()) return false;
  const std::size_t offset = labels_.size() - ancestor.labels_.size();
  for (std::size_t i = 0; i < ancestor.labels_.size(); ++i) {
    if (labels_[offset + i] != ancestor.labels_[i]) return false;
  }
  return true;
}

std::optional<DomainName> DomainName::child(std::string_view label) const {
  std::vector<std::string> labels;
  labels.reserve(labels_.size() + 1);
  labels.emplace_back(label);
  labels.insert(labels.end(), labels_.begin(), labels_.end());
  return from_labels(std::move(labels));
}

DomainName DomainName::parent() const {
  DomainName out;
  if (labels_.size() > 1) {
    out.labels_.assign(labels_.begin() + 1, labels_.end());
  }
  return out;
}

std::size_t DomainName::wire_length() const noexcept {
  std::size_t total = 1;  // terminating root label
  for (const auto& label : labels_) total += label.size() + 1;
  return total;
}

std::size_t DomainNameHash::operator()(const DomainName& n) const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& label : n.labels()) {
    for (const char c : label) {
      h ^= static_cast<std::uint8_t>(c);
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
  // construction, so a plain byte compare is the canonical one.
  const auto& la = a.labels();
  const auto& lb = b.labels();
  const std::size_t n = std::min(la.size(), lb.size());
  for (std::size_t i = 1; i <= n; ++i) {
    const int c = la[la.size() - i].compare(lb[lb.size() - i]);
    if (c != 0) return c < 0 ? -1 : 1;
  }
  if (la.size() != lb.size()) return la.size() < lb.size() ? -1 : 1;
  return 0;
}

bool canonical_less(const DomainName& a, const DomainName& b) noexcept {
  return canonical_compare(a, b) < 0;
}

}  // namespace nxd::dns
