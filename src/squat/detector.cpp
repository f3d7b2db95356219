#include "squat/detector.hpp"

#include <algorithm>

#include "dns/punycode.hpp"
#include "util/strings.hpp"

namespace nxd::squat {

namespace {

/// True when a and b have equal length and differ in exactly one position
/// by a single flipped bit.
bool hamming1_bitflip(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  int diffs = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) continue;
    if (++diffs > 1) return false;
    const unsigned x = static_cast<unsigned char>(a[i]) ^
                       static_cast<unsigned char>(b[i]);
    if ((x & (x - 1)) != 0) return false;  // more than one bit differs
  }
  return diffs == 1;
}

}  // namespace

std::string fold_confusables(std::string_view s) {
  // Multi-char sequences first, then single characters.  Each confusable
  // class maps to one canonical representative; in particular {i, l, 1}
  // all fold to 'l' so any member matches any other.
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size();) {
    if (i + 1 < s.size()) {
      const char a = s[i], b = s[i + 1];
      if (a == 'r' && b == 'n') { out.push_back('m'); i += 2; continue; }
      if (a == 'v' && b == 'v') { out.push_back('w'); i += 2; continue; }
      if (a == 'c' && b == 'l') { out.push_back('d'); i += 2; continue; }
    }
    switch (s[i]) {
      case '0': out.push_back('o'); break;
      case '1': out.push_back('l'); break;
      case 'i': out.push_back('l'); break;
      case '3': out.push_back('e'); break;
      case '5': out.push_back('s'); break;
      case '8': out.push_back('b'); break;
      case '9': out.push_back('g'); break;
      default: out.push_back(s[i]); break;
    }
    ++i;
  }
  return out;
}

SquatDetector::SquatDetector(std::vector<Target> targets)
    : targets_(std::move(targets)) {
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    brand_index_.emplace(targets_[i].brand, i);
  }
}

bool SquatDetector::is_bitsquat(const std::string& label,
                                const std::string& brand) const {
  if (brand.size() < 4) return false;  // too short to attribute reliably
  return hamming1_bitflip(label, brand);
}

bool SquatDetector::is_homosquat(const std::string& label,
                                 const std::string& brand) const {
  if (label == brand || brand.size() < 4) return false;
  // Either direction: the squat folds to the brand, or shares a fold.
  const std::string folded_label = fold_confusables(label);
  const std::string folded_brand = fold_confusables(brand);
  return folded_label == brand || folded_label == folded_brand;
}

bool SquatDetector::is_typosquat(const std::string& label,
                                 const std::string& brand) const {
  if (label == brand) return false;
  if (brand.size() < 4) return false;  // too short to attribute reliably
  return util::damerau_distance(label, brand) == 1;
}

bool SquatDetector::is_combosquat(const std::string& label,
                                  const std::string& brand) const {
  if (brand.size() < 4) return false;
  const auto pos = label.find(brand);
  if (pos == std::string::npos || label.size() <= brand.size()) return false;
  // The remainder (minus joining hyphens) must be a recognizable combo
  // token: all digits, or within one confusable-folded edit of a known
  // trust/action keyword ("login", "secure", "supp0rt", ...).  Plain
  // substring matching would misfire on ordinary words that happen to
  // contain a brand ("kubernetes" contains "uber").
  std::string rest = label.substr(0, pos) + label.substr(pos + brand.size());
  rest.erase(std::remove(rest.begin(), rest.end(), '-'), rest.end());
  if (rest.empty()) return false;
  if (std::all_of(rest.begin(), rest.end(),
                  [](char c) { return util::is_digit(c); })) {
    return true;
  }
  const std::string folded = fold_confusables(rest);
  for (const auto& keyword : combo_keywords()) {
    if (util::damerau_distance(folded, fold_confusables(keyword)) <= 1) {
      return true;
    }
  }
  return false;
}

std::optional<const Target*> SquatDetector::dot_target(
    const dns::DomainName& name) const {
  // Join all labels except the TLD and compare against "www"+brand or brand.
  if (name.label_count() < 2) return std::nullopt;
  std::string joined;
  for (std::size_t i = 0; i + 1 < name.label_count(); ++i) {
    joined += name.label(i);
  }
  const std::string tld(name.tld());

  for (const auto& target : targets_) {
    if (target.domain.tld() != tld) continue;
    const bool www_glue =
        name.label_count() == 2 && joined == "www" + target.brand;
    const bool split_brand = name.label_count() >= 3 && joined == target.brand;
    if (www_glue || split_brand) return &target;
  }
  return std::nullopt;
}

std::optional<SquatVerdict> SquatDetector::classify(
    const dns::DomainName& name) const {
  if (name.label_count() < 2) return std::nullopt;
  std::string label(name.sld());

  // IDN homograph path: decode "xn--" labels and map each Unicode
  // lookalike onto the ASCII letter it imitates; a clean brand match after
  // that mapping is a homograph attack.
  if (util::starts_with(label, "xn--")) {
    if (const auto decoded = dns::punycode_decode(label.substr(4))) {
      std::string mapped;
      mapped.reserve(decoded->size());
      bool mappable = true;
      for (const char32_t c : *decoded) {
        if (static_cast<std::uint32_t>(c) < 0x80) {
          mapped.push_back(util::ascii_lower(static_cast<char>(c)));
          continue;
        }
        const char ascii = unicode_confusable_to_ascii(c);
        if (ascii == 0) {
          mappable = false;  // genuine non-Latin label, not a lookalike
          break;
        }
        mapped.push_back(ascii);
      }
      if (mappable) {
        for (const auto& target : targets_) {
          if (mapped == target.brand) {
            return SquatVerdict{SquatType::Homo, target.domain};
          }
        }
        // Lookalike letters plus a typo/combo pattern: keep analyzing the
        // mapped form through the regular cascade.
        label = std::move(mapped);
      }
    }
  }

  // An exact brand match is the real domain, not a squat.
  if (const auto it = brand_index_.find(label); it != brand_index_.end() &&
      targets_[it->second].domain.tld() == name.tld()) {
    return std::nullopt;
  }

  if (const auto dot = dot_target(name)) {
    return SquatVerdict{SquatType::Dot, (*dot)->domain};
  }
  for (const auto& target : targets_) {
    if (is_bitsquat(label, target.brand)) {
      return SquatVerdict{SquatType::Bit, target.domain};
    }
  }
  for (const auto& target : targets_) {
    if (is_homosquat(label, target.brand)) {
      return SquatVerdict{SquatType::Homo, target.domain};
    }
  }
  for (const auto& target : targets_) {
    if (is_typosquat(label, target.brand)) {
      return SquatVerdict{SquatType::Typo, target.domain};
    }
  }
  for (const auto& target : targets_) {
    if (is_combosquat(label, target.brand)) {
      return SquatVerdict{SquatType::Combo, target.domain};
    }
  }
  return std::nullopt;
}

std::unordered_map<SquatType, std::uint64_t> SquatDetector::classify_corpus(
    const std::vector<dns::DomainName>& names) const {
  std::unordered_map<SquatType, std::uint64_t> counts;
  for (const auto& name : names) {
    if (const auto verdict = classify(name)) {
      ++counts[verdict->type];
    }
  }
  return counts;
}

}  // namespace nxd::squat
