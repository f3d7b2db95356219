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
  prepared_.reserve(targets_.size());
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    brand_index_.emplace(targets_[i].brand, i);
    prepared_.push_back(Prepared{fold_confusables(targets_[i].brand),
                                 "www" + targets_[i].brand});
  }
  for (const auto& keyword : combo_keywords()) {
    folded_keywords_.push_back(fold_confusables(keyword));
  }
}

bool SquatDetector::is_combosquat(std::string_view label,
                                  std::string_view brand) const {
  if (brand.size() < 4 || label.size() <= brand.size()) return false;
  const auto pos = label.find(brand);
  if (pos == std::string_view::npos) return false;
  // The remainder (minus joining hyphens) must be a recognizable combo
  // token: all digits, or within one confusable-folded edit of a known
  // trust/action keyword ("login", "secure", "supp0rt", ...).  Plain
  // substring matching would misfire on ordinary words that happen to
  // contain a brand ("kubernetes" contains "uber").
  std::string rest(label.substr(0, pos));
  rest += label.substr(pos + brand.size());
  std::erase(rest, '-');
  if (rest.empty()) return false;
  if (std::all_of(rest.begin(), rest.end(),
                  [](char c) { return util::is_digit(c); })) {
    return true;
  }
  const std::string folded = fold_confusables(rest);
  return std::any_of(folded_keywords_.begin(), folded_keywords_.end(),
                     [&](const std::string& keyword) {
                       return folded == keyword ||
                              util::is_one_edit(folded, keyword);
                     });
}

const Target* SquatDetector::dot_target(const dns::DomainName& name) const {
  // The labels left of the TLD, joined, must spell "www"+brand (two labels)
  // or the brand itself (three or more: dots inserted into the brand).
  const std::size_t n = name.label_count();
  const auto spells = [&](std::string_view s) {
    for (std::size_t i = 0; i + 1 < n; ++i) {
      if (!s.starts_with(name.label(i))) return false;
      s.remove_prefix(name.label(i).size());
    }
    return s.empty();
  };
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    if (targets_[i].domain.tld() != name.tld()) continue;
    if (n == 2 ? name.sld() == prepared_[i].www_brand
               : spells(targets_[i].brand)) {
      return &targets_[i];
    }
  }
  return nullptr;
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

  if (const Target* dot = dot_target(name)) {
    return SquatVerdict{SquatType::Dot, dot->domain};
  }
  // Brands under 4 characters are too short to attribute a near miss to.
  for (const auto& target : targets_) {
    if (target.brand.size() >= 4 && hamming1_bitflip(label, target.brand)) {
      return SquatVerdict{SquatType::Bit, target.domain};
    }
  }
  // Homoglyph: the label folds onto the brand, or shares the brand's fold.
  const std::string folded = fold_confusables(label);
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    const std::string& brand = targets_[i].brand;
    if (brand.size() >= 4 && label != brand &&
        (folded == brand || folded == prepared_[i].folded_brand)) {
      return SquatVerdict{SquatType::Homo, targets_[i].domain};
    }
  }
  for (const auto& target : targets_) {
    if (target.brand.size() >= 4 && util::is_one_edit(label, target.brand)) {
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

}  // namespace nxd::squat
