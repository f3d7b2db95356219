// Squatting detector — classifies a domain against a target list, reporting
// which attack type it embodies and which brand it imitates (the
// "commercial identification algorithm" of paper §5.2).
//
// Precedence mirrors specificity: dot and bit patterns are exact structural
// matches and are tested first; homoglyph next; generic distance-1 typos
// after; combosquatting (substring + keyword) last, because every more
// specific class would otherwise also match it.  Within a class the first
// target in list order wins.
//
// Each target's folded brand and "www"+brand, and the folded combo
// keywords, are derived once at construction; classify folds the label
// once, and the distance-1 tests use util::is_one_edit (O(n), no
// allocation), so a non-squat costs a few microseconds over 64 targets.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "squat/generators.hpp"

namespace nxd::squat {

struct SquatVerdict {
  SquatType type;
  dns::DomainName target;  // the imitated domain
};

class SquatDetector {
 public:
  explicit SquatDetector(std::vector<Target> targets);

  /// Detector over the embedded default target list.
  static SquatDetector with_defaults() { return SquatDetector(default_targets()); }

  /// Classify one (registered-level) domain name.
  std::optional<SquatVerdict> classify(const dns::DomainName& name) const;

  const std::vector<Target>& targets() const noexcept { return targets_; }

 private:
  /// Per-target strings the cascade compares against, derived once.
  struct Prepared {
    std::string folded_brand;  // fold_confusables(brand)
    std::string www_brand;     // "www" + brand, the dot-squat glue form
  };

  const Target* dot_target(const dns::DomainName& name) const;
  bool is_combosquat(std::string_view label, std::string_view brand) const;

  std::vector<Target> targets_;
  std::vector<Prepared> prepared_;  // parallel to targets_
  std::vector<std::string> folded_keywords_;  // combo_keywords(), folded
  // brand -> target index, for O(1) exact-brand rejects.
  std::unordered_map<std::string, std::size_t> brand_index_;
};

/// Canonicalize ASCII homoglyphs ("g00gle" -> "google", "rnicrosoft" ->
/// "microsoft").  Exposed for tests.
std::string fold_confusables(std::string_view s);

}  // namespace nxd::squat
