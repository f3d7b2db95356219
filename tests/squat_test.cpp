// Unit tests for nxd::squat — generators, detector, and round-trip
// properties (everything a generator emits must be detected as a squat of
// the right type against the same target list).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>
#include <utility>

#include "damerau_oracle.hpp"
#include "dns/punycode.hpp"
#include "squat/detector.hpp"
#include "squat/generators.hpp"
#include "synth/origin_model.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace nxd::squat {
namespace {

using dns::DomainName;

Target target_of(const char* domain) {
  return targets_from({domain}).front();
}

// ------------------------------------------------------------- generators

TEST(TypoGenerator, AllCandidatesWithinDamerauOne) {
  const auto target = target_of("google.com");
  const auto candidates = generate_typos(target);
  ASSERT_FALSE(candidates.empty());
  for (const auto& name : candidates) {
    EXPECT_LE(oracle::damerau_distance(name.sld(), "google"), 1u)
        << name.to_string();
    EXPECT_NE(name.sld(), "google");
    EXPECT_EQ(name.tld(), "com");
  }
}

TEST(TypoGenerator, CoversAllFiveClasses) {
  const auto target = target_of("paypal.com");
  const auto candidates = generate_typos(target);
  std::set<std::string> slds;
  for (const auto& name : candidates) slds.insert(std::string(name.sld()));
  EXPECT_TRUE(slds.contains("aypal"));    // omission
  EXPECT_TRUE(slds.contains("ppaypal"));  // repetition
  EXPECT_TRUE(slds.contains("apypal"));   // transposition
  EXPECT_TRUE(slds.contains("oaypal"));   // adjacent replacement (p->o)
  EXPECT_TRUE(slds.contains("opaypal"));  // fat-finger insertion
}

TEST(ComboGenerator, ContainsBrandPlusKeyword) {
  const auto target = target_of("paypal.com");
  const auto candidates = generate_combos(target);
  ASSERT_FALSE(candidates.empty());
  for (const auto& name : candidates) {
    EXPECT_NE(name.sld().find("paypal"), std::string_view::npos)
        << name.to_string();
    EXPECT_GT(name.sld().size(), 6u);
  }
  std::set<std::string> slds;
  for (const auto& name : candidates) slds.insert(std::string(name.sld()));
  EXPECT_TRUE(slds.contains("paypal-login"));
  EXPECT_TRUE(slds.contains("securepaypal"));
}

TEST(DotGenerator, WwwGlueAndInBrandDots) {
  const auto target = target_of("google.com");
  const auto candidates = generate_dots(target);
  std::set<std::string> names;
  for (const auto& name : candidates) names.insert(name.to_string());
  EXPECT_TRUE(names.contains("wwwgoogle.com"));
  EXPECT_TRUE(names.contains("goo.gle.com"));
  EXPECT_TRUE(names.contains("g.oogle.com"));
}

TEST(BitGenerator, AllCandidatesExactlyOneBitFlip) {
  const auto target = target_of("amazon.com");
  const auto candidates = generate_bits(target);
  ASSERT_FALSE(candidates.empty());
  for (const auto& name : candidates) {
    const std::string sld(name.sld());
    ASSERT_EQ(sld.size(), 6u) << sld;
    int diff_bits = 0;
    for (std::size_t i = 0; i < 6; ++i) {
      unsigned x = static_cast<unsigned char>(sld[i]) ^
                   static_cast<unsigned char>("amazon"[i]);
      while (x != 0) {
        diff_bits += static_cast<int>(x & 1);
        x >>= 1;
      }
    }
    EXPECT_EQ(diff_bits, 1) << sld;
  }
}

TEST(HomoGenerator, ProducesConfusables) {
  const auto google = generate_homos(target_of("google.com"));
  std::set<std::string> slds;
  for (const auto& name : google) slds.insert(std::string(name.sld()));
  EXPECT_TRUE(slds.contains("g0ogle"));
  EXPECT_TRUE(slds.contains("googie") || slds.contains("goog1e"));

  const auto microsoft = generate_homos(target_of("microsoft.com"));
  std::set<std::string> ms;
  for (const auto& name : microsoft) ms.insert(std::string(name.sld()));
  EXPECT_TRUE(ms.contains("rnicrosoft"));
}

TEST(Generators, NeverEmitTheTargetItself) {
  for (const auto type : kAllSquatTypes) {
    const auto target = target_of("twitter.com");
    for (const auto& name : generate(type, target)) {
      EXPECT_NE(name, target.domain)
          << to_string(type) << " emitted the target";
    }
  }
}

TEST(KeyboardNeighbors, SymmetricAndNonSelf) {
  for (char c = 'a'; c <= 'z'; ++c) {
    for (const char n : keyboard_neighbors(c)) {
      EXPECT_NE(n, c);
      const auto back = keyboard_neighbors(n);
      EXPECT_NE(back.find(c), std::string_view::npos)
          << c << " -> " << n << " not symmetric";
    }
  }
}

// ----------------------------------------------------------- fold_confusables

TEST(FoldConfusables, CanonicalizesConfusableClasses) {
  // Members of a confusable class fold to the same canonical string.
  EXPECT_EQ(fold_confusables("g0ogle"), "google");
  EXPECT_EQ(fold_confusables("rnicrosoft"), fold_confusables("microsoft"));
  EXPECT_EQ(fold_confusables("m1crosoft"), fold_confusables("microsoft"));
  EXPECT_EQ(fold_confusables("mlcrosoft"), fold_confusables("microsoft"));
  EXPECT_EQ(fold_confusables("paypa1"), fold_confusables("paypal"));
  EXPECT_EQ(fold_confusables("vvikipedia"), fold_confusables("wikipedia"));
  // Unconfusable strings are stable under double folding.
  EXPECT_EQ(fold_confusables(fold_confusables("amazon")),
            fold_confusables("amazon"));
  // Distinct brands stay distinct.
  EXPECT_NE(fold_confusables("google"), fold_confusables("amazon"));
}

// --------------------------------------------------------------- detector

struct RoundTripCase {
  SquatType type;
  const char* target;
};

class GeneratorDetectorRoundTrip
    : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(GeneratorDetectorRoundTrip, GeneratedCandidatesDetected) {
  const auto& param = GetParam();
  const SquatDetector detector = SquatDetector::with_defaults();
  const auto target = target_of(param.target);
  const auto candidates = generate(param.type, target);
  ASSERT_FALSE(candidates.empty());

  std::size_t detected = 0, correct_type = 0;
  for (const auto& name : candidates) {
    const auto verdict = detector.classify(name);
    if (verdict) {
      ++detected;
      if (verdict->type == param.type) ++correct_type;
    }
  }
  // Everything generated must register as *some* squat (a bit flip can
  // coincide with a keyboard-adjacent typo, so cross-type hits are fine),
  // and the majority must carry the intended type.
  EXPECT_EQ(detected, candidates.size()) << to_string(param.type);
  EXPECT_GE(correct_type * 10, candidates.size() * 7)
      << to_string(param.type) << ": " << correct_type << "/"
      << candidates.size();
}

INSTANTIATE_TEST_SUITE_P(
    Types, GeneratorDetectorRoundTrip,
    ::testing::Values(RoundTripCase{SquatType::Typo, "google.com"},
                      RoundTripCase{SquatType::Typo, "amazon.com"},
                      RoundTripCase{SquatType::Combo, "paypal.com"},
                      RoundTripCase{SquatType::Combo, "netflix.com"},
                      RoundTripCase{SquatType::Dot, "google.com"},
                      RoundTripCase{SquatType::Bit, "facebook.com"},
                      RoundTripCase{SquatType::Homo, "google.com"},
                      RoundTripCase{SquatType::Homo, "microsoft.com"}),
    [](const auto& info) {
      return to_string(info.param.type) + std::string("_") +
             std::string(info.param.target).substr(0, 3);
    });

TEST(Detector, BenignNamesPass) {
  const SquatDetector detector = SquatDetector::with_defaults();
  for (const char* name :
       {"example.com", "weather-news.org", "quantumphysics.net",
        "rustaceans.org", "kubernetes.io"}) {
    EXPECT_FALSE(detector.classify(dns::DomainName::must(name)).has_value())
        << name;
  }
}

TEST(Detector, TheTargetItselfIsNotASquat) {
  const SquatDetector detector = SquatDetector::with_defaults();
  EXPECT_FALSE(
      detector.classify(dns::DomainName::must("google.com")).has_value());
  EXPECT_FALSE(
      detector.classify(dns::DomainName::must("paypal.com")).has_value());
}

TEST(Detector, IdentifiesTargetDomain) {
  const SquatDetector detector = SquatDetector::with_defaults();
  const auto verdict = detector.classify(dns::DomainName::must("gogle.com"));
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->type, SquatType::Typo);
  EXPECT_EQ(verdict->target.to_string(), "google.com");
}

TEST(Detector, PaperExampleTwitterSupport) {
  // twitter-sup0rt.com from Table 1: combosquat with homoglyph inside the
  // keyword.  Our detector sees brand "twitter" + extra token -> Combo.
  const SquatDetector detector = SquatDetector::with_defaults();
  const auto verdict =
      detector.classify(dns::DomainName::must("twitter-sup0rt.com"));
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->type, SquatType::Combo);
  EXPECT_EQ(verdict->target.to_string(), "twitter.com");
}

TEST(Detector, ClassifiesOneNameOfEachType) {
  const SquatDetector detector = SquatDetector::with_defaults();
  const std::pair<const char*, std::optional<SquatType>> cases[] = {
      {"gogle.com", SquatType::Typo},
      {"paypal-login.com", SquatType::Combo},
      {"wwwgoogle.com", SquatType::Dot},
      {"g0ogle.com", SquatType::Homo},
      {"benign-site.org", std::nullopt},
  };
  for (const auto& [name, want] : cases) {
    const auto verdict = detector.classify(dns::DomainName::must(name));
    ASSERT_EQ(verdict.has_value(), want.has_value()) << name;
    if (verdict) {
      EXPECT_EQ(verdict->type, *want) << name;
    }
  }
}

TEST(Detector, ShortBrandsNeedExactStructure) {
  // Brands under 4 chars must not trigger distance-1 typo attribution
  // (noise would overwhelm signal).
  const SquatDetector detector(targets_from({"qq.com"}));
  EXPECT_FALSE(detector.classify(dns::DomainName::must("qa.com")).has_value());
}

// ------------------------------------------------------ reference cascade
//
// A frozen copy of the straightforward cascade: every check re-folds its
// inputs and measures distance with oracle::damerau_distance.  The detector
// precomputes the folds and tests one edit in O(n); this copy is the oracle
// its verdicts must match name for name.

namespace reference {

bool hamming1_bitflip(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  int diffs = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) continue;
    if (++diffs > 1) return false;
    const unsigned x = static_cast<unsigned char>(a[i]) ^
                       static_cast<unsigned char>(b[i]);
    if ((x & (x - 1)) != 0) return false;
  }
  return diffs == 1;
}

bool is_bitsquat(const std::string& label, const std::string& brand) {
  if (brand.size() < 4) return false;
  return hamming1_bitflip(label, brand);
}

bool is_homosquat(const std::string& label, const std::string& brand) {
  if (label == brand || brand.size() < 4) return false;
  const std::string folded_label = fold_confusables(label);
  const std::string folded_brand = fold_confusables(brand);
  return folded_label == brand || folded_label == folded_brand;
}

bool is_typosquat(const std::string& label, const std::string& brand) {
  if (label == brand) return false;
  if (brand.size() < 4) return false;
  return oracle::damerau_distance(label, brand) == 1;
}

bool is_combosquat(const std::string& label, const std::string& brand) {
  if (brand.size() < 4) return false;
  const auto pos = label.find(brand);
  if (pos == std::string::npos || label.size() <= brand.size()) return false;
  std::string rest = label.substr(0, pos) + label.substr(pos + brand.size());
  rest.erase(std::remove(rest.begin(), rest.end(), '-'), rest.end());
  if (rest.empty()) return false;
  if (std::all_of(rest.begin(), rest.end(),
                  [](char c) { return util::is_digit(c); })) {
    return true;
  }
  const std::string folded = fold_confusables(rest);
  for (const auto& keyword : combo_keywords()) {
    if (oracle::damerau_distance(folded, fold_confusables(keyword)) <= 1) {
      return true;
    }
  }
  return false;
}

const Target* dot_target(const std::vector<Target>& targets,
                         const dns::DomainName& name) {
  if (name.label_count() < 2) return nullptr;
  std::string joined;
  for (std::size_t i = 0; i + 1 < name.label_count(); ++i) {
    joined += name.label(i);
  }
  const std::string tld(name.tld());
  for (const auto& target : targets) {
    if (target.domain.tld() != tld) continue;
    const bool www_glue =
        name.label_count() == 2 && joined == "www" + target.brand;
    const bool split_brand = name.label_count() >= 3 && joined == target.brand;
    if (www_glue || split_brand) return &target;
  }
  return nullptr;
}

std::optional<SquatVerdict> classify(const std::vector<Target>& targets,
                                     const dns::DomainName& name) {
  if (name.label_count() < 2) return std::nullopt;
  std::string label(name.sld());
  if (util::starts_with(label, "xn--")) {
    if (const auto decoded = dns::punycode_decode(label.substr(4))) {
      std::string mapped;
      bool mappable = true;
      for (const char32_t c : *decoded) {
        if (static_cast<std::uint32_t>(c) < 0x80) {
          mapped.push_back(util::ascii_lower(static_cast<char>(c)));
          continue;
        }
        const char ascii = unicode_confusable_to_ascii(c);
        if (ascii == 0) {
          mappable = false;
          break;
        }
        mapped.push_back(ascii);
      }
      if (mappable) {
        for (const auto& target : targets) {
          if (mapped == target.brand) {
            return SquatVerdict{SquatType::Homo, target.domain};
          }
        }
        label = std::move(mapped);
      }
    }
  }
  for (const auto& target : targets) {
    if (target.brand == label) {
      if (target.domain.tld() == name.tld()) return std::nullopt;
      break;  // the detector's brand index keeps the first such target
    }
  }
  if (const Target* dot = dot_target(targets, name)) {
    return SquatVerdict{SquatType::Dot, dot->domain};
  }
  for (const auto& target : targets) {
    if (is_bitsquat(label, target.brand)) {
      return SquatVerdict{SquatType::Bit, target.domain};
    }
  }
  for (const auto& target : targets) {
    if (is_homosquat(label, target.brand)) {
      return SquatVerdict{SquatType::Homo, target.domain};
    }
  }
  for (const auto& target : targets) {
    if (is_typosquat(label, target.brand)) {
      return SquatVerdict{SquatType::Typo, target.domain};
    }
  }
  for (const auto& target : targets) {
    if (is_combosquat(label, target.brand)) {
      return SquatVerdict{SquatType::Combo, target.domain};
    }
  }
  return std::nullopt;
}

}  // namespace reference

/// Apply one random edit (substitution, insertion, deletion or adjacent
/// swap) drawn from the LDH alphabet.
void mutate_once(std::string& s, util::Rng& rng) {
  static constexpr std::string_view kAlphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789-";
  const auto any_char = [&] { return kAlphabet[rng.bounded(kAlphabet.size())]; };
  switch (rng.bounded(4)) {
    case 0:
      if (!s.empty()) s[rng.bounded(s.size())] = any_char();
      break;
    case 1:
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(rng.bounded(s.size() + 1)),
               any_char());
      break;
    case 2:
      if (!s.empty()) s.erase(rng.bounded(s.size()), 1);
      break;
    default:
      if (s.size() >= 2) {
        const std::size_t i = rng.bounded(s.size() - 1);
        std::swap(s[i], s[i + 1]);
      }
      break;
  }
}

/// Seeded names near the default brands: 1-2 edits of a brand, keyword
/// combos (hyphenated or not, keyword sometimes edited), "www" glue and
/// in-brand dots, under the brand's TLD or another one.
std::vector<dns::DomainName> seeded_brand_mutations(std::size_t count,
                                                    std::uint64_t seed) {
  static const std::vector<std::string> kOtherTlds = {"com", "net", "org",
                                                      "io"};
  const auto& targets = default_targets();
  const auto& keywords = combo_keywords();
  util::Rng rng(seed);
  std::vector<dns::DomainName> out;
  out.reserve(count);
  while (out.size() < count) {
    const Target& target = rng.pick(targets);
    std::string label = target.brand;
    switch (rng.bounded(5)) {
      case 0:
        mutate_once(label, rng);
        break;
      case 1:
        mutate_once(label, rng);
        mutate_once(label, rng);
        break;
      case 2:
      case 3: {
        std::string keyword = rng.pick(keywords);
        if (rng.bounded(3) == 0) mutate_once(keyword, rng);
        if (rng.bounded(6) == 0) keyword = std::to_string(rng.bounded(1000));
        const std::string joint = rng.bounded(2) == 0 ? "-" : "";
        label = rng.bounded(2) == 0 ? label + joint + keyword
                                    : keyword + joint + label;
        if (rng.bounded(4) == 0) mutate_once(label, rng);
        break;
      }
      default:
        if (rng.bounded(2) == 0) {
          label = "www" + label;
        } else if (label.size() >= 2) {
          label.insert(1 + rng.bounded(label.size() - 1), ".");
        }
        if (rng.bounded(3) == 0) mutate_once(label, rng);
        break;
    }
    const std::string tld = rng.bounded(5) == 0
                                ? rng.pick(kOtherTlds)
                                : std::string(target.domain.tld());
    if (auto name = dns::DomainName::parse(label + "." + tld)) {
      out.push_back(std::move(*name));
    }
  }
  return out;
}

/// All names of the seed-42 origin corpus with 2,500 expired domains.
const std::vector<dns::DomainName>& seed42_corpus_names() {
  static const std::vector<dns::DomainName> names = [] {
    synth::OriginCorpusConfig config;
    config.seed = 42;
    config.expired_count = 2'500;
    return synth::build_origin_corpus(config).all_names;
  }();
  return names;
}

TEST(SquatDifferential, DetectorMatchesReferenceCascade) {
  const SquatDetector detector = SquatDetector::with_defaults();
  const auto& targets = default_targets();

  std::vector<dns::DomainName> names;
  for (const auto& target : targets) {
    for (const auto type : kAllSquatTypes) {
      for (auto& name : generate(type, target)) names.push_back(std::move(name));
    }
    for (auto& name : generate_idn_homos(target)) names.push_back(std::move(name));
  }
  const auto& corpus = seed42_corpus_names();
  names.insert(names.end(), corpus.begin(), corpus.end());
  for (auto& name : seeded_brand_mutations(200'000, 42)) {
    names.push_back(std::move(name));
  }

  std::size_t squats = 0, mismatches = 0;
  for (const auto& name : names) {
    const auto want = reference::classify(targets, name);
    const auto got = detector.classify(name);
    squats += want.has_value() ? 1 : 0;
    const bool same = want.has_value() == got.has_value() &&
                      (!want || (want->type == got->type &&
                                 want->target == got->target));
    if (!same && ++mismatches <= 10) {
      ADD_FAILURE() << name.to_string() << ": reference "
                    << (want ? to_string(want->type) : "none") << " vs "
                    << (got ? to_string(got->type) : "none");
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << names.size() << " names";
  // The mix must exercise both verdicts heavily.
  EXPECT_GT(squats, names.size() / 4);
  EXPECT_GT(names.size() - squats, names.size() / 4);
  std::printf("differential: %zu names, %zu squats\n", names.size(), squats);
}

TEST(SquatDetectorCost, ThirtyThousandCorpusNamesUnder350ms) {
  // The origin analysis classifies every expired NXDomain (91.5M in the
  // paper), so a name must cost microseconds: a cascade that re-folds each
  // brand and allocates a distance matrix per target takes 1.4-1.7 s here.
  const SquatDetector detector = SquatDetector::with_defaults();
  const auto& corpus = seed42_corpus_names();
  ASSERT_FALSE(corpus.empty());
  auto best = std::chrono::steady_clock::duration::max();
  std::size_t squats = 0;
  for (int round = 0; round < 3; ++round) {
    squats = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < 30'000; ++i) {
      squats += detector.classify(corpus[i % corpus.size()]).has_value() ? 1 : 0;
    }
    best = std::min(best, std::chrono::steady_clock::now() - start);
  }
  EXPECT_GT(squats, 0u);
  EXPECT_LT(best, std::chrono::milliseconds(350))
      << std::chrono::duration_cast<std::chrono::milliseconds>(best).count()
      << " ms for 30,000 names (best of 3)";
}

}  // namespace
}  // namespace nxd::squat
