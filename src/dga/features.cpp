#include "dga/features.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "dga/families.hpp"
#include "util/strings.hpp"

namespace nxd::dga {

namespace {

constexpr bool is_vowel(char c) noexcept {
  return c == 'a' || c == 'e' || c == 'i' || c == 'o' || c == 'u';
}

/// Letter-bigram log-probability table trained once on the embedded
/// dictionary (index 26 = word boundary).
/// Extra training words beyond the DGA wordlist: short, high-frequency
/// English and web vocabulary, so the model covers the bigrams that appear
/// in real (brandable) domain labels and not only in formal 7-letter words.
const std::vector<std::string>& bigram_training_extra() {
  static const std::vector<std::string> kWords = {
      "the",   "and",  "for",  "with", "this", "from", "have", "more",
      "news",  "blog", "shop", "mail", "web",  "site", "page", "home",
      "cloud", "data", "file", "host", "link", "zone", "byte", "grid",
      "apex",  "nova", "flux", "peak", "dash", "loop", "base", "cast",
      "port",  "hub",  "tech", "game", "play", "media", "live", "best",
      "free",  "easy", "fast", "smart", "super", "mega", "micro", "meta",
      "world", "group", "team", "care", "plus", "land", "ware", "soft",
      "book",  "view",  "line", "time", "life", "work", "help", "info",
      "mart",  "deal",  "sale", "buy",  "get",  "top",  "pro",  "max",
      "king",  "star",  "gold", "blue", "red",  "one",  "two",  "net",
  };
  return kWords;
}

class BigramModel {
 public:
  BigramModel() {
    std::array<std::array<double, 27>, 27> counts{};
    for (auto& row : counts) row.fill(0.1);  // Laplace smoothing
    train(WordlistDga::dictionary(), counts);
    train(bigram_training_extra(), counts);
    finalize(counts);
  }

  void train(const std::vector<std::string>& words,
             std::array<std::array<double, 27>, 27>& counts) {
    for (const auto& word : words) {
      int prev = 26;
      for (const char c : word) {
        const int cur = index_of(c);
        if (cur < 0) continue;
        counts[static_cast<std::size_t>(prev)][static_cast<std::size_t>(cur)] += 1.0;
        prev = cur;
      }
      counts[static_cast<std::size_t>(prev)][26] += 1.0;
    }
  }

  void finalize(const std::array<std::array<double, 27>, 27>& counts) {
    for (std::size_t i = 0; i < 27; ++i) {
      double row_total = 0;
      for (const double c : counts[i]) row_total += c;
      for (std::size_t j = 0; j < 27; ++j) {
        log_prob_[i][j] = std::log2(counts[i][j] / row_total);
      }
    }
  }

  double score(std::string_view s) const {
    int prev = 26;
    double total = 0;
    std::size_t n = 0;
    for (const char raw : s) {
      const int cur = index_of(util::ascii_lower(raw));
      if (cur < 0) {
        prev = 26;
        continue;
      }
      total += log_prob_[static_cast<std::size_t>(prev)][static_cast<std::size_t>(cur)];
      ++n;
      prev = cur;
    }
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  }

 private:
  static int index_of(char c) noexcept {
    return (c >= 'a' && c <= 'z') ? c - 'a' : -1;
  }
  std::array<std::array<double, 27>, 27> log_prob_{};
};

const BigramModel& bigram_model() {
  static const BigramModel model;
  return model;
}

std::size_t count_dictionary_hits(std::string_view label) {
  std::size_t hits = 0;
  for (const auto& word : WordlistDga::dictionary()) {
    if (word.size() >= 4 && label.find(word) != std::string_view::npos) {
      ++hits;
    }
  }
  return hits;
}

}  // namespace

double shannon_entropy(std::string_view s) {
  if (s.empty()) return 0;
  std::array<std::size_t, 256> counts{};
  for (const char c : s) ++counts[static_cast<std::uint8_t>(c)];
  double h = 0;
  const auto n = static_cast<double>(s.size());
  for (const std::size_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / n;
    h -= p * std::log2(p);
  }
  return h;
}

double english_bigram_score(std::string_view s) {
  return bigram_model().score(s);
}

LexicalFeatures extract_features(std::string_view label) {
  LexicalFeatures f;
  if (label.empty()) return f;
  f.length = static_cast<double>(label.size());
  f.entropy = shannon_entropy(label);
  f.bigram_score = english_bigram_score(label);
  f.dictionary_hits = static_cast<double>(count_dictionary_hits(label));

  std::size_t digits = 0, letters = 0, vowels = 0, hyphens = 0, repeats = 0;
  std::size_t consonant_run = 0, max_run = 0, hex_chars = 0;
  char prev = 0;
  for (const char raw : label) {
    const char c = util::ascii_lower(raw);
    if (util::is_digit(c)) ++digits;
    if ((c >= 'a' && c <= 'f') || util::is_digit(c)) ++hex_chars;
    if (c == '-') ++hyphens;
    if (c == prev) ++repeats;
    if (util::is_alpha(c)) {
      ++letters;
      if (is_vowel(c)) {
        ++vowels;
        consonant_run = 0;
      } else {
        ++consonant_run;
        max_run = std::max(max_run, consonant_run);
      }
    } else {
      consonant_run = 0;
    }
    prev = c;
  }
  const auto n = static_cast<double>(label.size());
  f.digit_ratio = static_cast<double>(digits) / n;
  f.vowel_ratio = letters == 0 ? 0
                               : static_cast<double>(vowels) /
                                     static_cast<double>(letters);
  f.max_consonant_run = static_cast<double>(max_run);
  f.hyphen_count = static_cast<double>(hyphens);
  f.repeated_char_ratio = static_cast<double>(repeats) / n;
  f.hex_like = hex_chars == label.size() ? 1.0 : 0.0;
  return f;
}

LexicalFeatures extract_features(const dns::DomainName& name) {
  const auto sld = name.sld();
  if (sld.empty() && name.label_count() == 1) {
    return extract_features(name.label(0));
  }
  return extract_features(sld);
}

}  // namespace nxd::dga
