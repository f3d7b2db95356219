#include "dga/classifier.hpp"

#include <algorithm>
#include <cmath>

namespace nxd::dga {

namespace {

/// Which flat-array indices belong to each FeatureMask group.
/// Order matches LexicalFeatures::as_array().
enum FeatureIndex : std::size_t {
  kLength = 0,
  kEntropy = 1,
  kDigitRatio = 2,
  kVowelRatio = 3,
  kMaxConsonantRun = 4,
  kBigramScore = 5,
  kDictionaryHits = 6,
  kHyphenCount = 7,
  kRepeatedCharRatio = 8,
  kHexLike = 9,
};

bool feature_enabled(const FeatureMask& mask, std::size_t index) {
  switch (index) {
    case kEntropy:
      return mask.use_entropy;
    case kBigramScore:
    case kDictionaryHits:
      return mask.use_linguistic;
    default:
      return mask.use_structure;
  }
}

}  // namespace

DgaClassifier DgaClassifier::heuristic(FeatureMask mask) {
  DgaClassifier c;
  c.mode_ = Mode::Heuristic;
  c.mask_ = mask;
  c.threshold_ = 0.30;
  return c;
}

double DgaClassifier::heuristic_score(const LexicalFeatures& f) const {
  // Each term contributes roughly [0, 1] x weight; the sum is normalized by
  // the active weight total.  Weights and anchors were tuned on the five
  // embedded families vs the dictionary corpus.
  double score = 0;
  double weight_total = 0;

  if (mask_.use_entropy) {
    // Raw Shannon entropy is bounded by log2(len), so normalize: random
    // letter strings sit near 1.0, English-like labels near 0.75-0.85.
    const double cap = f.length >= 2 ? std::log2(f.length) : 1.0;
    const double norm = cap > 0 ? f.entropy / cap : 0.0;
    score += 1.2 * std::clamp((norm - 0.82) / 0.16, 0.0, 1.0);
    weight_total += 1.2;
  }
  if (mask_.use_structure) {
    score += 0.5 * std::clamp((f.length - 12.0) / 10.0, 0.0, 1.0);
    score += 0.6 * std::clamp(f.digit_ratio * 3.0, 0.0, 1.0);
    score += 0.8 * std::clamp((f.max_consonant_run - 3.0) / 3.0, 0.0, 1.0);
    score += 0.5 * std::clamp((0.28 - f.vowel_ratio) / 0.28, 0.0, 1.0);
    weight_total += 2.4;
  }
  if (mask_.use_linguistic) {
    // english_bigram_score: ~ -3.5 for dictionary words, < -7 for random.
    score += 1.8 * std::clamp((-f.bigram_score - 4.0) / 2.5, 0.0, 1.0);
    score -= 0.9 * std::clamp(f.dictionary_hits / 1.0, 0.0, 1.0);
    weight_total += 1.8;
  }
  if (weight_total <= 0) return 0;
  return std::clamp(score / weight_total, 0.0, 1.0);
}

DgaClassifier DgaClassifier::train(const std::vector<std::string>& benign_labels,
                                   const std::vector<std::string>& dga_labels,
                                   FeatureMask mask) {
  DgaClassifier c;
  c.mode_ = Mode::NaiveBayes;
  c.mask_ = mask;
  c.threshold_ = 0.0;  // log-odds decision boundary

  auto fit = [](const std::vector<std::string>& labels) {
    std::vector<Gaussian> params(LexicalFeatures::kCount);
    if (labels.empty()) return params;
    std::vector<double> sums(LexicalFeatures::kCount, 0);
    std::vector<double> sq_sums(LexicalFeatures::kCount, 0);
    for (const auto& label : labels) {
      const auto f = extract_features(label).as_array();
      for (std::size_t i = 0; i < f.size(); ++i) {
        sums[i] += f[i];
        sq_sums[i] += f[i] * f[i];
      }
    }
    const auto n = static_cast<double>(labels.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i].mean = sums[i] / n;
      params[i].var =
          std::max(sq_sums[i] / n - params[i].mean * params[i].mean, 1e-4);
    }
    return params;
  };
  c.benign_params_ = fit(benign_labels);
  c.dga_params_ = fit(dga_labels);
  c.prior_log_odds_ = 0;  // balanced prior
  return c;
}

double DgaClassifier::bayes_score(const LexicalFeatures& f) const {
  const auto x = f.as_array();
  double log_odds = prior_log_odds_;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!feature_enabled(mask_, i)) continue;
    const auto& b = benign_params_[i];
    const auto& d = dga_params_[i];
    const double log_p_dga = -0.5 * std::log(2 * M_PI * d.var) -
                             (x[i] - d.mean) * (x[i] - d.mean) / (2 * d.var);
    const double log_p_benign = -0.5 * std::log(2 * M_PI * b.var) -
                                (x[i] - b.mean) * (x[i] - b.mean) / (2 * b.var);
    log_odds += log_p_dga - log_p_benign;
  }
  return log_odds;
}

void DgaClassifier::calibrate_threshold(
    const std::vector<std::string>& benign_labels, double target_fpr) {
  if (benign_labels.empty()) return;
  std::vector<double> scores;
  scores.reserve(benign_labels.size());
  for (const auto& label : benign_labels) {
    const LexicalFeatures f = extract_features(label);
    scores.push_back(mode_ == Mode::Heuristic ? heuristic_score(f)
                                              : bayes_score(f));
  }
  std::sort(scores.begin(), scores.end());
  const double quantile = std::clamp(1.0 - target_fpr, 0.0, 1.0);
  const auto index = static_cast<std::size_t>(
      quantile * static_cast<double>(scores.size() - 1));
  // Nudge above the quantile score so exactly the tail beyond it fires.
  threshold_ = scores[index] + 1e-9;
}

Verdict DgaClassifier::classify_label(std::string_view label) const {
  const LexicalFeatures f = extract_features(label);
  const double score =
      mode_ == Mode::Heuristic ? heuristic_score(f) : bayes_score(f);
  return Verdict{score, score > threshold_};
}

Verdict DgaClassifier::classify(const dns::DomainName& name) const {
  const auto sld = name.sld();
  if (!sld.empty()) return classify_label(sld);
  if (name.label_count() == 1) {
    return classify_label(name.label(0));
  }
  return Verdict{};
}

double DgaClassifier::dga_fraction(const std::vector<std::string>& labels) const {
  if (labels.empty()) return 0;
  std::size_t hits = 0;
  for (const auto& label : labels) {
    if (classify_label(label).is_dga) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(labels.size());
}

}  // namespace nxd::dga
