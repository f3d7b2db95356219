#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "util/strings.hpp"

namespace nxd::obs {

namespace {

const char* type_token(MetricType t) noexcept {
  switch (t) {
    case MetricType::Counter: return "counter";
    case MetricType::Gauge: return "gauge";
    case MetricType::Histogram: return "hist";
  }
  return "counter";
}

bool parse_type_token(const std::string& s, MetricType* out) noexcept {
  if (s == "counter") { *out = MetricType::Counter; return true; }
  if (s == "gauge") { *out = MetricType::Gauge; return true; }
  if (s == "hist") { *out = MetricType::Histogram; return true; }
  return false;
}

bool valid_label_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-' ||
         c == ':' || c == '/';
}

LabelSet sorted_labels(LabelSet labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

/// "name" or "name{k=v,k2=v2}" — the wire form used by the snapshot text
/// format (not the Prometheus form, which quotes values).
std::string encode_series_name(const std::string& name, const LabelSet& labels) {
  if (labels.empty()) return name;
  std::string out = name;
  out += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) out += ',';
    out += labels[i].first;
    out += '=';
    out += labels[i].second;
  }
  out += '}';
  return out;
}

bool decode_series_name(const std::string& token, std::string* name,
                        LabelSet* labels) {
  labels->clear();
  const std::size_t brace = token.find('{');
  if (brace == std::string::npos) {
    *name = token;
    return !name->empty();
  }
  if (token.back() != '}') return false;
  *name = token.substr(0, brace);
  if (name->empty()) return false;
  const std::string body = token.substr(brace + 1, token.size() - brace - 2);
  if (body.empty()) return false;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t comma = body.find(',', pos);
    if (comma == std::string::npos) comma = body.size();
    const std::string pair = body.substr(pos, comma - pos);
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= pair.size()) {
      return false;
    }
    labels->emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
    pos = comma + 1;
  }
  return true;
}

std::uint64_t quantile_from(const std::vector<std::uint64_t>& buckets,
                            std::uint64_t count, std::uint64_t max_value,
                            double q) noexcept {
  if (count == 0 || buckets.empty()) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target sample, 1-based; q=0 means the first sample.
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i + 1 < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) return histogram_bucket_bound(i);
  }
  return max_value;  // landed in the overflow bucket
}

/// Lock-free running maximum.
void raise_to(std::atomic<std::uint64_t>& cell, std::uint64_t value) noexcept {
  std::uint64_t prev = cell.load(std::memory_order_relaxed);
  while (prev < value &&
         !cell.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

std::size_t histogram_bucket_index(std::uint64_t value) noexcept {
  if (value <= 1) return 0;
  const std::size_t i =
      static_cast<std::size_t>(std::bit_width(value - 1));  // value <= 2^i
  return i < kHistogramBuckets ? i : kHistogramBuckets;     // overflow slot
}

std::uint64_t histogram_bucket_bound(std::size_t index) noexcept {
  return index < kHistogramBuckets ? (std::uint64_t{1} << index)
                                   : ~std::uint64_t{0};
}

void LatencyHistogram::observe(std::uint64_t value) noexcept {
  if (cells_ == nullptr) return;
  cells_->buckets[histogram_bucket_index(value)].fetch_add(
      1, std::memory_order_relaxed);
  cells_->count.fetch_add(1, std::memory_order_relaxed);
  cells_->sum.fetch_add(value, std::memory_order_relaxed);
  raise_to(cells_->max, value);
}

void LatencyHistogram::observe_exemplar(std::uint64_t value,
                                        std::uint64_t trace_id) noexcept {
  observe(value);
  if (cells_ == nullptr || trace_id == 0) return;
  // Two relaxed stores: an exemplar is a debugging breadcrumb, a torn pair
  // under contention still names a real sampled trace and a real value.
  cells_->exemplar_value.store(value, std::memory_order_relaxed);
  cells_->exemplar_trace.store(trace_id, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::count() const noexcept {
  return cells_ != nullptr ? cells_->count.load(std::memory_order_relaxed) : 0;
}

std::uint64_t LatencyHistogram::sum() const noexcept {
  return cells_ != nullptr ? cells_->sum.load(std::memory_order_relaxed) : 0;
}

std::uint64_t LatencyHistogram::max() const noexcept {
  return cells_ != nullptr ? cells_->max.load(std::memory_order_relaxed) : 0;
}

std::uint64_t LatencyHistogram::quantile(double q) const noexcept {
  if (cells_ == nullptr) return 0;
  std::vector<std::uint64_t> buckets(kHistogramBuckets + 1);
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] = cells_->buckets[i].load(std::memory_order_relaxed);
  }
  return quantile_from(buckets, count(), max(), q);
}

std::uint64_t SnapshotSeries::quantile(double q) const noexcept {
  return quantile_from(buckets, hist_count, hist_max, q);
}

MetricsRegistry::Series* MetricsRegistry::find_or_create(
    const std::string& name, const std::string& help, const LabelSet& labels,
    MetricType type) {
  SeriesKey key{name, sorted_labels(labels)};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(key);
  if (it != series_.end()) {
    return it->second->type == type ? it->second.get() : nullptr;
  }
  auto s = std::make_unique<Series>();
  s->type = type;
  s->help = help;
  if (type == MetricType::Histogram) {
    s->hist = std::make_unique<HistogramCells>();
  }
  Series* raw = s.get();
  series_.emplace(std::move(key), std::move(s));
  return raw;
}

Counter MetricsRegistry::counter(const std::string& name,
                                 const std::string& help,
                                 const LabelSet& labels) {
  Series* s = find_or_create(name, help, labels, MetricType::Counter);
  return s != nullptr ? Counter(&s->counter) : Counter();
}

Gauge MetricsRegistry::gauge(const std::string& name, const std::string& help,
                             const LabelSet& labels) {
  Series* s = find_or_create(name, help, labels, MetricType::Gauge);
  return s != nullptr ? Gauge(&s->gauge) : Gauge();
}

LatencyHistogram MetricsRegistry::histogram(const std::string& name,
                                            const std::string& help,
                                            const LabelSet& labels) {
  Series* s = find_or_create(name, help, labels, MetricType::Histogram);
  return s != nullptr ? LatencyHistogram(s->hist.get()) : LatencyHistogram();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.series.reserve(series_.size());
  for (const auto& [key, s] : series_) {
    SnapshotSeries out;
    out.name = key.name;
    out.labels = key.labels;
    out.type = s->type;
    out.help = s->help;
    switch (s->type) {
      case MetricType::Counter:
        out.counter = s->counter.load(std::memory_order_relaxed);
        break;
      case MetricType::Gauge:
        out.gauge = s->gauge.load(std::memory_order_relaxed);
        break;
      case MetricType::Histogram: {
        out.buckets.resize(kHistogramBuckets + 1);
        for (std::size_t i = 0; i < out.buckets.size(); ++i) {
          out.buckets[i] = s->hist->buckets[i].load(std::memory_order_relaxed);
        }
        out.hist_count = s->hist->count.load(std::memory_order_relaxed);
        out.hist_sum = s->hist->sum.load(std::memory_order_relaxed);
        out.hist_max = s->hist->max.load(std::memory_order_relaxed);
        out.exemplar_value =
            s->hist->exemplar_value.load(std::memory_order_relaxed);
        out.exemplar_trace =
            s->hist->exemplar_trace.load(std::memory_order_relaxed);
        break;
      }
    }
    snap.series.push_back(std::move(out));
  }
  return snap;
}

void MetricsRegistry::absorb(const MetricsSnapshot& snapshot) {
  constexpr auto relaxed = std::memory_order_relaxed;
  for (const auto& in : snapshot.series) {
    Series* s = find_or_create(in.name, in.help, in.labels, in.type);
    if (s == nullptr) continue;  // type conflict: keep ours
    // A snapshot series zeroes the fields its type does not use.
    s->counter.fetch_add(in.counter, relaxed);
    s->gauge.fetch_add(in.gauge, relaxed);
    if (s->hist == nullptr) continue;
    HistogramCells& h = *s->hist;
    if (in.buckets.size() == h.buckets.size()) {
      for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        h.buckets[i].fetch_add(in.buckets[i], relaxed);
      }
    }
    h.count.fetch_add(in.hist_count, relaxed);
    h.sum.fetch_add(in.hist_sum, relaxed);
    raise_to(h.max, in.hist_max);
    if (in.exemplar_trace != 0 && h.exemplar_trace.load(relaxed) == 0) {
      h.exemplar_value.store(in.exemplar_value, relaxed);
      h.exemplar_trace.store(in.exemplar_trace, relaxed);
    }
  }
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, s] : series_) {
    (void)key;
    s->counter.store(0, std::memory_order_relaxed);
    s->gauge.store(0, std::memory_order_relaxed);
    if (s->hist != nullptr) {
      for (auto& b : s->hist->buckets) b.store(0, std::memory_order_relaxed);
      s->hist->count.store(0, std::memory_order_relaxed);
      s->hist->sum.store(0, std::memory_order_relaxed);
      s->hist->max.store(0, std::memory_order_relaxed);
      s->hist->exemplar_value.store(0, std::memory_order_relaxed);
      s->hist->exemplar_trace.store(0, std::memory_order_relaxed);
    }
  }
}

std::size_t MetricsRegistry::series_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

const SnapshotSeries* MetricsSnapshot::find(
    const std::string& name, const LabelSet& labels) const noexcept {
  const LabelSet want = sorted_labels(labels);
  for (const auto& s : series) {
    if (s.name == name && s.labels == want) return &s;
  }
  return nullptr;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& theirs : other.series) {
    SnapshotSeries* mine = nullptr;
    for (auto& s : series) {
      if (s.name == theirs.name && s.labels == theirs.labels) {
        mine = &s;
        break;
      }
    }
    if (mine == nullptr) {
      series.push_back(theirs);
      continue;
    }
    if (mine->type != theirs.type) continue;  // conflicting; keep ours
    switch (mine->type) {
      case MetricType::Counter:
        mine->counter += theirs.counter;
        break;
      case MetricType::Gauge:
        mine->gauge += theirs.gauge;
        break;
      case MetricType::Histogram:
        if (mine->buckets.size() == theirs.buckets.size()) {
          for (std::size_t i = 0; i < mine->buckets.size(); ++i) {
            mine->buckets[i] += theirs.buckets[i];
          }
        }
        mine->hist_count += theirs.hist_count;
        mine->hist_sum += theirs.hist_sum;
        mine->hist_max = std::max(mine->hist_max, theirs.hist_max);
        // Exemplars don't add; keep ours unless we have none (deterministic
        // regardless of merge order once any shard recorded one).
        if (mine->exemplar_trace == 0) {
          mine->exemplar_trace = theirs.exemplar_trace;
          mine->exemplar_value = theirs.exemplar_value;
        }
        break;
    }
  }
  std::sort(series.begin(), series.end(),
            [](const SnapshotSeries& a, const SnapshotSeries& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
}

std::string MetricsSnapshot::to_text() const {
  std::ostringstream out;
  out << "nxd-metrics v1\n";
  for (const auto& s : series) {
    // Help text rides along (free text to end of line) so an offline render
    // of the parsed snapshot reproduces the live exposition byte-for-byte.
    if (!s.help.empty()) {
      out << "help " << encode_series_name(s.name, s.labels) << ' ' << s.help
          << '\n';
    }
    out << type_token(s.type) << ' ' << encode_series_name(s.name, s.labels);
    switch (s.type) {
      case MetricType::Counter:
        out << ' ' << s.counter;
        break;
      case MetricType::Gauge:
        out << ' ' << s.gauge;
        break;
      case MetricType::Histogram:
        out << ' ' << s.hist_count << ' ' << s.hist_sum << ' ' << s.hist_max;
        for (const auto b : s.buckets) out << ' ' << b;
        break;
    }
    out << '\n';
    // Exemplar rides as its own line (like help) so pre-exemplar snapshots
    // parse unchanged and exemplar-free series render byte-identically.
    if (s.type == MetricType::Histogram && s.exemplar_trace != 0) {
      out << "exemplar " << encode_series_name(s.name, s.labels) << ' '
          << s.exemplar_trace << ' ' << s.exemplar_value << '\n';
    }
  }
  return out.str();
}

bool MetricsSnapshot::parse(const std::string& text, MetricsSnapshot* out,
                            std::string* error) {
  out->series.clear();
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "nxd-metrics v1") {
    if (error != nullptr) *error = "bad header (want \"nxd-metrics v1\")";
    return false;
  }
  std::size_t lineno = 1;
  // (series name, sorted labels) -> help text, applied once all lines are in.
  std::vector<std::pair<std::pair<std::string, LabelSet>, std::string>>
      pending_help;
  // Likewise for exemplar lines: (series, labels) -> (trace, value).
  std::vector<std::pair<std::pair<std::string, LabelSet>,
                        std::pair<std::uint64_t, std::uint64_t>>>
      pending_exemplars;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string type_tok, name_tok;
    if (!(ls >> type_tok >> name_tok)) {
      if (error != nullptr) {
        *error = "line " + std::to_string(lineno) + ": malformed";
      }
      return false;
    }
    SnapshotSeries s;
    if (type_tok == "help") {
      // `help <series> <text...>`: attach to the series parsed later (order
      // in the file is help-then-sample, but any order is accepted).
      if (!decode_series_name(name_tok, &s.name, &s.labels)) {
        if (error != nullptr) {
          *error = "line " + std::to_string(lineno) + ": bad help target";
        }
        return false;
      }
      std::string text;
      std::getline(ls, text);
      if (!text.empty() && text.front() == ' ') text.erase(0, 1);
      pending_help.emplace_back(
          std::pair(std::move(s.name), sorted_labels(std::move(s.labels))),
          std::move(text));
      continue;
    }
    if (type_tok == "exemplar") {
      std::uint64_t trace = 0, value = 0;
      std::string extra;
      if (!decode_series_name(name_tok, &s.name, &s.labels) ||
          !(ls >> trace >> value) || (ls >> extra) || trace == 0) {
        if (error != nullptr) {
          *error = "line " + std::to_string(lineno) + ": bad exemplar";
        }
        return false;
      }
      pending_exemplars.emplace_back(
          std::pair(std::move(s.name), sorted_labels(std::move(s.labels))),
          std::pair(trace, value));
      continue;
    }
    if (!parse_type_token(type_tok, &s.type) ||
        !decode_series_name(name_tok, &s.name, &s.labels)) {
      if (error != nullptr) {
        *error = "line " + std::to_string(lineno) + ": bad type or name";
      }
      return false;
    }
    for (const auto& [k, v] : s.labels) {
      for (char c : k) {
        if (!valid_label_char(c)) {
          if (error != nullptr) {
            *error = "line " + std::to_string(lineno) + ": bad label key";
          }
          return false;
        }
      }
      for (char c : v) {
        if (!valid_label_char(c)) {
          if (error != nullptr) {
            *error = "line " + std::to_string(lineno) + ": bad label value";
          }
          return false;
        }
      }
    }
    bool ok = true;
    switch (s.type) {
      case MetricType::Counter:
        ok = static_cast<bool>(ls >> s.counter);
        break;
      case MetricType::Gauge:
        ok = static_cast<bool>(ls >> s.gauge);
        break;
      case MetricType::Histogram: {
        ok = static_cast<bool>(ls >> s.hist_count >> s.hist_sum >> s.hist_max);
        s.buckets.resize(kHistogramBuckets + 1, 0);
        for (std::size_t i = 0; ok && i < s.buckets.size(); ++i) {
          ok = static_cast<bool>(ls >> s.buckets[i]);
        }
        break;
      }
    }
    std::string extra;
    if (!ok || (ls >> extra)) {
      if (error != nullptr) {
        *error = "line " + std::to_string(lineno) + ": bad values";
      }
      return false;
    }
    out->series.push_back(std::move(s));
  }
  for (const auto& [key, text_value] : pending_help) {
    for (auto& s : out->series) {
      if (s.name == key.first && sorted_labels(s.labels) == key.second) {
        s.help = text_value;
      }
    }
  }
  for (const auto& [key, ex] : pending_exemplars) {
    for (auto& s : out->series) {
      if (s.name == key.first && sorted_labels(s.labels) == key.second &&
          s.type == MetricType::Histogram) {
        s.exemplar_trace = ex.first;
        s.exemplar_value = ex.second;
      }
    }
  }
  std::sort(out->series.begin(), out->series.end(),
            [](const SnapshotSeries& a, const SnapshotSeries& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return true;
}

}  // namespace nxd::obs
