#include "obs/span.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "util/rng.hpp"

namespace nxd::obs {

namespace {

void append_json_escaped(std::string* out, const std::string& v) {
  for (char c : v) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

std::string capped(std::string_view detail, std::uint64_t* truncated,
                   Counter* metric) {
  if (detail.size() > kDetailCap) {
    detail = detail.substr(0, kDetailCap);
    ++*truncated;
    metric->inc();
  }
  return std::string{detail};
}

// --- minimal strict JSON field scanners for parse_jsonl -------------------

bool scan_literal(const std::string& line, std::size_t* pos,
                  std::string_view lit) {
  if (line.compare(*pos, lit.size(), lit) != 0) return false;
  *pos += lit.size();
  return true;
}

bool scan_int(const std::string& line, std::size_t* pos, std::int64_t* out) {
  std::size_t p = *pos;
  bool neg = false;
  if (p < line.size() && line[p] == '-') {
    neg = true;
    ++p;
  }
  if (p >= line.size() || line[p] < '0' || line[p] > '9') return false;
  std::uint64_t v = 0;
  while (p < line.size() && line[p] >= '0' && line[p] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(line[p] - '0');
    ++p;
  }
  *out = neg ? -static_cast<std::int64_t>(v) : static_cast<std::int64_t>(v);
  *pos = p;
  return true;
}

bool scan_uint(const std::string& line, std::size_t* pos, std::uint64_t* out) {
  // Not via scan_int: trace ids use the full uint64 range.
  std::size_t p = *pos;
  if (p >= line.size() || line[p] < '0' || line[p] > '9') return false;
  std::uint64_t v = 0;
  while (p < line.size() && line[p] >= '0' && line[p] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(line[p] - '0');
    ++p;
  }
  *out = v;
  *pos = p;
  return true;
}

bool scan_string(const std::string& line, std::size_t* pos, std::string* out) {
  out->clear();
  std::size_t p = *pos;
  if (p >= line.size() || line[p] != '"') return false;
  ++p;
  while (p < line.size() && line[p] != '"') {
    char c = line[p];
    if (c == '\\') {
      if (p + 1 >= line.size()) return false;
      char e = line[p + 1];
      p += 2;
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (p + 4 > line.size()) return false;
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            char h = line[p + static_cast<std::size_t>(i)];
            v <<= 4;
            if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          if (v > 0xff) return false;  // we only ever emit control bytes
          out->push_back(static_cast<char>(v));
          p += 4;
          break;
        }
        default: return false;
      }
    } else {
      out->push_back(c);
      ++p;
    }
  }
  if (p >= line.size()) return false;  // unterminated
  *pos = p + 1;
  return true;
}

}  // namespace

SpanTracer::SpanTracer(Config config) : config_(config) {
  if (config_.capacity == 0) config_.capacity = 1;
  double rate = config_.sample_rate;
  if (rate < 0.0) rate = 0.0;
  if (rate > 1.0) rate = 1.0;
  config_.sample_rate = rate;
  // sampled iff hash < rate * 2^64, computed without overflow at rate == 1.
  if (rate >= 1.0) {
    threshold_ = ~std::uint64_t{0};
  } else {
    threshold_ = static_cast<std::uint64_t>(
        rate * 18446744073709551616.0 /* 2^64 */);
  }
  ring_.resize(config_.capacity);
}

SpanId SpanTracer::begin_locked(std::uint64_t trace_id, std::uint64_t parent,
                                std::string_view name, std::int64_t start,
                                std::string_view detail) {
  SpanRecord rec;
  rec.trace_id = trace_id;
  rec.span_id = next_span_id_++;
  rec.parent_id = parent;
  rec.name.assign(name);
  rec.start = start;
  rec.end = start;
  rec.detail = capped(detail, &truncated_, &m_details_truncated_);
  const SpanId id{trace_id, rec.span_id};
  open_.push_back(std::move(rec));
  return id;
}

SpanId SpanTracer::root_sampled(std::uint64_t trace_id, std::string_view name,
                                std::int64_t start, std::string_view detail) {
  std::lock_guard<std::mutex> lock(mu_);
  ++traces_started_;
  m_traces_started_.inc();
  return begin_locked(trace_id, 0, name, start, detail);
}

SpanId SpanTracer::begin_sampled(SpanId parent, std::string_view name,
                                 std::int64_t start, std::string_view detail) {
  std::lock_guard<std::mutex> lock(mu_);
  return begin_locked(parent.trace, parent.span, name, start, detail);
}

void SpanTracer::end_sampled(SpanId id, std::int64_t end_time,
                             std::int64_t value, std::string_view detail) {
  std::lock_guard<std::mutex> lock(mu_);
  // Reverse scan: span nesting makes end() LIFO, so the match is almost
  // always at or near the back.
  std::size_t ix = open_.size();
  while (ix > 0 && open_[ix - 1].span_id != id.span) --ix;
  if (ix == 0) return;
  SpanRecord rec = std::move(open_[ix - 1]);
  if (ix != open_.size()) open_[ix - 1] = std::move(open_.back());
  open_.pop_back();
  rec.end = end_time;
  rec.value = value;
  if (!detail.empty()) {
    rec.detail = capped(detail, &truncated_, &m_details_truncated_);
  }
  ring_[recorded_ % config_.capacity] = std::move(rec);
  ++recorded_;
  m_spans_recorded_.inc();
  if (recorded_ > config_.capacity) m_spans_dropped_.inc();
}

std::vector<SpanRecord> SpanTracer::finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t resident =
      std::min<std::uint64_t>(recorded_, config_.capacity);
  std::vector<SpanRecord> out;
  out.reserve(resident);
  for (std::uint64_t i = recorded_ - resident; i < recorded_; ++i) {
    out.push_back(ring_[i % config_.capacity]);
  }
  return out;
}

std::uint64_t SpanTracer::traces_started() const {
  std::lock_guard<std::mutex> lock(mu_);
  return traces_started_;
}

std::uint64_t SpanTracer::spans_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

std::uint64_t SpanTracer::spans_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t resident =
      std::min<std::uint64_t>(recorded_, config_.capacity);
  return recorded_ - resident;
}

std::uint64_t SpanTracer::spans_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_.size();
}

std::uint64_t SpanTracer::details_truncated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return truncated_;
}

std::string SpanTracer::to_jsonl() const {
  std::string out;
  for (const SpanRecord& s : finished()) {
    out += "{\"trace\":";
    out += std::to_string(s.trace_id);
    out += ",\"span\":";
    out += std::to_string(s.span_id);
    out += ",\"parent\":";
    out += std::to_string(s.parent_id);
    out += ",\"name\":\"";
    append_json_escaped(&out, s.name);
    out += "\",\"start\":";
    out += std::to_string(s.start);
    out += ",\"end\":";
    out += std::to_string(s.end);
    out += ",\"value\":";
    out += std::to_string(s.value);
    out += ",\"detail\":\"";
    append_json_escaped(&out, s.detail);
    out += "\"}\n";
  }
  return out;
}

bool SpanTracer::parse_jsonl(const std::string& text,
                             std::vector<SpanRecord>* out,
                             std::string* error) {
  out->clear();
  std::size_t lineno = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++lineno;
    if (line.empty()) continue;
    SpanRecord rec;
    std::size_t p = 0;
    std::int64_t sval = 0;
    const bool ok =
        scan_literal(line, &p, "{\"trace\":") &&
        scan_uint(line, &p, &rec.trace_id) &&
        scan_literal(line, &p, ",\"span\":") &&
        scan_uint(line, &p, &rec.span_id) &&
        scan_literal(line, &p, ",\"parent\":") &&
        scan_uint(line, &p, &rec.parent_id) &&
        scan_literal(line, &p, ",\"name\":") &&
        scan_string(line, &p, &rec.name) &&
        scan_literal(line, &p, ",\"start\":") &&
        scan_int(line, &p, &rec.start) &&
        scan_literal(line, &p, ",\"end\":") &&
        scan_int(line, &p, &rec.end) &&
        scan_literal(line, &p, ",\"value\":") &&
        scan_int(line, &p, &sval) &&
        scan_literal(line, &p, ",\"detail\":") &&
        scan_string(line, &p, &rec.detail) &&
        scan_literal(line, &p, "}") && p == line.size();
    if (!ok) {
      if (error != nullptr) {
        *error = "line " + std::to_string(lineno) + ": malformed span";
      }
      return false;
    }
    rec.value = sval;
    out->push_back(std::move(rec));
  }
  return true;
}

void SpanTracer::bind_metrics(MetricsRegistry& registry) {
  std::lock_guard<std::mutex> lock(mu_);
  m_traces_started_ = registry.counter(
      "nxd_obs_traces_started_total", "Sampled trace roots begun");
  m_spans_recorded_ = registry.counter(
      "nxd_obs_spans_recorded_total", "Finished spans moved into the ring");
  m_spans_dropped_ = registry.counter(
      "nxd_obs_spans_dropped_total", "Finished spans lost to ring wraparound");
  m_details_truncated_ = registry.counter(
      "nxd_obs_span_details_truncated_total",
      "Span detail strings cut at the detail cap");
  // Carry values accumulated before binding, mirroring bind_metrics elsewhere.
  if (traces_started_ > m_traces_started_.value()) {
    m_traces_started_.inc(traces_started_ - m_traces_started_.value());
  }
  if (recorded_ > m_spans_recorded_.value()) {
    m_spans_recorded_.inc(recorded_ - m_spans_recorded_.value());
  }
  const std::uint64_t resident =
      std::min<std::uint64_t>(recorded_, config_.capacity);
  if (recorded_ - resident > m_spans_dropped_.value()) {
    m_spans_dropped_.inc(recorded_ - resident - m_spans_dropped_.value());
  }
  if (truncated_ > m_details_truncated_.value()) {
    m_details_truncated_.inc(truncated_ - m_details_truncated_.value());
  }
}

void SpanTracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  open_.clear();
  for (auto& slot : ring_) slot = SpanRecord{};
  next_span_id_ = 1;
  traces_started_ = 0;
  recorded_ = 0;
  truncated_ = 0;
}

// ---------------------------------------------------------------------------
// Critical-path aggregation.

namespace {

std::int64_t rank_duration(std::vector<std::int64_t>& durations, double q) {
  if (durations.empty()) return 0;
  std::sort(durations.begin(), durations.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(durations.size())));
  if (rank == 0) rank = 1;
  return durations[rank - 1];
}

void render_tree(const std::vector<SpanRecord>& spans,
                 const std::multimap<std::uint64_t, std::size_t>& children,
                 std::size_t index, int depth, std::string* out) {
  const SpanRecord& s = spans[index];
  for (int i = 0; i < depth; ++i) *out += "  ";
  *out += s.name;
  *out += " [";
  *out += std::to_string(s.start);
  *out += "..";
  *out += std::to_string(s.end);
  *out += "] dur=";
  *out += std::to_string(s.duration());
  if (s.value != 0) {
    *out += " value=";
    *out += std::to_string(s.value);
  }
  if (!s.detail.empty()) {
    *out += " detail=";
    *out += s.detail;
  }
  *out += '\n';
  auto [lo, hi] = children.equal_range(s.span_id);
  for (auto it = lo; it != hi; ++it) {
    render_tree(spans, children, it->second, depth + 1, out);
  }
}

}  // namespace

CriticalPathReport aggregate_spans(const std::vector<SpanRecord>& spans) {
  CriticalPathReport report;
  report.spans = spans.size();

  // Child time per parent span id, for self-time attribution.  Only children
  // present in the input count — a parent whose children were dropped from
  // the ring keeps the time as self, which is the honest accounting.
  std::unordered_map<std::uint64_t, std::int64_t> child_time;
  for (const SpanRecord& s : spans) {
    if (s.parent_id != 0) child_time[s.parent_id] += s.duration();
  }

  std::map<std::string, SpanStat> by_name;
  std::vector<std::int64_t> roots;
  for (const SpanRecord& s : spans) {
    SpanStat& st = by_name[s.name];
    st.name = s.name;
    ++st.count;
    const std::int64_t dur = s.duration();
    st.total += dur;
    const auto it = child_time.find(s.span_id);
    const std::int64_t covered = it == child_time.end() ? 0 : it->second;
    st.self += std::max<std::int64_t>(0, dur - covered);
    st.max = std::max(st.max, dur);
    if (s.parent_id == 0) roots.push_back(dur);
  }
  report.traces = roots.size();
  {
    std::vector<std::int64_t> tmp = roots;
    report.p50_root = rank_duration(tmp, 0.50);
  }
  report.p99_root = rank_duration(roots, 0.99);  // roots now sorted
  report.max_root = roots.empty() ? 0 : roots.back();

  report.stages.reserve(by_name.size());
  for (auto& [name, st] : by_name) report.stages.push_back(std::move(st));
  std::sort(report.stages.begin(), report.stages.end(),
            [](const SpanStat& a, const SpanStat& b) {
              if (a.self != b.self) return a.self > b.self;
              return a.name < b.name;
            });

  // Pick the p99-rank root trace and return its spans in tree order.
  std::uint64_t slow_trace = 0;
  std::uint64_t slow_span = 0;
  for (const SpanRecord& s : spans) {
    if (s.parent_id != 0) continue;
    if (s.duration() == report.p99_root &&
        (slow_trace == 0 || s.span_id < slow_span)) {
      slow_trace = s.trace_id;
      slow_span = s.span_id;
    }
  }
  if (slow_trace != 0) {
    std::vector<SpanRecord> members;
    for (const SpanRecord& s : spans) {
      if (s.trace_id == slow_trace) members.push_back(s);
    }
    std::sort(members.begin(), members.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                if (a.start != b.start) return a.start < b.start;
                return a.span_id < b.span_id;
              });
    report.slowest = std::move(members);
  }
  return report;
}

std::string CriticalPathReport::to_text() const {
  std::string out;
  out += "critical path: ";
  out += std::to_string(traces);
  out += " traces, ";
  out += std::to_string(spans);
  out += " spans; root dur p50=";
  out += std::to_string(p50_root);
  out += " p99=";
  out += std::to_string(p99_root);
  out += " max=";
  out += std::to_string(max_root);
  out += '\n';
  out += "stage                     count      self     total       max\n";
  for (const SpanStat& st : stages) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%-24s %6llu %9lld %9lld %9lld\n",
                  st.name.c_str(),
                  static_cast<unsigned long long>(st.count),
                  static_cast<long long>(st.self),
                  static_cast<long long>(st.total),
                  static_cast<long long>(st.max));
    out += buf;
  }
  if (!slowest.empty()) {
    out += "slowest trace (p99 rank), trace id ";
    out += std::to_string(slowest.front().trace_id);
    out += ":\n";
    // Index children for tree rendering.
    std::multimap<std::uint64_t, std::size_t> children;
    for (std::size_t i = 0; i < slowest.size(); ++i) {
      if (slowest[i].parent_id != 0) {
        children.emplace(slowest[i].parent_id, i);
      }
    }
    for (std::size_t i = 0; i < slowest.size(); ++i) {
      if (slowest[i].parent_id == 0) {
        render_tree(slowest, children, i, 1, &out);
      }
    }
  }
  return out;
}

}  // namespace nxd::obs
