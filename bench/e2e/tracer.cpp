#include "tracer.hpp"

#include "common.hpp"

namespace nxd::bench {

namespace {

constexpr std::array<std::string_view, kSpanNames> kNames = {
    "phase.serve",          "phase.analysis",       "phase.recover",
    "phase.replay",         "pdns.open",            "pdns.submit",
    "pdns.wait",            "pdns.checkpoint",      "pdns.materialize",
    "pdns.high_traffic",    "pdns.tap",             "pdns.load_snapshot",
    "analysis.summary",     "analysis.monthly",     "analysis.top_tlds",
    "analysis.lifespan",    "analysis.origin",      "dns.decode",
    "dns.encode",           "resolver.rrl",         "resolver.hit",
    "resolver.miss",        "upstream.root",        "upstream.tld",
    "upstream.auth",        "net.connect",          "net.send",
    "net.wait",             "net.recv",             "net.close",
    "honeypot.conn_open",   "honeypot.conn_data",   "honeypot.filter",
    "honeypot.parse",       "honeypot.categorize",  "honeypot.botnet",
    "honeypot.read_capture",
};

}  // namespace

std::string_view span_name(S s) { return kNames[static_cast<std::size_t>(s)]; }

std::string_view span_layer(S s) {
  const auto name = span_name(s);
  return name.substr(0, name.find('.'));
}

bool is_root(S s) { return span_layer(s) == "phase"; }

Tracer::Tracer(bool keep_records)
    : keep_records_(keep_records), epoch_ns_(now_ns()) {}

void Tracer::begin(S name) {
  std::uint32_t record = kNoRecord;
  const std::uint64_t start = now_ns();
  if (keep_records_) {
    if (records_.size() < kMaxRecords) {
      record = static_cast<std::uint32_t>(records_.size());
      const std::uint32_t parent =
          stack_.empty() ? kNoRecord : stack_.back().record;
      records_.push_back(Record{name, parent, start - epoch_ns_, 0});
    } else {
      ++dropped_;
    }
  }
  stack_.push_back(Open{name, start, 0, record});
}

void Tracer::end(S name) {
  const std::uint64_t end = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t duration = end - open.start_ns;
  auto& a = agg_[static_cast<std::size_t>(name)];
  ++a.count;
  a.total_ns += duration;
  a.self_ns += duration > open.child_ns ? duration - open.child_ns : 0;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (open.record != kNoRecord) {
    records_[open.record].name = name;
    records_[open.record].end_ns = end - epoch_ns_;
  }
}

Tracer::Ledger Tracer::ledger() const {
  Ledger l;
  for (std::size_t i = 0; i < kSpanNames; ++i) {
    const auto s = static_cast<S>(i);
    const auto& a = agg_[i];
    if (is_root(s)) {
      l.wall_ns += static_cast<double>(a.total_ns);
      l.unattributed_ns += static_cast<double>(a.self_ns);
    } else {
      l.layer_self_ns[std::string(span_layer(s))] +=
          static_cast<double>(a.self_ns);
    }
    l.span_self_ns[std::string(span_name(s))] = static_cast<double>(a.self_ns);
  }
  return l;
}

void Tracer::write_jsonl(std::ostream& out) const {
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << span_name(r.name)
        << "\",\"parent\":";
    if (r.parent == kNoRecord) {
      out << "null";
    } else {
      out << r.parent;
    }
    out << ",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns
        << "}\n";
  }
}

}  // namespace nxd::bench
