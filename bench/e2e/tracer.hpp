// Bench-local spans: the measuring tool for the per-layer ledger.
//
// Deliberately independent of obs::SpanTracer, so a change to src/obs can
// never change how the benchmark measures.  Every call the benchmark makes
// into a library module's public functions is wrapped in a Span named
// "<layer>.<call>", where the layer is the module (pdns, analysis, dns,
// resolver, net, honeypot) or "upstream" for the simulated root/TLD/auth
// servers.  Each phase of a run (serve, analysis, recover, replay) is a root
// span named "phase.<phase>"; a root's self time is the time no wrapped
// call covered, reported as the ledger's unattributed share.
//
// Spans nest strictly (one thread), so self time is computed online: a
// closing span adds its duration to its parent's child time.  Records
// ({id, name, parent, start_ns, end_ns}) are kept only when an output
// directory asked for the JSONL export.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace nxd::bench {

enum class S : std::uint8_t {
  PhaseServe,
  PhaseAnalysis,
  PhaseRecover,
  PhaseReplay,
  PdnsOpen,
  PdnsSubmit,
  PdnsWait,
  PdnsCheckpoint,
  PdnsMaterialize,
  PdnsHighTraffic,
  PdnsTap,
  PdnsLoadSnapshot,
  AnalysisSummary,
  AnalysisMonthly,
  AnalysisTopTlds,
  AnalysisLifespan,
  AnalysisOrigin,
  DnsDecode,
  DnsEncode,
  ResolverRrl,
  ResolverHit,
  ResolverMiss,
  UpstreamRoot,
  UpstreamTld,
  UpstreamAuth,
  NetConnect,
  NetSend,
  NetWait,
  NetRecv,
  NetClose,
  HoneypotConnOpen,
  HoneypotConnData,
  HoneypotFilter,
  HoneypotParse,
  HoneypotCategorize,
  HoneypotBotnet,
  HoneypotReadCapture,
  kCount,
};

inline constexpr std::size_t kSpanNames = static_cast<std::size_t>(S::kCount);

std::string_view span_name(S s);
/// The text before the first '.', e.g. "pdns" for "pdns.submit".
std::string_view span_layer(S s);
bool is_root(S s);

class Tracer {
 public:
  explicit Tracer(bool keep_records);

  /// Spans opened while inactive are not recorded.  Toggle only between
  /// root spans; the trace-overhead estimate alternates traced and
  /// untraced chunks of the same workload this way.
  bool active() const noexcept { return active_; }
  void set_active(bool on) noexcept { active_ = on; }

  void begin(S name);
  /// Close the innermost span, recording it under `name`.
  void end(S name);

  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t total_ns = 0;
  };
  const Agg& agg(S name) const { return agg_[static_cast<std::size_t>(name)]; }

  struct Ledger {
    double wall_ns = 0;           ///< sum of root-span durations
    double unattributed_ns = 0;   ///< sum of root-span self times
    std::map<std::string, double> layer_self_ns;
    std::map<std::string, double> span_self_ns;  ///< per span name
  };
  Ledger ledger() const;

  void write_jsonl(std::ostream& out) const;
  /// Spans not exported because the record buffer was full.
  std::uint64_t records_dropped() const noexcept { return dropped_; }

 private:
  struct Open {
    S name;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::uint32_t record;
  };
  struct Record {
    S name;
    std::uint32_t parent;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  static constexpr std::uint32_t kNoRecord = 0xffffffffu;
  static constexpr std::size_t kMaxRecords = std::size_t{1} << 18;

  bool keep_records_;
  bool active_ = true;
  std::uint64_t epoch_ns_;
  std::vector<Open> stack_;
  std::array<Agg, kSpanNames> agg_{};
  std::vector<Record> records_;
  std::uint64_t dropped_ = 0;
};

/// RAII span; a no-op when `tracer` is null or inactive.
class Span {
 public:
  Span(Tracer* tracer, S name)
      : tracer_(tracer != nullptr && tracer->active() ? tracer : nullptr),
        name_(name) {
    if (tracer_ != nullptr) tracer_->begin(name);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end(name_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Record the span under another name (e.g. a resolve that turned out to
  /// be a cache hit).
  void rename(S name) noexcept { name_ = name; }

 private:
  Tracer* tracer_;
  S name_;
};

/// Individually timed repetitions of one fixed-size phase (analysis or
/// recover).  Workloads interleave them with serving, so the samples spread
/// over the whole run and a slow spell on a shared machine moves only some
/// of them; the median is reported.  Only the first repetition is traced,
/// so the ledger weighs each phase once, as one pass of the pipeline would.
class Reps {
 public:
  Reps(Tracer* tracer, S phase) : tracer_(tracer), phase_(phase) {}

  template <typename Body>
  void run(Body&& body) {
    const bool was_active = tracer_ != nullptr && tracer_->active();
    if (tracer_ != nullptr) tracer_->set_active(was_active && times_.empty());
    const auto start = now_ns();
    {
      Span root(tracer_, phase_);
      body();
    }
    times_.push_back(seconds_since(start));
    if (tracer_ != nullptr) tracer_->set_active(was_active);
  }

  std::size_t count() const noexcept { return times_.size(); }
  const std::vector<double>& times() const noexcept { return times_; }

 private:
  Tracer* tracer_;
  S phase_;
  std::vector<double> times_;
};

}  // namespace nxd::bench
