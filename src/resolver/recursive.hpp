// Recursive resolver: cache in front of the iterative hierarchy walk.
//
// This is the "Local DNS" box in the paper's Fig. 1 and the vantage point
// from which passive-DNS sensors observe traffic: every response it returns
// (cache hit or not) can be exported to a pdns::SieChannel.
//
// Two upstream paths exist.  The default calls the hierarchy directly
// (perfect wire, zero packets).  `use_network` routes every upstream query
// through a SimNetwork as real DNS packets — subject to the network's
// fault-injection plan — governed by an explicit RetryPolicy: per-try
// timeouts, exponential backoff with jitter, and graceful degradation to
// SERVFAIL (never a spurious NXDomain) when every upstream is exhausted.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "net/sim_network.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "resolver/cache.hpp"
#include "resolver/health.hpp"
#include "resolver/hierarchy.hpp"
#include "resolver/retry.hpp"
#include "util/civil_time.hpp"

namespace nxd::resolver {

struct ResolveOutcome {
  dns::Message response;
  bool from_cache = false;
  bool negative_cache_hit = false;
  /// Simulated seconds the upstream resolution took (timeouts + backoff +
  /// injected transit delay); 0 for cache hits and the direct path.
  util::SimTime elapsed = 0;
};

/// Toggles for the adversarial-workload defenses (see DESIGN.md §4g and
/// src/attack).  All default to the *undefended* posture so the baseline
/// resolver keeps its historical behavior; the bench flips them one at a
/// time to measure each defense's contribution.
struct ResolverDefenses {
  /// Consume NSEC range proofs from NXDomain responses and synthesize
  /// NXDomain for any later name in a proven-empty span (RFC 8198).
  bool aggressive_negative = false;
  /// Max NS targets fetched per received referral (0 = fetch all, the
  /// NXNSAttack-vulnerable posture; BIND's post-CVE-2020-8616 limit is 5).
  int max_fetch_per_delegation = 0;
  /// Max delegation fetches charged to one registered domain per
  /// `budget_window` simulated seconds (0 = unlimited).
  int zone_fetch_budget = 0;
  util::SimTime budget_window = 60;
  /// Send minimized qnames to root/TLD tiers (RFC 7816 style).
  bool qname_minimization = false;
  /// Ceiling on resolver-side CNAME chain chasing before SERVFAIL.  The
  /// default is a deliberately generous undefended posture; the defended
  /// configuration drops it to single digits.
  int max_cname_chase = 64;
};

struct RecursiveStats {
  std::uint64_t client_queries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t upstream_resolutions = 0;
  std::uint64_t nxdomain_responses = 0;
  // Network-path robustness counters: how much of the observed stream is
  // failure noise rather than genuine NXDomain volume.
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t servfail_responses = 0;
  // Adversarial-workload counters (attack suite).  upstream_sends counts
  // every packet the resolver puts on the wire — the denominator of the
  // amplification factor; delegation_* and cname_* expose the NXNS and
  // CNAME-bomb hot paths; minimized_queries counts RFC 7816-style
  // minimized sub-queries sent upstream.
  std::uint64_t upstream_sends = 0;
  std::uint64_t delegation_fetches = 0;
  std::uint64_t delegation_capped = 0;
  std::uint64_t cname_chases = 0;
  std::uint64_t cname_capped = 0;
  std::uint64_t minimized_queries = 0;
  // Adaptive-health counters (HealthModel path).  hedged_queries counts
  // speculative duplicate sends; wins served the client, losses were wasted
  // (the primary answered first); hedges where *both* sides died count
  // neither.  breaker_skips counts servers bypassed by an open breaker.
  std::uint64_t hedged_queries = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t hedge_losses = 0;
  std::uint64_t breaker_skips = 0;

  /// Exact fold for per-worker resolver fleets: every field is a plain sum,
  /// so stats from N resolvers combine to what one resolver serving the
  /// union stream would have counted.
  RecursiveStats& operator+=(const RecursiveStats& other) noexcept {
    client_queries += other.client_queries;
    cache_hits += other.cache_hits;
    upstream_resolutions += other.upstream_resolutions;
    nxdomain_responses += other.nxdomain_responses;
    retries += other.retries;
    timeouts += other.timeouts;
    servfail_responses += other.servfail_responses;
    upstream_sends += other.upstream_sends;
    delegation_fetches += other.delegation_fetches;
    delegation_capped += other.delegation_capped;
    cname_chases += other.cname_chases;
    cname_capped += other.cname_capped;
    minimized_queries += other.minimized_queries;
    hedged_queries += other.hedged_queries;
    hedge_wins += other.hedge_wins;
    hedge_losses += other.hedge_losses;
    breaker_skips += other.breaker_skips;
    return *this;
  }

  friend RecursiveStats operator+(RecursiveStats a,
                                  const RecursiveStats& b) noexcept {
    a += b;
    return a;
  }

  friend bool operator==(const RecursiveStats&, const RecursiveStats&) = default;
};

class RecursiveResolver {
 public:
  /// Observer invoked for every response handed to a client; this is where
  /// a passive-DNS sensor taps the resolver.
  using ResponseObserver =
      std::function<void(const dns::Message& query, const dns::Message& response,
                         bool from_cache, util::SimTime when)>;

  RecursiveResolver(const DnsHierarchy& hierarchy, ResolverCache::Config cache_config = {});

  void set_observer(ResponseObserver observer) { observer_ = std::move(observer); }

  /// Route upstream resolution through `network`: the root/TLD/auth tiers
  /// are queried at `endpoints` as real packets (the hierarchy must already
  /// be attach()ed there), each governed by `policy`.  `jitter_seed` feeds
  /// the backoff-jitter Rng, keeping chaos runs reproducible.
  void use_network(net::SimNetwork& network, HierarchyEndpoints endpoints = {},
                   RetryPolicy policy = {}, std::uint64_t jitter_seed = 1);

  const RetryPolicy& retry_policy() const noexcept { return net_.policy; }

  /// Turn on adaptive upstream health: per-server SRTT/success tracking
  /// orders each tier's candidate set, per-try timeouts shrink toward the
  /// tracked SRTT (still capped by the RetryPolicy), circuit breakers skip
  /// dead servers, and slow tries are hedged to a healthy sibling.  Without
  /// a model the same attempt loop runs in the configured server order with
  /// the RetryPolicy's fixed timeout and no hedging.  Replaces any previous
  /// model (estimates reset).
  void enable_health(HealthConfig config = {});
  void disable_health() noexcept { health_.reset(); }
  HealthModel* health() noexcept { return health_.get(); }
  const HealthModel* health() const noexcept { return health_.get(); }

  /// Install (or reset) the adversarial-workload defense posture.  Takes
  /// effect on the next query; flipping a defense never invalidates cached
  /// data.
  void set_defenses(ResolverDefenses defenses) noexcept {
    defenses_ = defenses;
  }
  const ResolverDefenses& defenses() const noexcept { return defenses_; }

  ResolveOutcome resolve(const dns::Message& query, util::SimTime now);

  /// Convenience: resolve (name, A) and report only the rcode.
  dns::RCode resolve_rcode(const dns::DomainName& name, util::SimTime now);

  /// Re-home the resolver's counters in a shared registry (current values
  /// carry over).  The public stats() struct keeps working either way — its
  /// fields are views over the registry handles.
  void bind_metrics(obs::MetricsRegistry& registry);

  /// Start emitting causal spans: one sampled trace per client query (keyed
  /// by the query sequence number, so a fixed tracer seed samples the same
  /// queries every run) with child spans for cache hits, tier walks,
  /// per-upstream tries, hedge races, delegation fetches and CNAME hops.
  /// Sampled traces also tag the upstream latency histogram with an
  /// exemplar.  Pass nullptr to stop.
  void trace_spans(obs::SpanTracer* spans) noexcept { spans_ = spans; }
  obs::SpanTracer* span_tracer() const noexcept { return spans_; }

  const RecursiveStats& stats() const noexcept;
  const ResolverCache& cache() const noexcept { return cache_; }
  /// Registered domains holding a delegation-fetch budget window.  Expired
  /// windows are swept whenever the map doubles, so this stays within twice
  /// the domains charged in one `budget_window`.
  std::size_t zone_budget_entries() const noexcept {
    return zone_budgets_.size();
  }
  void flush_cache() { cache_.clear(); }

 private:
  struct NetworkPath {
    net::SimNetwork* network = nullptr;
    HierarchyEndpoints endpoints;
    RetryPolicy policy;
    util::Rng rng{1};
  };

  /// Walk root -> TLD -> auth over the network with retries; returns the
  /// final response, or SERVFAIL when a tier never answered.  Advances
  /// `now` by the simulated time the walk consumed.
  dns::Message resolve_via_network(const dns::Message& query, util::SimTime& now);

  /// Query one tier's candidate servers, each with the full retry budget,
  /// in the given order — or, with a health model, ranked by health with
  /// open breakers skipped.
  std::optional<dns::Message> query_tier(
      const std::vector<net::Endpoint>& servers, const dns::Message& query,
      util::SimTime& now);

  /// The attempt loop for one server under the retry policy.  Advances
  /// `now` per timeout/backoff; nullopt when every attempt was exhausted.
  /// With a health model, per-try timeouts adapt, slow tries are hedged to
  /// the next-best closed-breaker sibling in `ranked`, and the loop exits
  /// early when the breaker trips mid-retries.
  std::optional<dns::Message> query_server(
      const net::Endpoint& server, const std::vector<net::Endpoint>& ranked,
      const dns::Message& query, util::SimTime& now);

  /// One upstream walk (network or direct), qname-minimized when the
  /// defense is on.  Does not touch the cache or client-facing stats.
  dns::Message upstream_walk(const dns::Message& query, util::SimTime& now);

  /// Cache-through resolution used for the resolver's *own* follow-up
  /// queries (delegation NS fetches, CNAME chase hops).  Checks the cache,
  /// walks upstream on a miss, and stores the outcome — but never counts
  /// client_queries, never fires the observer, and never chases referrals
  /// or aliases itself (the caller owns that loop).
  dns::Message internal_resolve(const dns::DomainName& name, dns::RRType type,
                                util::SimTime& now);

  /// Process a referral that reached the client path: fetch the glueless NS
  /// targets subject to the per-referral cap and per-zone budget.  Returns
  /// the response handed to the client (SERVFAIL — the child zone's servers
  /// are unreachable in this simulation, which is exactly the NXNS setup).
  dns::Message handle_referral(const dns::Message& query,
                               const dns::Message& referral,
                               util::SimTime& now);

  /// Chase a dangling CNAME tail in `response` (alias whose target is not
  /// answered in the same message), bounded by the chase cap.  Mutates the
  /// response in place: appends chased records, and rewrites the rcode when
  /// the chain ends in NXDomain or is cut off.
  void chase_cname_tail(const dns::Message& query, dns::Message& response,
                        util::SimTime& now);

  /// Store negative knowledge from an NXDomain response: the exact-name
  /// entry (RFC 2308) plus — when aggressive synthesis is on and the
  /// response carries an in-bailiwick NSEC — the proven-empty range.
  void cache_nxdomain(const dns::DomainName& qname,
                      const dns::Message& response, util::SimTime now);

  /// Registry handles behind the RecursiveStats fields, one per field.
  struct Metrics {
    obs::Counter client_queries;
    obs::Counter cache_hits;
    obs::Counter upstream_resolutions;
    obs::Counter nxdomain_responses;
    obs::Counter retries;
    obs::Counter timeouts;
    obs::Counter servfail_responses;
    obs::Counter upstream_sends;
    obs::Counter delegation_fetches;
    obs::Counter delegation_capped;
    obs::Counter cname_chases;
    obs::Counter cname_capped;
    obs::Counter minimized_queries;
    obs::Counter hedged_queries;
    obs::Counter hedge_wins;
    obs::Counter hedge_losses;
    obs::Counter breaker_skips;
    obs::LatencyHistogram upstream_seconds;
  };

  /// (Re-)acquire every handle in `registry`.
  void acquire_metrics(obs::MetricsRegistry& registry);

  const DnsHierarchy& hierarchy_;
  ResolverCache cache_;
  /// Cached struct refreshed from the handles by stats().
  mutable RecursiveStats stats_;
  ResponseObserver observer_;
  NetworkPath net_;
  ResolverDefenses defenses_;
  std::unique_ptr<HealthModel> health_;
  /// Shared registry remembered by bind_metrics so a later enable_health
  /// lands its counters in the same place.
  obs::MetricsRegistry* bound_registry_ = nullptr;
  /// Per-registered-domain delegation-fetch budget windows.
  struct ZoneBudget {
    util::SimTime window_start = 0;
    int spent = 0;
  };
  std::unordered_map<dns::DomainName, ZoneBudget, dns::DomainNameHash>
      zone_budgets_;
  /// zone_budgets_ is swept of expired windows once it reaches this size.
  std::size_t budget_sweep_at_ = 0;
  std::uint16_t next_id_ = 1;

  /// Private fallback registry used until bind_metrics() re-homes the
  /// handles; keeps the un-instrumented construction path self-contained.
  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  Metrics m_;
  std::uint64_t query_seq_ = 0;  // trace correlation id for the live query

  /// Span context for the live query.  The resolver is single-threaded per
  /// instance (like query_seq_), so plain members carry the causal chain:
  /// root_span_ is the client query's root, span_cursor_ the parent for the
  /// next tier walk (upstream / referral fetch / CNAME hop), tier_span_ the
  /// parent for per-try spans inside the current tier.
  obs::SpanTracer* spans_ = nullptr;
  obs::SpanId root_span_{};
  obs::SpanId span_cursor_{};
  obs::SpanId tier_span_{};
};

}  // namespace nxd::resolver
