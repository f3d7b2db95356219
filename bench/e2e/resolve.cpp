// resolve and attack: client queries through the defended resolver.
//
// Per query: dns::decode -> ResponseRateLimiter::check ->
// RecursiveResolver::resolve over a fault-free SimNetwork -> dns::encode,
// with the passive-DNS sensor tap (set_observer -> pdns::observe ->
// PassiveDnsStore::ingest) on.  Single-threaded closed loop; the sim clock
// advances 1 s per 100 queries, so TTLs expire.  Both workloads use the
// defended posture (attack::DefensePlan::all_defenses(), range proofs on).
//
//   resolve: 10,000 registered zones; 65% Zipf(1.0) over registered names,
//            35% Zipf(1.0) over a 50k never-registered NxDomainNameModel
//            pool.  Mostly cache hits with a long upstream tail across many
//            zones, plus the per-Observation ingest path feed never uses.
//   attack:  NXNS, water-torture and CNAME-bomb generators in one hierarchy
//            plus 16 legit domains (~40 zones); attack queries round-robin
//            across the three shapes with one legit query after every 5.
//            Nearly every query misses and writes the negative cache or the
//            NSEC range store; fetch budgets and the chase cap fire.  Latency
//            is sampled on the legit queries, whose names carry 1 s TTLs so
//            they resolve through the hierarchy while the attack runs.
//
// The sensor store starts from a seeded 2014-2022 history, the way a
// deployed sensor's store holds months of data before the measured traffic
// arrives.  The analysis phase runs the §4 queries over that store as it
// stood after the warm-up; the recover phase reloads it from its snapshot
// file.  Their repetitions are spread evenly over the serve time.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <unordered_set>

#include "analysis/scale.hpp"
#include "attack/cname_bomb.hpp"
#include "attack/harness.hpp"
#include "attack/nxns.hpp"
#include "attack/water_torture.hpp"
#include "common.hpp"
#include "dns/message.hpp"
#include "net/sim_network.hpp"
#include "obs/metrics.hpp"
#include "pdns/observation.hpp"
#include "pdns/sampler.hpp"
#include "pdns/snapshot.hpp"
#include "pdns/store.hpp"
#include "resolver/hierarchy.hpp"
#include "resolver/recursive.hpp"
#include "resolver/rrl.hpp"
#include "synth/scale_models.hpp"
#include "tracer.hpp"
#include "util/rng.hpp"

namespace nxd::bench {
namespace {

struct Query {
  std::vector<std::uint8_t> wire;
  net::IPv4 source;
  /// Ground truth the response must match; only checked when `checked`.
  dns::RCode expect = dns::RCode::NoError;
  bool checked = false;
  /// Counts toward the latency percentiles (resolve: every query; attack:
  /// the legit queries only).
  bool sampled = false;
};

struct ResolveSizes {
  std::size_t zones;
  std::size_t nx_pool;
  std::size_t pass_queries;  // resolve: client queries per pass
  std::size_t attack_per_pass;
  double history_scale;  // the sensor store's seeded 2014-2022 history
};

ResolveSizes resolve_sizes(const Options& opt) {
  if (opt.smoke) return ResolveSizes{200, 500, 1'200, 1'000, 2e-9};
  return ResolveSizes{10'000, 50'000, 120'000, 100'000, 2e-7};
}

constexpr int kLegitDomains = 16;
constexpr std::uint32_t kLegitTtl = 1;
constexpr int kLegitEvery = 5;
constexpr std::size_t kChunk = 2'048;  // queries per serve chunk
constexpr std::size_t kSources = 1'024;

/// Everything one run needs.  Held by pointer: the network's services and
/// the resolver keep references into the hierarchy.
struct World {
  resolver::DnsHierarchy hierarchy;
  net::SimNetwork network;
  std::unique_ptr<resolver::RecursiveResolver> resolver;
  resolver::ResponseRateLimiter rrl{resolver::RrlConfig{
      .responses_per_second = 20, .burst = 40}};
  /// The sensor's passive-DNS store: a seeded history (as a deployed
  /// sensor's store holds before the measured traffic) plus the live tap.
  pdns::PassiveDnsStore tap;
  std::uint64_t history_nx = 0;
  std::vector<Query> queries;  // the current pass

  // resolve
  std::vector<dns::DomainName> registered;
  std::vector<dns::DomainName> nx_pool;
  // attack
  std::vector<std::unique_ptr<attack::AttackGenerator>> generators;
  std::vector<dns::DomainName> legit;
};

net::IPv4 source_ip(std::size_t i) {
  return net::IPv4::from_octets(10, static_cast<std::uint8_t>(i >> 16),
                                static_cast<std::uint8_t>(i >> 8),
                                static_cast<std::uint8_t>(i));
}

/// The six-line body of DnsHierarchy::attach, with each tier's answer and
/// the packet codec wrapped in bench-local spans, so simulated upstream
/// time is separated from the resolver's own time.
void attach_traced(World& w, Tracer* tracer) {
  const resolver::HierarchyEndpoints endpoints;
  const std::pair<resolver::ServerTier, S> tiers[] = {
      {resolver::ServerTier::Root, S::UpstreamRoot},
      {resolver::ServerTier::Tld, S::UpstreamTld},
      {resolver::ServerTier::Authoritative, S::UpstreamAuth}};
  for (const auto& [tier, span] : tiers) {
    for (const net::Endpoint& endpoint : endpoints.tier_servers(tier)) {
      w.network.attach(
          endpoint, net::Protocol::UDP,
          [&hierarchy = w.hierarchy, tracer, tier = tier, span = span](
              const net::SimPacket& packet)
              -> std::optional<std::vector<std::uint8_t>> {
            std::optional<dns::Message> query;
            {
              Span s(tracer, S::DnsDecode);
              query = dns::decode(packet.payload);
            }
            if (!query || query->header.qr) return std::nullopt;
            dns::Message answer;
            {
              Span s(tracer, span);
              answer = hierarchy.answer_at(tier, *query);
            }
            Span s(tracer, S::DnsEncode);
            return dns::encode(answer);
          });
    }
  }
}

void wire_world(World& w, const ResolveSizes& z, const Options& opt,
                Tracer* tracer, obs::MetricsRegistry& registry) {
  synth::fill_store_with_history(w.tap, z.history_scale, opt.seed);
  w.history_nx = w.tap.nx_responses();
  const auto plan = attack::DefensePlan::all_defenses();
  w.hierarchy.enable_range_proofs(plan.range_proofs);
  if (tracer != nullptr) {
    attach_traced(w, tracer);
  } else {
    w.hierarchy.attach(w.network);
  }
  w.resolver = std::make_unique<resolver::RecursiveResolver>(w.hierarchy);
  w.resolver->use_network(w.network, {}, {}, opt.seed);
  w.resolver->set_defenses(plan.defenses);
  w.resolver->bind_metrics(registry);
  w.rrl.bind_metrics(registry);
  w.network.bind_metrics(registry);
  w.tap.bind_metrics(registry, {{"stage", "tap"}});
  w.resolver->set_observer([&w, tracer](const dns::Message& q,
                                        const dns::Message& response, bool,
                                        util::SimTime when) {
    Span s(tracer, S::PdnsTap);
    w.tap.ingest(pdns::observe(q, response, when));
  });
}

// ------------------------------------------------------------- resolve

void make_resolve_pass(World& w, const ResolveSizes& z, std::uint64_t seed,
                       std::size_t pass) {
  util::Rng rng(util::SplitMix64(seed ^ (0x5eed0000ULL + pass)).next());
  const util::ZipfSampler registered_zipf(w.registered.size(), 1.0);
  const util::ZipfSampler nx_zipf(w.nx_pool.size(), 1.0);
  w.queries.clear();
  w.queries.reserve(z.pass_queries);
  for (std::size_t i = 0; i < z.pass_queries; ++i) {
    const bool exists = rng.chance(0.65);
    const auto& name =
        exists ? w.registered[registered_zipf.sample(rng) - 1]
               : w.nx_pool[nx_zipf.sample(rng) - 1];
    Query q;
    q.wire = dns::encode(dns::make_query(static_cast<std::uint16_t>(i + 1),
                                         name, dns::RRType::A));
    q.source = source_ip(rng.bounded(kSources));
    q.expect = exists ? dns::RCode::NoError : dns::RCode::NXDomain;
    q.checked = true;
    q.sampled = true;
    w.queries.push_back(std::move(q));
  }
}

std::unique_ptr<World> make_resolve_world(const ResolveSizes& z,
                                          const Options& opt, Tracer* tracer,
                                          obs::MetricsRegistry& registry) {
  auto w = std::make_unique<World>();
  const synth::NxDomainNameModel model(opt.seed);
  util::Rng rng(opt.seed);
  std::unordered_set<dns::DomainName, dns::DomainNameHash> seen;
  std::uint32_t address = 0;
  while (w->registered.size() < z.zones) {
    auto name = model.next_registrable(rng);
    if (!seen.insert(name).second) continue;
    ++address;
    w->hierarchy.register_domain(
        name,
        dns::IPv4::from_octets(100, static_cast<std::uint8_t>(address >> 16),
                               static_cast<std::uint8_t>(address >> 8),
                               static_cast<std::uint8_t>(address)));
    w->registered.push_back(std::move(name));
  }
  while (w->nx_pool.size() < z.nx_pool) {
    auto name = model.next(rng);
    if (!seen.insert(name).second) continue;
    w->nx_pool.push_back(std::move(name));
  }
  // Zipf rank r maps to index r-1; shuffle so popularity is not tied to
  // generation order.
  for (auto* names : {&w->registered, &w->nx_pool}) {
    for (std::size_t i = names->size(); i > 1; --i) {
      std::swap((*names)[i - 1], (*names)[rng.bounded(i)]);
    }
  }
  wire_world(*w, z, opt, tracer, registry);
  make_resolve_pass(*w, z, opt.seed, 0);
  return w;
}

// -------------------------------------------------------------- attack

void make_attack_pass(World& w, const ResolveSizes& z, std::uint64_t seed,
                      std::size_t pass) {
  util::Rng rng(util::SplitMix64(seed ^ (0xa77ac000ULL + pass)).next());
  w.queries.clear();
  w.queries.reserve(z.attack_per_pass + z.attack_per_pass / kLegitEvery);
  const std::size_t shapes = w.generators.size();
  std::uint64_t legit_ix = pass * (z.attack_per_pass / kLegitEvery);
  for (std::size_t i = 0; i < z.attack_per_pass; ++i) {
    // Fresh attack names every pass: query index continues across passes.
    const std::uint64_t global = pass * z.attack_per_pass + i;
    Query q;
    q.wire = dns::encode(
        w.generators[global % shapes]->query(global / shapes));
    q.source = source_ip(rng.bounded(kSources));
    w.queries.push_back(std::move(q));
    if ((i + 1) % kLegitEvery == 0) {
      Query l;
      l.wire = dns::encode(dns::make_query(
          static_cast<std::uint16_t>(40'000 + legit_ix % 20'000),
          w.legit[legit_ix % w.legit.size()], dns::RRType::A));
      ++legit_ix;
      l.source = source_ip(kSources + legit_ix % kLegitDomains);
      l.expect = dns::RCode::NoError;
      l.checked = true;
      l.sampled = true;
      w.queries.push_back(std::move(l));
    }
  }
}

std::unique_ptr<World> make_attack_world(const ResolveSizes& z,
                                         const Options& opt, Tracer* tracer,
                                         obs::MetricsRegistry& registry) {
  auto w = std::make_unique<World>();
  attack::NxnsConfig nxns;
  nxns.seed = opt.seed;
  attack::WaterTortureConfig torture;
  torture.seed = opt.seed;
  attack::CnameBombConfig cname;
  cname.seed = opt.seed;
  cname.chain_length = 8;
  cname.chains = 2;
  w->generators.push_back(std::make_unique<attack::NxnsAttack>(nxns));
  w->generators.push_back(
      std::make_unique<attack::WaterTortureAttack>(torture));
  w->generators.push_back(std::make_unique<attack::CnameBombAttack>(cname));
  for (const auto& g : w->generators) g->install(w->hierarchy);
  // One-second TTLs (CDN-style): each legit name comes round about once a
  // simulated second, so nearly every legit query resolves through the
  // hierarchy while the attack runs instead of being a cache hit.
  for (int d = 0; d < kLegitDomains; ++d) {
    auto name = dns::DomainName::must("legit-" + std::to_string(d) + ".org");
    w->hierarchy.register_domain(
        name,
        dns::IPv4::from_octets(198, 51, 100, static_cast<std::uint8_t>(1 + d)),
        kLegitTtl);
    w->legit.push_back(std::move(name));
  }
  wire_world(*w, z, opt, tracer, registry);
  make_attack_pass(*w, z, opt.seed, 0);
  return w;
}

// ------------------------------------------------------------- shared

struct Served {
  dns::RCode rcode = dns::RCode::ServFail;
  bool passed_rrl = false;
};

Served serve_one(World& w, const Query& q, util::SimTime now,
                 Tracer* tracer) {
  Served out;
  std::optional<dns::Message> message;
  {
    Span s(tracer, S::DnsDecode);
    message = dns::decode(q.wire);
  }
  if (!message) return out;
  resolver::RrlVerdict verdict;
  {
    Span s(tracer, S::ResolverRrl);
    verdict = w.rrl.check(q.source, now);
  }
  if (verdict != resolver::RrlVerdict::Pass) return out;
  out.passed_rrl = true;
  resolver::ResolveOutcome outcome;
  {
    Span s(tracer, S::ResolverMiss);
    outcome = w.resolver->resolve(*message, now);
    if (outcome.from_cache) s.rename(S::ResolverHit);
  }
  std::vector<std::uint8_t> wire;
  {
    Span s(tracer, S::DnsEncode);
    wire = dns::encode(outcome.response);
  }
  out.rcode = outcome.response.header.rcode;
  return out;
}

/// Pass-level tallies of what the serve phase returned, for the checks.
struct Tally {
  std::uint64_t served = 0;
  std::uint64_t nx = 0;
  std::uint64_t servfail = 0;
  std::uint64_t rrl_limited = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t spurious_nx = 0;

  void add(const Query& q, const Served& s) {
    ++served;
    if (!s.passed_rrl) {
      ++rrl_limited;
      return;
    }
    if (s.rcode == dns::RCode::NXDomain) ++nx;
    if (s.rcode == dns::RCode::ServFail) ++servfail;
    if (q.checked && s.rcode != q.expect) {
      ++mismatches;
      if (s.rcode == dns::RCode::NXDomain) ++spurious_nx;
    }
  }
};

Result run_resolver_workload(const Options& opt, Tracer* tracer,
                             bool is_attack) {
  Result r;
  r.workload = is_attack ? "attack" : "resolve";
  r.threads = 1;
  const ResolveSizes z = resolve_sizes(opt);
  obs::MetricsRegistry registry;

  // The traced run stays on one CPU, so its traced and untraced chunks
  // compare like with like.
  CpuRotation rotation(!opt.trace);
  std::unique_ptr<World> w;
  // Cheap setups repeat more, so their median is not one noisy sample.
  const auto setup_reps = repeated_setup(
      is_attack ? 9 : 5, w,
      [&] {
        registry.reset();
        return is_attack ? make_attack_world(z, opt, tracer, registry)
                         : make_resolve_world(z, opt, tracer, registry);
      },
      &rotation);
  const double setup_s = median(setup_reps);
  r.sizes["zones"] = std::to_string(w->hierarchy.registered_count());
  r.sizes["queries_per_pass"] = std::to_string(w->queries.size());
  if (!is_attack) r.sizes["nx_pool"] = std::to_string(w->nx_pool.size());
  std::fprintf(stderr, "%s: %zu zones, %zu queries per pass, setup %.3f s\n",
               r.workload.c_str(), w->hierarchy.registered_count(),
               w->queries.size(), setup_s);

  Tally tally;
  std::vector<Served> served(w->queries.size());
  std::size_t pass = 0, i = 0;
  std::uint64_t clock_queries = 0;
  const auto serve_next = [&] {
    if (i == w->queries.size()) {
      // Pass bookkeeping and the next pass's inputs, outside every timed
      // region.
      for (std::size_t k = 0; k < i; ++k) tally.add(w->queries[k], served[k]);
      ++pass;
      if (is_attack) {
        make_attack_pass(*w, z, opt.seed, pass);
      } else {
        make_resolve_pass(*w, z, opt.seed, pass);
      }
      served.assign(w->queries.size(), Served{});
      i = 0;
    }
  };
  const auto serve_query = [&] {
    return serve_one(*w, w->queries[i],
                     static_cast<util::SimTime>(clock_queries++ / 100), tracer);
  };

  // Untimed warm-up: the first 10% of the first pass fills the cache.
  if (tracer != nullptr) tracer->set_active(false);
  for (const std::size_t warmup = w->queries.size() / 10; i < warmup; ++i) {
    served[i] = serve_query();
  }
  if (tracer != nullptr) tracer->set_active(true);

  // The analysis and recover phases work on the sensor store as it stands
  // after the warm-up: history plus the first live observations.
  const auto tap_snapshot = pdns::save_snapshot(w->tap);
  const auto store = pdns::load_snapshot(tap_snapshot);
  r.check(store.has_value(), "tap snapshot does not load");
  std::filesystem::create_directories(opt.work_dir);
  const std::string path = opt.work_dir + "/" + r.workload + "-tap.nxd";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(tap_snapshot.data()),
              static_cast<std::streamsize>(tap_snapshot.size()));
  }
  Reps analysis(tracer, S::PhaseAnalysis);
  Reps recover(tracer, S::PhaseRecover);
  bool reloads_match = true;
  bool analyses_complete = true;
  const auto run_reps = [&] {
    if (!store) return;
    rotation.next();
    if (tracer != nullptr) tracer->set_active(true);
    analysis::ScaleSummary summary;
    std::vector<analysis::MonthlyPoint> monthly;
    std::vector<analysis::TldRow> tlds;
    std::vector<analysis::LifespanPoint> lifespan;
    analysis.run([&] {
      const analysis::ScaleAnalysis scale(*store);
      {
        Span s(tracer, S::AnalysisSummary);
        summary = scale.summary();
      }
      {
        Span s(tracer, S::AnalysisMonthly);
        monthly = scale.monthly_series();
      }
      {
        Span s(tracer, S::AnalysisTopTlds);
        tlds = scale.top_tlds(20);
      }
      {
        Span s(tracer, S::AnalysisLifespan);
        lifespan = scale.lifespan_series(pdns::DomainSampler(1000, opt.seed));
      }
      Span s(tracer, S::PdnsHighTraffic);
      store->high_traffic_nxdomains(100);
    });
    analyses_complete = analyses_complete &&
                        summary.nx_responses == store->nx_responses() &&
                        !monthly.empty() && !tlds.empty() && !lifespan.empty();
    std::optional<pdns::PassiveDnsStore> reloaded;
    recover.run([&] {
      Span s(tracer, S::PdnsLoadSnapshot);
      std::ifstream in(path, std::ios::binary);
      const std::vector<std::uint8_t> bytes(
          (std::istreambuf_iterator<char>(in)),
          std::istreambuf_iterator<char>());
      reloaded = pdns::load_snapshot(bytes);
    });
    reloads_match = reloads_match && reloaded &&
                    pdns::save_snapshot(*reloaded) == tap_snapshot;
  };

  // ---- serve, in chunks, with the analysis and recover repetitions
  // spread evenly over the serve time.
  std::vector<double> latency_us;
  std::vector<double> chunk_qps;
  std::vector<double> traced_ns_per_q, untraced_ns_per_q;
  std::size_t negative_peak = 0, range_peak = 0;
  std::uint64_t timed_queries = 0;
  double serve_ns = 0;
  bool traced_chunk = false;
  for (std::size_t chunk = 0; serve_ns * 1e-9 < opt.seconds; ++chunk) {
    serve_next();
    if (chunk % CpuRotation::kChunksPerStep == 0) rotation.next();
    const std::size_t begin = i;
    const std::size_t end = std::min(i + kChunk, w->queries.size());
    if (tracer != nullptr) tracer->set_active(traced_chunk);
    const auto chunk_start = now_ns();
    {
      Span root(tracer, S::PhaseServe);
      for (; i < end; ++i) {
        const auto t0 = now_ns();
        served[i] = serve_query();
        if (w->queries[i].sampled) {
          latency_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
        }
      }
    }
    const auto chunk_ns = static_cast<double>(now_ns() - chunk_start);
    serve_ns += chunk_ns;
    timed_queries += end - begin;
    chunk_qps.push_back(static_cast<double>(end - begin) / (chunk_ns * 1e-9));
    negative_peak =
        std::max(negative_peak, w->resolver->cache().negative_size());
    range_peak = std::max(range_peak, w->resolver->cache().range_size());
    if (tracer != nullptr) {
      (traced_chunk ? traced_ns_per_q : untraced_ns_per_q)
          .push_back(chunk_ns / static_cast<double>(end - begin));
      traced_chunk = !traced_chunk;
    }
    const double rep_due = static_cast<double>(analysis.count() + 1) *
                           opt.seconds / static_cast<double>(opt.reps());
    if (serve_ns * 1e-9 >= rep_due) run_reps();
  }
  if (tracer != nullptr) tracer->set_active(true);
  for (std::size_t k = 0; k < i; ++k) tally.add(w->queries[k], served[k]);
  while (store && analysis.count() < opt.reps()) run_reps();

  // ---- checks
  r.attempted = tally.served;
  if (is_attack) {
    // Attack queries are meant to fail; a failure is a legit query that did
    // not get NOERROR.
    r.failed = tally.mismatches;
    r.check(tally.spurious_nx == 0, "spurious NXDOMAIN for legit names: " +
                                        std::to_string(tally.spurious_nx));
  } else {
    r.failed = tally.servfail + tally.rrl_limited;
    r.check(tally.mismatches == 0,
            "rcode != ground truth for " + std::to_string(tally.mismatches) +
                " queries");
  }
  r.check(tally.rrl_limited == 0, "RRL limited " +
                                      std::to_string(tally.rrl_limited) +
                                      " responses");
  const auto tap_nx = w->tap.nx_responses() - w->history_nx;
  r.check(tap_nx == tally.nx, "tap NX count " + std::to_string(tap_nx) +
                                  " != NX responses returned " +
                                  std::to_string(tally.nx));
  r.check(store && reloads_match, "reloaded tap store != saved snapshot");
  r.check(analyses_complete, "§4 analysis of the sensor store came out empty");
  std::filesystem::remove(path);
  if (store) r.sizes["tap_domains"] = std::to_string(store->distinct_domains());

  const auto stats = w->resolver->stats();
  const auto cache = w->resolver->cache().stats();
  const auto total = static_cast<double>(stats.client_queries);
  const auto latency = windowed_latency(latency_us);
  r.e2e["setup_s"] = {setup_s, "s"};
  r.e2e["ops_per_s"] = {median(chunk_qps), "1/s"};
  r.e2e["op_p50_us"] = {latency.p50, "us"};
  r.e2e["op_p99_us"] = {latency.p99, "us"};
  r.e2e["analysis_s"] = {median(analysis.times()), "s"};
  r.e2e["recover_s"] = {median(recover.times()), "s"};

  r.layer["ledger.op_p999_us"] = {percentile(latency_us, 0.999), "us"};
  r.layer["resolver.cache_hit_ratio"] = {
      total > 0 ? static_cast<double>(stats.cache_hits) / total : 0, "ratio"};
  r.layer["resolver.upstream_sends_per_query"] = {
      total > 0 ? static_cast<double>(stats.upstream_sends) / total : 0,
      "ratio"};
  r.layer["resolver.aggressive_hits"] = {
      static_cast<double>(cache.aggressive_hits), "count"};
  r.layer["resolver.delegation_capped"] = {
      static_cast<double>(stats.delegation_capped), "count"};
  r.layer["resolver.cname_capped"] = {static_cast<double>(stats.cname_capped),
                                      "count"};
  r.layer["resolver.negative_entries_peak"] = {
      static_cast<double>(negative_peak), "count"};
  r.layer["resolver.range_entries_peak"] = {static_cast<double>(range_peak),
                                            "count"};
  r.layer["resolver.negative_evictions"] = {
      static_cast<double>(cache.negative_evictions), "count"};
  r.layer["net.sim_packets_per_query"] = {
      total > 0 ? static_cast<double>(w->network.delivered()) / total : 0,
      "ratio"};
  if (!traced_ns_per_q.empty() && !untraced_ns_per_q.empty()) {
    r.detail["trace.traced_unit"] = median(traced_ns_per_q);
    r.detail["trace.untraced_unit"] = median(untraced_ns_per_q);
  }
  r.detail["queries_timed"] = static_cast<double>(timed_queries);
  r.detail["latency_samples"] = static_cast<double>(latency_us.size());
  r.detail["reps"] = static_cast<double>(analysis.count());
  r.detail["resolver.client_queries"] = total;
  r.detail["resolver.upstream_resolutions"] =
      static_cast<double>(stats.upstream_resolutions);
  r.detail["resolver.servfail_responses"] =
      static_cast<double>(stats.servfail_responses);
  r.detail["serve_s"] = serve_ns * 1e-9;
  return r;
}

}  // namespace

Result run_resolve(const Options& opt, Tracer* tracer) {
  return run_resolver_workload(opt, tracer, false);
}

Result run_attack(const Options& opt, Tracer* tracer) {
  return run_resolver_workload(opt, tracer, true);
}

}  // namespace nxd::bench
