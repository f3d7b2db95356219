#include "resolver/recursive.hpp"

#include <algorithm>

namespace nxd::resolver {

namespace {

/// Source endpoint stamped on the resolver's upstream packets.
const net::Endpoint kResolverSource{dns::IPv4::from_octets(10, 53, 0, 53), 3053};

/// A reply only counts if it is a response to *this* query: matching id,
/// echoed question, and — for NXDomain — the RFC 2308 SOA proof.  Corrupted
/// packets that survive decoding are rejected here instead of poisoning the
/// answer (in particular, a bit-flipped rcode can never fabricate an
/// NXDomain without its SOA).
bool is_acceptable_reply(const dns::Message& query, const dns::Message& reply) {
  if (!reply.header.qr || reply.header.id != query.header.id) return false;
  if (reply.questions.size() != query.questions.size()) return false;
  if (!query.questions.empty() && !(reply.questions.front() == query.questions.front())) {
    return false;
  }
  if (reply.header.rcode == dns::RCode::NXDomain) {
    return std::any_of(reply.authorities.begin(), reply.authorities.end(),
                       [](const dns::ResourceRecord& rr) {
                         return rr.type() == dns::RRType::SOA;
                       });
  }
  return true;
}

}  // namespace

RecursiveResolver::RecursiveResolver(const DnsHierarchy& hierarchy,
                                     ResolverCache::Config cache_config)
    : hierarchy_(hierarchy),
      cache_(cache_config),
      own_registry_(std::make_unique<obs::MetricsRegistry>()) {
  acquire_metrics(*own_registry_);
}

void RecursiveResolver::acquire_metrics(obs::MetricsRegistry& registry) {
  m_.client_queries = registry.counter("nxd_resolver_client_queries_total",
                                       "Queries received from clients");
  m_.cache_hits =
      registry.counter("nxd_resolver_cache_hits_total",
                       "Client queries answered from the resolver cache");
  m_.upstream_resolutions =
      registry.counter("nxd_resolver_upstream_resolutions_total",
                       "Queries that walked the hierarchy");
  m_.nxdomain_responses = registry.counter(
      "nxd_resolver_nxdomain_responses_total", "NXDomain answers returned");
  m_.retries = registry.counter("nxd_resolver_retries_total",
                                "Upstream attempts after the first");
  m_.timeouts = registry.counter("nxd_resolver_timeouts_total",
                                 "Upstream attempts that timed out");
  m_.servfail_responses = registry.counter(
      "nxd_resolver_servfail_responses_total", "SERVFAIL answers returned");
  m_.upstream_sends = registry.counter(
      "nxd_resolver_upstream_sends_total",
      "Packets sent upstream (network path), including retries");
  m_.delegation_fetches = registry.counter(
      "nxd_resolver_delegation_fetches_total",
      "Glueless NS target fetches triggered by referrals");
  m_.delegation_capped = registry.counter(
      "nxd_resolver_delegation_capped_total",
      "NS target fetches suppressed by the per-referral cap or zone budget");
  m_.cname_chases = registry.counter(
      "nxd_resolver_cname_chases_total",
      "Alias-chain hops chased by the resolver");
  m_.cname_capped = registry.counter(
      "nxd_resolver_cname_capped_total",
      "Alias chains cut off at the chase ceiling");
  m_.minimized_queries = registry.counter(
      "nxd_resolver_minimized_queries_total",
      "Minimized (RFC 7816-style) sub-queries sent to root/TLD tiers");
  m_.hedged_queries = registry.counter(
      "nxd_resolver_hedged_queries_total",
      "Speculative duplicate sends raced against a slow primary try");
  m_.hedge_wins = registry.counter(
      "nxd_resolver_hedge_wins_total",
      "Hedged sends whose reply served the client");
  m_.hedge_losses = registry.counter(
      "nxd_resolver_hedge_losses_total",
      "Hedged sends wasted: the primary answered first");
  m_.breaker_skips = registry.counter(
      "nxd_resolver_breaker_skips_total",
      "Candidate servers bypassed because their breaker refused the send");
  m_.upstream_seconds = registry.histogram(
      "nxd_resolver_upstream_latency_seconds",
      "Simulated seconds spent per upstream resolution (network path)");
}

void RecursiveResolver::bind_metrics(obs::MetricsRegistry& registry) {
  // Carry current counts into the shared registry so a late bind never
  // loses events.  (Histogram samples are not replayed; bind before traffic
  // when the latency distribution matters.)
  const RecursiveStats carried = stats();
  acquire_metrics(registry);
  m_.client_queries.inc(carried.client_queries);
  m_.cache_hits.inc(carried.cache_hits);
  m_.upstream_resolutions.inc(carried.upstream_resolutions);
  m_.nxdomain_responses.inc(carried.nxdomain_responses);
  m_.retries.inc(carried.retries);
  m_.timeouts.inc(carried.timeouts);
  m_.servfail_responses.inc(carried.servfail_responses);
  m_.upstream_sends.inc(carried.upstream_sends);
  m_.delegation_fetches.inc(carried.delegation_fetches);
  m_.delegation_capped.inc(carried.delegation_capped);
  m_.cname_chases.inc(carried.cname_chases);
  m_.cname_capped.inc(carried.cname_capped);
  m_.minimized_queries.inc(carried.minimized_queries);
  m_.hedged_queries.inc(carried.hedged_queries);
  m_.hedge_wins.inc(carried.hedge_wins);
  m_.hedge_losses.inc(carried.hedge_losses);
  m_.breaker_skips.inc(carried.breaker_skips);
  own_registry_.reset();
  bound_registry_ = &registry;
  if (health_ != nullptr) health_->bind_metrics(registry);
}

void RecursiveResolver::enable_health(HealthConfig config) {
  health_ = std::make_unique<HealthModel>(config);
  if (bound_registry_ != nullptr) health_->bind_metrics(*bound_registry_);
}

const RecursiveStats& RecursiveResolver::stats() const noexcept {
  stats_.client_queries = m_.client_queries.value();
  stats_.cache_hits = m_.cache_hits.value();
  stats_.upstream_resolutions = m_.upstream_resolutions.value();
  stats_.nxdomain_responses = m_.nxdomain_responses.value();
  stats_.retries = m_.retries.value();
  stats_.timeouts = m_.timeouts.value();
  stats_.servfail_responses = m_.servfail_responses.value();
  stats_.upstream_sends = m_.upstream_sends.value();
  stats_.delegation_fetches = m_.delegation_fetches.value();
  stats_.delegation_capped = m_.delegation_capped.value();
  stats_.cname_chases = m_.cname_chases.value();
  stats_.cname_capped = m_.cname_capped.value();
  stats_.minimized_queries = m_.minimized_queries.value();
  stats_.hedged_queries = m_.hedged_queries.value();
  stats_.hedge_wins = m_.hedge_wins.value();
  stats_.hedge_losses = m_.hedge_losses.value();
  stats_.breaker_skips = m_.breaker_skips.value();
  return stats_;
}

void RecursiveResolver::use_network(net::SimNetwork& network,
                                    HierarchyEndpoints endpoints,
                                    RetryPolicy policy,
                                    std::uint64_t jitter_seed) {
  net_.network = &network;
  net_.endpoints = endpoints;
  net_.policy = policy;
  net_.rng = util::Rng(jitter_seed);
}

std::optional<dns::Message> RecursiveResolver::query_endpoint(
    const net::Endpoint& server, const dns::Message& query,
    util::SimTime& now) {
  const auto wire = dns::encode(query);
  for (int attempt = 0; attempt < std::max(1, net_.policy.attempts); ++attempt) {
    if (attempt > 0) {
      now += net_.policy.backoff_before(attempt, net_.rng);
      m_.retries.inc();
    }
    obs::SpanId try_span{};
    if (tier_span_.sampled()) {
      try_span = spans_->begin(tier_span_,
                               "try" + std::to_string(attempt + 1), now,
                               server.to_string());
    }
    net::SimPacket packet;
    packet.protocol = net::Protocol::UDP;
    packet.src = kResolverSource;
    packet.dst = server;
    packet.payload = wire;
    m_.upstream_sends.inc();
    const auto raw = net_.network->send(packet);
    now += net_.network->last_injected_delay();
    if (raw) {
      auto reply = dns::decode(*raw);
      if (reply && is_acceptable_reply(query, *reply)) {
        if (spans_ != nullptr) spans_->end(try_span, now, attempt + 1);
        return reply;
      }
      // Mangled or mismatched reply: treat like a lost packet and retry.
    }
    m_.timeouts.inc();
    now += net_.policy.try_timeout;
    if (spans_ != nullptr) {
      spans_->end(try_span, now, -(attempt + 1), "timeout");
    }
  }
  return std::nullopt;
}

std::optional<dns::Message> RecursiveResolver::query_tier(
    const std::vector<net::Endpoint>& servers, const dns::Message& query,
    util::SimTime& now) {
  if (health_ == nullptr) {
    // Historical fixed ordering: each server gets the full retry budget.
    for (const auto& server : servers) {
      if (auto reply = query_endpoint(server, query, now)) return reply;
    }
    return std::nullopt;
  }
  const std::vector<net::Endpoint> ranked = health_->rank(servers, now);
  for (const auto& server : ranked) {
    if (!health_->allow(server, now)) {
      // Breaker open: skipping is the whole point — the server costs
      // nothing until its cooldown grants a probe.
      m_.breaker_skips.inc();
      if (tier_span_.sampled()) {
        spans_->event(tier_span_, "breaker_skip", now, 0, server.to_string());
      }
      continue;
    }
    if (auto reply = query_endpoint_adaptive(server, ranked, query, now)) {
      return reply;
    }
  }
  // Every candidate exhausted or breaker-blocked.  The caller degrades to
  // SERVFAIL — an open breaker can never manufacture an NXDomain.
  return std::nullopt;
}

std::optional<dns::Message> RecursiveResolver::query_endpoint_adaptive(
    const net::Endpoint& server, const std::vector<net::Endpoint>& ranked,
    const dns::Message& query, util::SimTime& now) {
  const auto wire = dns::encode(query);
  for (int attempt = 0; attempt < std::max(1, net_.policy.attempts); ++attempt) {
    if (attempt > 0) {
      now += net_.policy.backoff_before(attempt, net_.rng);
      m_.retries.inc();
    }
    obs::SpanId try_span{};
    if (tier_span_.sampled()) {
      try_span = spans_->begin(tier_span_,
                               "try" + std::to_string(attempt + 1), now,
                               server.to_string());
    }
    const util::SimTime try_timeout =
        health_->adaptive_timeout(server, net_.policy.try_timeout);

    net::SimPacket packet;
    packet.protocol = net::Protocol::UDP;
    packet.src = kResolverSource;
    packet.dst = server;
    packet.payload = wire;
    m_.upstream_sends.inc();
    const auto raw = net_.network->send(packet);
    const util::SimTime rtt = net_.network->last_injected_delay();
    std::optional<dns::Message> primary;
    if (raw) {
      auto reply = dns::decode(*raw);
      if (reply && is_acceptable_reply(query, *reply)) {
        primary = std::move(reply);
      }
    }
    // When this try completes: the reply's transit delay, or the adaptive
    // timeout when nothing (acceptable) came back.
    const util::SimTime primary_done = primary ? rtt : try_timeout;

    // Hedge: once the try has been in flight past the server's tracked p95,
    // race the best breaker-closed sibling.  Probe slots are never spent on
    // hedges (closed() has no half-open semantics).
    const util::SimTime hedge_after = health_->hedge_delay(server);
    const net::Endpoint* hedge_server = nullptr;
    if (hedge_after > 0 && primary_done > hedge_after) {
      for (const auto& other : ranked) {
        if (other == server) continue;
        if (!health_->closed(other)) continue;
        hedge_server = &other;
        break;
      }
    }

    if (hedge_server == nullptr) {
      if (primary) {
        health_->on_success(server, rtt, now + primary_done);
        now += primary_done;
        if (spans_ != nullptr) spans_->end(try_span, now, attempt + 1);
        return primary;
      }
      m_.timeouts.inc();
      health_->on_failure(server, now + try_timeout);
      now += try_timeout;
      if (spans_ != nullptr) {
        spans_->end(try_span, now, -(attempt + 1), "timeout");
      }
    } else {
      m_.hedged_queries.inc();
      obs::SpanId hedge_span{};
      if (try_span.sampled()) {
        hedge_span = spans_->begin(try_span, "hedge", now + hedge_after,
                                   hedge_server->to_string());
      }
      net::SimPacket dup = packet;
      dup.dst = *hedge_server;
      m_.upstream_sends.inc();
      const auto raw2 = net_.network->send(dup);
      const util::SimTime rtt2 = net_.network->last_injected_delay();
      std::optional<dns::Message> hedged;
      if (raw2) {
        auto reply2 = dns::decode(*raw2);
        if (reply2 && is_acceptable_reply(query, *reply2)) {
          hedged = std::move(reply2);
        }
      }
      const util::SimTime hedge_timeout =
          health_->adaptive_timeout(*hedge_server, net_.policy.try_timeout);
      const util::SimTime hedged_done =
          hedge_after + (hedged ? rtt2 : hedge_timeout);

      // The hedge's own outcome always feeds its server's estimate.
      if (hedged) {
        health_->on_success(*hedge_server, rtt2, now + hedged_done);
      } else {
        m_.timeouts.inc();
        health_->on_failure(*hedge_server, now + hedged_done);
      }

      if (spans_ != nullptr) {
        // The hedge race's own outcome, win or lose, as a child of the try.
        spans_->end(hedge_span, now + hedged_done, hedged ? 1 : -1,
                    hedged ? std::string_view{} : std::string_view{"timeout"});
      }
      if (hedged && (!primary || hedged_done < primary_done)) {
        // The hedge served the client.  A primary reply still in flight
        // lands later and feeds its estimate; a dead primary is charged its
        // timeout.
        m_.hedge_wins.inc();
        if (primary) {
          health_->on_success(server, rtt, now + primary_done);
        } else {
          m_.timeouts.inc();
          health_->on_failure(server, now + primary_done);
        }
        now += hedged_done;
        if (spans_ != nullptr) {
          spans_->end(try_span, now, attempt + 1, "hedge_win");
        }
        return hedged;
      }
      if (primary) {
        // Primary answered first — the hedge was wasted bandwidth.
        if (hedged) m_.hedge_losses.inc();
        health_->on_success(server, rtt, now + primary_done);
        now += primary_done;
        if (spans_ != nullptr) spans_->end(try_span, now, attempt + 1);
        return primary;
      }
      // Both sides died: wait out the slower deadline, then retry.
      m_.timeouts.inc();
      health_->on_failure(server, now + primary_done);
      now += std::max(primary_done, hedged_done);
      if (spans_ != nullptr) {
        spans_->end(try_span, now, -(attempt + 1), "timeout");
      }
    }
    if (!health_->closed(server)) break;  // breaker tripped mid-retries
  }
  return std::nullopt;
}

dns::Message RecursiveResolver::resolve_via_network(const dns::Message& query,
                                                    util::SimTime& now) {
  const auto& q = query.questions.front();
  // Qname minimization (RFC 7816 style): the root only needs to see the
  // TLD, the TLD only the registered domain.  Only the final tier receives
  // the full qname — a water-torture flood's random labels never reach the
  // upper tiers' logs.
  const bool minimize =
      defenses_.qname_minimization && q.name.label_count() >= 2;
  const ServerTier chain[] = {ServerTier::Root, ServerTier::Tld,
                              ServerTier::Authoritative};
  for (std::size_t hop = 0; hop < std::size(chain); ++hop) {
    dns::Message sent = query;
    if (minimize && hop == 0) {
      sent = dns::make_query(query.header.id,
                             dns::DomainName::must(std::string(q.name.tld())),
                             dns::RRType::NS);
    } else if (minimize && hop == 1) {
      sent = dns::make_query(query.header.id, q.name.registered_domain(),
                             dns::RRType::NS);
    }
    const bool minimized =
        !(sent.questions.front() == query.questions.front());
    if (minimized) m_.minimized_queries.inc();
    static constexpr const char* kTierNames[] = {"tier_root", "tier_tld",
                                                 "tier_auth"};
    if (spans_ != nullptr) {
      tier_span_ = spans_->begin(span_cursor_, kTierNames[hop], now);
    }
    auto reply = query_tier(net_.endpoints.tier_servers(chain[hop]), sent, now);
    if (spans_ != nullptr) {
      spans_->end(tier_span_, now, reply ? 0 : -1);
      tier_span_ = obs::SpanId{};
    }
    if (!reply) {
      // Every attempt at this tier exhausted: degrade to SERVFAIL.  Loss
      // must never manufacture an NXDomain — non-existence requires a
      // server that *answered* with proof.
      return dns::make_response(query, dns::RCode::ServFail);
    }
    if (hop + 1 == std::size(chain) || !is_referral(*reply)) {
      if (!minimized) return *std::move(reply);
      // A terminal outcome for a minimized sub-query (NXDomain for the
      // ancestor proves NXDomain for the full name, RFC 8020) is re-shaped
      // onto the original question; proofs in the authority section carry
      // over, answers to the minimized question do not.
      dns::Message out = dns::make_response(query, reply->header.rcode);
      out.authorities = std::move(reply->authorities);
      return out;
    }
  }
  return dns::make_response(query, dns::RCode::ServFail);  // unreachable
}

dns::Message RecursiveResolver::upstream_walk(const dns::Message& query,
                                              util::SimTime& now) {
  if (net_.network != nullptr) return resolve_via_network(query, now);
  return hierarchy_.resolve_iterative(query);
}

void RecursiveResolver::cache_nxdomain(const dns::DomainName& qname,
                                       const dns::Message& response,
                                       util::SimTime now) {
  const dns::SoaData* soa = nullptr;
  const dns::DomainName* soa_owner = nullptr;
  for (const auto& rr : response.authorities) {
    if (rr.type() == dns::RRType::SOA) {
      soa = &std::get<dns::SoaData>(rr.rdata);
      soa_owner = &rr.name;
      break;
    }
  }
  if (soa == nullptr) return;
  // RFC 2308: exact-name entry under the SOA minimum TTL.
  cache_.put_negative(qname, *soa, now);
  if (!defenses_.aggressive_negative) return;
  // RFC 8198: store the NSEC-proven span, if one rode along and survives
  // bailiwick scrutiny.  A hostile or confused authority must not be able
  // to blanket someone else's namespace: the proving zone must be an
  // ancestor of the qname, the span endpoints must sit inside that zone,
  // and the span must actually cover the qname.
  for (const auto& rr : response.authorities) {
    if (rr.type() != dns::RRType::NSEC) continue;
    const auto& nsec = std::get<dns::NsecData>(rr.rdata);
    const dns::DomainName& zone = *soa_owner;
    if (!qname.is_subdomain_of(zone) || qname == zone) continue;
    if (!rr.name.is_subdomain_of(zone)) continue;
    if (!nsec.next.is_subdomain_of(zone)) continue;
    if (dns::canonical_compare(rr.name, qname) >= 0) continue;
    if (nsec.next != zone && dns::canonical_compare(qname, nsec.next) >= 0) {
      continue;
    }
    cache_.put_negative_range(zone, rr.name, nsec.next,
                              nsec.owner_is_delegation, *soa, now);
    break;
  }
}

dns::Message RecursiveResolver::internal_resolve(const dns::DomainName& name,
                                                 dns::RRType type,
                                                 util::SimTime& now) {
  const auto query = dns::make_query(next_id_++, name, type);
  if (auto hit = cache_.get(name, type, now)) {
    if (hit->negative) return dns::make_response(query, dns::RCode::NXDomain);
    dns::Message out = dns::make_response(query, dns::RCode::NoError);
    out.answers = std::move(hit->records);
    return out;
  }
  dns::Message response = upstream_walk(query, now);
  if (response.header.rcode == dns::RCode::NXDomain) {
    cache_nxdomain(name, response, now);
  } else if (response.header.rcode == dns::RCode::NoError &&
             !response.answers.empty()) {
    cache_.put_positive(name, type, response.answers, now);
  }
  return response;
}

dns::Message RecursiveResolver::handle_referral(const dns::Message& query,
                                                const dns::Message& referral,
                                                util::SimTime& now) {
  // The NXNS hot path.  A referral whose NS targets carry no glue forces
  // the resolver to resolve every target name itself — with F names per
  // referral that is F full hierarchy walks per client query, the
  // NXNSAttack amplifier.  Defenses: a per-referral fetch cap (Max1Fetch
  // style) and a windowed per-registered-domain budget.
  int fetched_here = 0;
  for (const auto& rr : referral.authorities) {
    if (rr.type() != dns::RRType::NS) continue;
    const auto& target = std::get<dns::NsData>(rr.rdata).ns;
    if (defenses_.max_fetch_per_delegation > 0 &&
        fetched_here >= defenses_.max_fetch_per_delegation) {
      m_.delegation_capped.inc();
      continue;
    }
    if (defenses_.zone_fetch_budget > 0) {
      auto& budget = zone_budgets_[rr.name.registered_domain()];
      if (now >= budget.window_start + defenses_.budget_window) {
        budget.window_start = now;
        budget.spent = 0;
      }
      if (budget.spent >= defenses_.zone_fetch_budget) {
        m_.delegation_capped.inc();
        continue;
      }
      ++budget.spent;
    }
    // Cache dedupe: a target already known (either way) costs nothing.
    if (cache_.get(target, dns::RRType::A, now)) continue;
    ++fetched_here;
    m_.delegation_fetches.inc();
    const auto fetch_query = dns::make_query(next_id_++, target, dns::RRType::A);
    obs::SpanId fetch_span{};
    const obs::SpanId saved_cursor = span_cursor_;
    if (span_cursor_.sampled()) {
      fetch_span = spans_->begin(span_cursor_, "delegation_fetch", now,
                                 target.to_string());
      span_cursor_ = fetch_span;
    }
    const dns::Message fetched = upstream_walk(fetch_query, now);
    span_cursor_ = saved_cursor;
    if (spans_ != nullptr) {
      spans_->end(fetch_span, now,
                  static_cast<std::int64_t>(fetched.header.rcode));
    }
    if (fetched.header.rcode == dns::RCode::NXDomain) {
      cache_nxdomain(target, fetched, now);
    } else if (fetched.header.rcode == dns::RCode::NoError &&
               !fetched.answers.empty()) {
      cache_.put_positive(target, dns::RRType::A, fetched.answers, now);
    }
  }
  // Whatever the fetches learned, this simulation hosts no servers at the
  // child zone's addresses — resolution cannot proceed past the cut.
  return dns::make_response(query, dns::RCode::ServFail);
}

void RecursiveResolver::chase_cname_tail(const dns::Message& query,
                                         dns::Message& response,
                                         util::SimTime& now) {
  const auto& q = query.questions.front();
  if (q.qtype == dns::RRType::CNAME) return;
  int chased = 0;
  while (response.header.rcode == dns::RCode::NoError &&
         !response.answers.empty() &&
         response.answers.back().type() == dns::RRType::CNAME) {
    if (chased >= std::max(1, defenses_.max_cname_chase)) {
      m_.cname_capped.inc();
      response = dns::make_response(query, dns::RCode::ServFail);
      return;
    }
    ++chased;
    m_.cname_chases.inc();
    const auto target =
        std::get<dns::CnameData>(response.answers.back().rdata).target;
    obs::SpanId hop_span{};
    const obs::SpanId saved_cursor = span_cursor_;
    if (span_cursor_.sampled()) {
      hop_span = spans_->begin(span_cursor_, "cname_hop", now,
                               target.to_string());
      span_cursor_ = hop_span;
    }
    const dns::Message hop = internal_resolve(target, q.qtype, now);
    span_cursor_ = saved_cursor;
    if (spans_ != nullptr) {
      spans_->end(hop_span, now, static_cast<std::int64_t>(chased));
    }
    if (hop.header.rcode == dns::RCode::NXDomain) {
      // RFC 2308 §2.1: a chain ending in a non-existent name answers
      // NXDomain, keeping the alias records in the answer section.
      response.header.rcode = dns::RCode::NXDomain;
      response.authorities = hop.authorities;
      return;
    }
    if (hop.header.rcode != dns::RCode::NoError) {
      response = dns::make_response(query, dns::RCode::ServFail);
      return;
    }
    if (hop.answers.empty()) return;  // NoData at the target: chain is done
    for (const auto& rr : hop.answers) response.answers.push_back(rr);
  }
}

ResolveOutcome RecursiveResolver::resolve(const dns::Message& query,
                                          util::SimTime now) {
  m_.client_queries.inc();
  ++query_seq_;
  const std::string qname_str = query.questions.empty()
                                    ? std::string()
                                    : query.questions.front().name.to_string();
  root_span_ = spans_ != nullptr
                   ? spans_->trace_root(query_seq_, "resolve", now, qname_str)
                   : obs::SpanId{};
  if (query.questions.empty()) {
    ResolveOutcome out{dns::make_response(query, dns::RCode::FormErr)};
    if (spans_ != nullptr) {
      spans_->end(root_span_, now,
                  static_cast<std::int64_t>(out.response.header.rcode),
                  "formerr");
      root_span_ = obs::SpanId{};
    }
    return out;
  }
  const auto& q = query.questions.front();

  bool from_cache = false;
  bool negative_hit = false;
  util::SimTime done = now;
  dns::Message response;

  if (auto hit = cache_.get(q.name, q.qtype, now)) {
    m_.cache_hits.inc();
    from_cache = true;
    if (hit->negative) {
      negative_hit = true;
      response = dns::make_response(query, dns::RCode::NXDomain);
    } else {
      response = dns::make_response(query, dns::RCode::NoError);
      response.answers = std::move(hit->records);
    }
    if (spans_ != nullptr) {
      spans_->event(root_span_, negative_hit ? "negcache_hit" : "cache_hit",
                    now);
    }
  } else {
    m_.upstream_resolutions.inc();
    obs::SpanId up{};
    if (spans_ != nullptr) up = spans_->begin(root_span_, "upstream", now);
    span_cursor_ = up.sampled() ? up : root_span_;
    response = upstream_walk(query, done);
    response.header.id = query.header.id;
    if (is_referral(response)) {
      response = handle_referral(query, response, done);
    }
    if (spans_ != nullptr) spans_->end(up, done);
  }

  // Resolver-side alias chasing — applies to cached chains too, since a
  // cached entry may end in a CNAME whose target was never resolved (or
  // has expired).
  span_cursor_ = root_span_;
  if (!negative_hit) chase_cname_tail(query, response, done);

  if (response.header.rcode == dns::RCode::NXDomain) {
    m_.nxdomain_responses.inc();
    // RFC 2308: negative-cache from the SOA proof.  Only for an upstream
    // answer about the query name itself — when a *chased* chain ended in
    // NXDomain the qname exists (as an alias) and must not be negative
    // cached; the dead target already was, inside internal_resolve.
    if (!from_cache && response.answers.empty()) {
      cache_nxdomain(q.name, response, now);
    }
  } else if (response.header.rcode == dns::RCode::NoError &&
             !response.answers.empty()) {
    if (!from_cache) cache_.put_positive(q.name, q.qtype, response.answers, now);
  } else if (response.header.rcode == dns::RCode::ServFail) {
    // Failure is transient: never cached, so the next client query retries
    // upstream instead of pinning the outage.
    m_.servfail_responses.inc();
  }

  if (observer_) observer_(query, response, from_cache, now);
  ResolveOutcome out{std::move(response)};
  out.from_cache = from_cache;
  out.negative_cache_hit = negative_hit;
  out.elapsed = done - now;
  if (!from_cache) {
    // A sampled trace tags the latency histogram with an exemplar so the
    // rendered exposition links the p99 bucket to an inspectable trace id.
    if (root_span_.sampled()) {
      m_.upstream_seconds.observe_exemplar(
          static_cast<std::uint64_t>(out.elapsed), root_span_.trace);
    } else {
      m_.upstream_seconds.observe(static_cast<std::uint64_t>(out.elapsed));
    }
  }
  if (spans_ != nullptr) {
    spans_->end(root_span_, done,
                static_cast<std::int64_t>(out.response.header.rcode),
                from_cache ? "cache" : "upstream");
  }
  root_span_ = obs::SpanId{};
  span_cursor_ = obs::SpanId{};
  tier_span_ = obs::SpanId{};
  return out;
}

dns::RCode RecursiveResolver::resolve_rcode(const dns::DomainName& name,
                                            util::SimTime now) {
  const auto query = dns::make_query(next_id_++, name, dns::RRType::A);
  return resolve(query, now).response.header.rcode;
}

}  // namespace nxd::resolver
