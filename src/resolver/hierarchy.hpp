// Root -> TLD -> authoritative hierarchy simulation (paper Fig. 1).
//
// The hierarchy is the ground truth for which domains exist.  Registering a
// domain creates its delegation in the TLD registry and an authoritative
// zone; deregistering removes the delegation, at which point every query for
// the name yields NXDomain from the TLD server — the lifecycle event the
// whole paper studies.
//
// Each tier can answer on its own (`answer_at`), which lets the three
// servers be attached to a SimNetwork at distinct endpoints: queries then
// travel as real packets through the network's fault-injection stage, and a
// RecursiveResolver walks the referral chain with retries (see
// resolver/recursive.hpp).  The zero-packet `resolve_iterative` fast path
// is unchanged for fault-free workloads.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "dns/message.hpp"
#include "net/sim_network.hpp"
#include "resolver/authoritative.hpp"

namespace nxd::resolver {

/// One step of an iterative resolution, for traces/examples.
struct IterationStep {
  enum class Server { Root, Tld, Authoritative } server;
  std::string server_label;
  std::string outcome;  // "referral to com.", "NXDOMAIN", "answer", ...
};

struct IterativeTrace {
  std::vector<IterationStep> steps;
};

/// The three server tiers a full resolution walks.
enum class ServerTier : std::uint8_t { Root, Tld, Authoritative };

/// Where each tier listens when the hierarchy is attached to a SimNetwork.
/// Defaults are recognizable stand-ins (a.root-servers.net, a.gtld-servers
/// and a TEST-NET-1 authoritative farm), all on UDP port 53.
///
/// Each tier may additionally list replica endpoints — sibling servers that
/// answer identically (real tiers are always served by a farm).  Replicas
/// are what make adaptive server *selection* meaningful: a FaultPlan can
/// kill or slow one replica while its siblings stay healthy, and the
/// resolver's HealthModel steers around the damage.  Empty replica lists
/// keep the historical single-server-per-tier behavior bit-for-bit.
struct HierarchyEndpoints {
  net::Endpoint root{dns::IPv4::from_octets(198, 41, 0, 4), 53};
  net::Endpoint tld{dns::IPv4::from_octets(192, 5, 6, 30), 53};
  net::Endpoint auth{dns::IPv4::from_octets(192, 0, 2, 53), 53};
  std::vector<net::Endpoint> root_replicas;
  std::vector<net::Endpoint> tld_replicas;
  std::vector<net::Endpoint> auth_replicas;

  /// Every server of `tier`, primary first — the resolver's candidate set.
  std::vector<net::Endpoint> tier_servers(ServerTier tier) const;

  /// The layout the chaos suites and bench use: `per_tier` servers per tier,
  /// replicas at consecutive addresses after each primary (e.g. the
  /// authoritative farm at 192.0.2.53/.54/.55).
  static HierarchyEndpoints with_replicas(int per_tier = 3);
};

/// True when `response` is a referral: NoError, no answers, and an NS
/// record in the authority section pointing at the next tier.
bool is_referral(const dns::Message& response);

class DnsHierarchy {
 public:
  DnsHierarchy();

  /// Create the TLD if missing (idempotent).
  void add_tld(const std::string& tld);

  bool has_tld(const std::string& tld) const;

  /// Register `domain` (a registered-level name like example.com) with an
  /// A record for the apex and for the `www` child.  Creates the TLD on
  /// demand.  Returns false if the name is malformed for registration
  /// (fewer than two labels).
  bool register_domain(const dns::DomainName& domain, dns::IPv4 address,
                       std::uint32_t ttl = 300);

  /// Remove the delegation and zone — the domain becomes non-existent.
  void deregister_domain(const dns::DomainName& domain);

  bool is_registered(const dns::DomainName& domain) const;
  std::size_t registered_count() const noexcept { return auth_.zone_count(); }

  /// Access the authoritative zone for a registered domain (to add MX, TXT,
  /// subdomain records, ...); nullptr when not registered.  Stable until
  /// the domain is deregistered.
  Zone* zone_of(const dns::DomainName& domain);

  /// Forwarded to the authoritative farm: attach NSEC range proofs to zone
  /// NXDomain responses (see AuthoritativeServer::set_range_proofs).
  void enable_range_proofs(bool on) noexcept { auth_.set_range_proofs(on); }

  /// Answer `query` as the given tier's server would: a referral toward the
  /// next tier, an authoritative answer, or NXDomain with the SOA that
  /// proves non-existence.
  dns::Message answer_at(ServerTier tier, const dns::Message& query) const;

  /// Attach the three tiers to a SimNetwork (UDP port 53 services), so
  /// queries traverse the network's fault-injection stage.  The hierarchy
  /// must outlive the network's use of the services.
  void attach(net::SimNetwork& network,
              const HierarchyEndpoints& endpoints = {}) const;

  /// Full iterative resolution from the root, as a recursive resolver would
  /// perform it.  Returns the final response (answer, or NXDomain from the
  /// deepest server that can prove non-existence).
  dns::Message resolve_iterative(const dns::Message& query,
                                 IterativeTrace* trace = nullptr) const;

  std::uint64_t root_queries() const noexcept { return root_queries_; }
  std::uint64_t tld_queries() const noexcept { return tld_queries_; }
  std::uint64_t auth_queries() const noexcept { return auth_queries_; }

 private:
  dns::SoaData make_soa(const dns::DomainName& zone_origin) const;

  // TLDs the root delegates.
  std::unordered_set<std::string> tld_registry_;
  // One zone per registered domain, all on one simulated authoritative
  // farm: its origin index is the registry of which domains exist.
  AuthoritativeServer auth_;

  mutable std::uint64_t root_queries_ = 0;
  mutable std::uint64_t tld_queries_ = 0;
  mutable std::uint64_t auth_queries_ = 0;
};

}  // namespace nxd::resolver
