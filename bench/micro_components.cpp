// Component micro-benchmarks (google-benchmark): throughput of the pieces
// every experiment leans on.  Not a paper figure — engineering telemetry.
#include <benchmark/benchmark.h>

#include <string>

#include "dga/classifier.hpp"
#include "dga/families.hpp"
#include "dns/message.hpp"
#include "honeypot/categorizer.hpp"
#include "honeypot/filter.hpp"
#include "pdns/snapshot.hpp"
#include "pdns/store.hpp"
#include "resolver/recursive.hpp"
#include "squat/detector.hpp"
#include "synth/scale_models.hpp"
#include "synth/table1.hpp"
#include "synth/traffic_model.hpp"
#include "util/crc32c.hpp"
#include "util/strings.hpp"

using namespace nxd;

namespace {

dns::Message sample_response() {
  auto query = dns::make_query(1, dns::DomainName::must("www.example.com"));
  dns::Message response = dns::make_response(query, dns::RCode::NoError);
  response.answers.push_back(dns::make_a(dns::DomainName::must("www.example.com"),
                                         *dns::IPv4::parse("93.184.216.34")));
  dns::SoaData soa;
  soa.mname = dns::DomainName::must("ns1.example.com");
  soa.rname = dns::DomainName::must("admin.example.com");
  response.authorities.push_back(dns::make_soa(dns::DomainName::must("example.com"), soa));
  return response;
}

void BM_DnsEncode(benchmark::State& state) {
  const auto message = sample_response();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::encode(message));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DnsEncode);

void BM_DnsDecode(benchmark::State& state) {
  const auto wire = dns::encode(sample_response());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::decode(wire));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * wire.size()));
}
BENCHMARK(BM_DnsDecode);

// The NXNS referral: a delegation to 12 glueless NS targets, the response
// the resolver decodes once per attack query.
dns::Message nxns_referral() {
  const auto query =
      dns::make_query(1, dns::DomainName::must("www.sub7.attacker.com"));
  dns::Message referral = dns::make_response(query, dns::RCode::NoError);
  const auto cut = dns::DomainName::must("sub7.attacker.com");
  for (int k = 0; k < 12; ++k) {
    referral.authorities.push_back(dns::make_ns(
        cut, dns::DomainName::must("ns-42-7-" + std::to_string(k) +
                                   ".attacker-ns.net")));
  }
  return referral;
}

// NXDOMAIN with the zone SOA and an NSEC range proof, the answer every
// water-torture probe gets under aggressive negative caching.
dns::Message nxdomain_with_nsec() {
  const auto query =
      dns::make_query(1, dns::DomainName::must("q7x3k.victim.com"));
  dns::Message response = dns::make_response(query, dns::RCode::NXDomain);
  dns::SoaData soa;
  soa.mname = dns::DomainName::must("ns1.victim.com");
  soa.rname = dns::DomainName::must("hostmaster.victim.com");
  response.authorities.push_back(
      dns::make_soa(dns::DomainName::must("victim.com"), soa));
  response.authorities.push_back(
      dns::make_nsec(dns::DomainName::must("mail.victim.com"),
                     dns::DomainName::must("www.victim.com")));
  return response;
}

void BM_DnsEncodeShape(benchmark::State& state, dns::Message (*shape)()) {
  const auto message = shape();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::encode(message));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_DnsEncodeShape, nxns_referral, nxns_referral);
BENCHMARK_CAPTURE(BM_DnsEncodeShape, nxdomain_nsec, nxdomain_with_nsec);

void BM_DnsDecodeShape(benchmark::State& state, dns::Message (*shape)()) {
  const auto wire = dns::encode(shape());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::decode(wire));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * wire.size()));
}
BENCHMARK_CAPTURE(BM_DnsDecodeShape, nxns_referral, nxns_referral);
BENCHMARK_CAPTURE(BM_DnsDecodeShape, nxdomain_nsec, nxdomain_with_nsec);

void BM_NameParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::DomainName::parse("sub.domain.example-site.com"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NameParse);

// An NXNS-style NS target: four labels, 34 bytes.
const dns::DomainName kNsTarget =
    dns::DomainName::must("ns-42-7-11.sub7.attacker-ns.example");

void BM_NameCopy(benchmark::State& state) {
  for (auto _ : state) {
    dns::DomainName copy = kNsTarget;
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NameCopy);

void BM_NameParent(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(kNsTarget.parent());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NameParent);

void BM_NameRegisteredDomain(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(kNsTarget.registered_domain());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NameRegisteredDomain);

void BM_NameHash(benchmark::State& state) {
  const dns::DomainNameHash hash;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash(kNsTarget));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NameHash);

void BM_RecursiveResolveNxCached(benchmark::State& state) {
  resolver::DnsHierarchy hierarchy;
  resolver::RecursiveResolver resolver(hierarchy);
  const auto name = dns::DomainName::must("ghost.com");
  resolver.resolve_rcode(name, 0);  // prime the negative cache
  util::SimTime now = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver.resolve_rcode(name, now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecursiveResolveNxCached);

void BM_PdnsIngest(benchmark::State& state) {
  synth::NxDomainNameModel names(1);
  util::Rng rng(1);
  std::vector<pdns::Observation> observations;
  for (int i = 0; i < 4096; ++i) {
    pdns::Observation obs;
    obs.name = names.next(rng);
    obs.rcode = dns::RCode::NXDomain;
    obs.when = static_cast<util::SimTime>(i) * 500;
    observations.push_back(std::move(obs));
  }
  std::size_t i = 0;
  pdns::PassiveDnsStore store;
  for (auto _ : state) {
    store.ingest(observations[i++ & 4095]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PdnsIngest);

void BM_DgaClassifyHeuristic(benchmark::State& state) {
  const auto classifier = dga::DgaClassifier::heuristic();
  const dga::ConfickerStyleDga family;
  const auto names = family.generate(19'000, 256);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier.classify(names[i++ & 255]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DgaClassifyHeuristic);

void BM_SquatClassify(benchmark::State& state) {
  const auto detector = squat::SquatDetector::with_defaults();
  synth::NxDomainNameModel names(3);
  util::Rng rng(3);
  std::vector<dns::DomainName> corpus;
  for (int i = 0; i < 256; ++i) corpus.push_back(names.next(rng));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.classify(corpus[i++ & 255]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SquatClassify);

void BM_HttpParse(benchmark::State& state) {
  const std::string request =
      "GET /getTask.php?imei=359991234567890&balance=0&country=ru&"
      "phone=%2B79261234567&op=Android&model=Nexus%205X HTTP/1.1\r\n"
      "host: gpclick.com\r\nuser-agent: Apache-HttpClient/UNAVAILABLE (java "
      "1.4)\r\naccept: */*\r\n\r\n";
  for (auto _ : state) {
    benchmark::DoNotOptimize(honeypot::parse_http_request(request));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * request.size()));
}
BENCHMARK(BM_HttpParse);

void BM_Categorize(benchmark::State& state) {
  synth::TrafficModelConfig config;
  config.scale = 0.0005;
  const synth::HoneypotTrafficModel model(config);
  const auto vuln_db = vuln::VulnDb::with_defaults();
  const honeypot::TrafficCategorizer categorizer(vuln_db, model.rdns());
  const auto records = model.generate_domain(synth::table1_profiles()[0]);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(categorizer.categorize(records[i++ % records.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Categorize);

void BM_FilterApply(benchmark::State& state) {
  synth::TrafficModelConfig config;
  config.scale = 0.0005;
  const synth::HoneypotTrafficModel model(config);
  honeypot::TrafficRecorder no_hosting, control;
  model.fill_no_hosting_baseline(no_hosting);
  model.fill_control_group(control);
  honeypot::TrafficFilter filter;
  filter.learn_no_hosting(no_hosting);
  filter.learn_control_group(control);
  const auto records = model.generate_domain(synth::table1_profiles()[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.apply(records));
  }
  state.SetItemsProcessed(state.iterations() * records.size());
}
BENCHMARK(BM_FilterApply);

void BM_DgaGenerate(benchmark::State& state) {
  const dga::ConfickerStyleDga family;
  util::Day day = 19'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(family.generate(day++, 100));
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_DgaGenerate);

// The checkpoint image at the e2e feed workload's scale: scale 5e-7, seed
// 42, 5% NoError and 2% ServFail observations, about 116k domains.
const pdns::PassiveDnsStore& feed_scale_store() {
  static const pdns::PassiveDnsStore store = [] {
    synth::HistoryStreamConfig config;
    config.scale = 5e-7;
    config.seed = 42;
    config.ok_fraction = 0.05;
    config.servfail_fraction = 0.02;
    pdns::PassiveDnsStore s;
    for (const auto& obs : synth::NxHistoryStream(config).all()) s.ingest(obs);
    return s;
  }();
  return store;
}

void BM_SaveSnapshot(benchmark::State& state) {
  const auto& store = feed_scale_store();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto image = pdns::save_snapshot(store);
    bytes = image.size();
    benchmark::DoNotOptimize(image.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
  state.counters["domains"] = static_cast<double>(store.distinct_domains());
}
BENCHMARK(BM_SaveSnapshot)->Unit(benchmark::kMillisecond);

void BM_LoadSnapshot(benchmark::State& state) {
  const auto image = pdns::save_snapshot(feed_scale_store());
  for (auto _ : state) {
    auto store = pdns::load_snapshot(image);
    benchmark::DoNotOptimize(store);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * image.size()));
}
BENCHMARK(BM_LoadSnapshot)->Unit(benchmark::kMillisecond);

void BM_Crc32c(benchmark::State& state) {
  const auto image = pdns::save_snapshot(feed_scale_store());
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::crc32c(image));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * image.size()));
}
BENCHMARK(BM_Crc32c)->Unit(benchmark::kMillisecond);

}  // namespace
