// Deterministic fuzz/property tests: hostile-input robustness for the two
// parsers that face the network (DNS wire decoder, HTTP request parser)
// and randomized round-trip properties for the codec.
//
// "Fuzz" here is seeded and bounded so it runs in CI; the harnesses are
// still structured like fuzzers (random byte soup + structured mutation).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dns/message.hpp"
#include "frame_oracle.hpp"
#include "honeypot/http.hpp"
#include "honeypot/server.hpp"
#include "net/fault.hpp"
#include "net/sim_network.hpp"
#include "resolver/rrl.hpp"
#include "squat/detector.hpp"
#include "pdns/frame_view.hpp"
#include "pdns/sharded_store.hpp"
#include "pdns/sie_channel.hpp"
#include "pdns/snapshot.hpp"
#include "pdns/store.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/worker_pool.hpp"
#include "wire_name.hpp"

namespace nxd {
namespace {

// ----------------------------------------------------------- DNS decoder

class DnsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DnsFuzz, RandomBytesNeverCrashAndUsuallyReject) {
  util::Rng rng(GetParam());
  for (int iteration = 0; iteration < 2'000; ++iteration) {
    std::vector<std::uint8_t> bytes(rng.bounded(256));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
    // Must not crash, hang, or allocate unboundedly; result value is free.
    const auto decoded = dns::decode(bytes);
    if (decoded) {
      // If it *did* parse, re-encoding must succeed (internal consistency).
      EXPECT_FALSE(dns::encode(*decoded).empty());
    }
  }
}

TEST_P(DnsFuzz, MutatedValidMessagesNeverCrash) {
  util::Rng rng(GetParam() ^ 0x3a17);
  // Start from a rich valid message and flip bytes.
  dns::Message msg = dns::make_query(7, dns::DomainName::must("www.example.com"));
  dns::Message response = dns::make_response(msg, dns::RCode::NoError);
  response.answers.push_back(dns::make_a(dns::DomainName::must("www.example.com"),
                                         dns::IPv4{0x5db8d822}));
  dns::SoaData soa;
  soa.mname = dns::DomainName::must("ns1.example.com");
  soa.rname = dns::DomainName::must("admin.example.com");
  response.authorities.push_back(
      dns::make_soa(dns::DomainName::must("example.com"), soa));
  const auto wire = dns::encode(response);

  for (int iteration = 0; iteration < 4'000; ++iteration) {
    auto mutated = wire;
    const int flips = 1 + static_cast<int>(rng.bounded(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.bounded(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.bounded(8));
    }
    const auto decoded = dns::decode(mutated);
    if (decoded) {
      EXPECT_FALSE(dns::encode(*decoded).empty());
    }
  }
}

TEST_P(DnsFuzz, RandomMessagesRoundTrip) {
  util::Rng rng(GetParam() ^ 0x2007);
  auto random_name = [&rng] {
    std::vector<std::string> labels;
    const std::size_t count = 1 + rng.bounded(4);
    for (std::size_t i = 0; i < count; ++i) {
      std::string label;
      const std::size_t len = 1 + rng.bounded(12);
      for (std::size_t j = 0; j < len; ++j) {
        label.push_back(static_cast<char>('a' + rng.bounded(26)));
      }
      labels.push_back(std::move(label));
    }
    return *test::name_from_labels(labels);
  };

  for (int iteration = 0; iteration < 500; ++iteration) {
    dns::Message msg;
    msg.header.id = static_cast<std::uint16_t>(rng.next());
    msg.header.qr = rng.chance(0.5);
    msg.header.rd = rng.chance(0.5);
    msg.header.rcode = rng.chance(0.3) ? dns::RCode::NXDomain : dns::RCode::NoError;
    msg.questions.push_back(dns::Question{random_name(), dns::RRType::A,
                                          dns::RRClass::IN});
    const std::size_t answers = rng.bounded(4);
    for (std::size_t i = 0; i < answers; ++i) {
      switch (rng.bounded(4)) {
        case 0:
          msg.answers.push_back(dns::make_a(
              random_name(), dns::IPv4{static_cast<std::uint32_t>(rng.next())}));
          break;
        case 1:
          msg.answers.push_back(dns::make_cname(random_name(), random_name()));
          break;
        case 2:
          msg.answers.push_back(
              dns::make_txt(random_name(), std::string(rng.bounded(300), 't')));
          break;
        default:
          msg.answers.push_back(dns::make_ptr(random_name(), random_name()));
          break;
      }
    }
    const auto decoded = dns::decode(dns::encode(msg));
    ASSERT_TRUE(decoded.has_value()) << "iteration " << iteration;
    EXPECT_EQ(*decoded, msg) << "iteration " << iteration;
  }
}

// Feed wire messages through SimNetwork's fault stage (the corruption and
// truncation the chaos layer injects) into the decoder.  Contract: no crash,
// and no silent misparse — a payload the stage left untouched must decode to
// exactly the message that was sent (rcode preserved), and anything the
// decoder does accept must re-encode.
TEST_P(DnsFuzz, FaultMangledPacketsNeverCrashOrSilentlyMisparse) {
  util::Rng rng(GetParam() ^ 0x6f1d);
  net::SimNetwork network;
  const net::Endpoint sink{dns::IPv4::from_octets(192, 0, 2, 77), 53};

  // The service hands whatever the fault stage delivered back to the test.
  std::vector<std::uint8_t> arrived;
  bool got_packet = false;
  network.attach(sink, net::Protocol::UDP, [&](const net::SimPacket& packet) {
    arrived = packet.payload;
    got_packet = true;
    return std::optional(packet.payload);
  });

  net::FaultPlan plan(GetParam());
  net::FaultSpec spec;
  spec.corrupt = 0.5;
  spec.truncate = 0.3;
  spec.max_corrupt_bytes = 8;
  plan.set_default(spec);
  network.set_fault_plan(std::move(plan));

  for (int iteration = 0; iteration < 2'000; ++iteration) {
    dns::Message msg = dns::make_query(
        static_cast<std::uint16_t>(iteration),
        dns::DomainName::must("q" + std::to_string(iteration % 97) + ".example.com"));
    msg.header.rcode =
        rng.chance(0.3) ? dns::RCode::NXDomain : dns::RCode::NoError;
    const auto original_wire = dns::encode(msg);

    net::SimPacket packet;
    packet.protocol = net::Protocol::UDP;
    packet.dst = sink;
    packet.payload = original_wire;
    got_packet = false;
    const auto reply = network.send(packet);
    ASSERT_TRUE(got_packet);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(*reply, arrived);

    const auto decoded = dns::decode(arrived);
    if (arrived == original_wire) {
      // Untouched payload: decoding must succeed and preserve the message.
      ASSERT_TRUE(decoded.has_value()) << "iteration " << iteration;
      EXPECT_EQ(decoded->header.rcode, msg.header.rcode);
      EXPECT_EQ(decoded->header.id, msg.header.id);
      EXPECT_EQ(*decoded, msg);
    } else if (decoded) {
      // Mangled but still parseable: fine, as long as it stays internally
      // consistent (the resolver's reply validation rejects it upstream).
      EXPECT_FALSE(dns::encode(*decoded).empty());
    }
  }
  // The plan actually mutated a healthy share of the stream.
  EXPECT_GT(network.fault_stats().injected_corruptions, 0u);
  EXPECT_GT(network.fault_stats().injected_truncations, 0u);
}

// Reference encoder for the differential test below: the codec's original
// name compressor, which keys a hash map by every suffix rendered as text
// and keeps the first wire offset per suffix.  Slow, but obviously right;
// dns::encode must produce the same bytes.
class ReferenceNameEncoder {
 public:
  explicit ReferenceNameEncoder(util::ByteWriter& w) : w_(w) {}

  void write(const dns::DomainName& name) {
    std::vector<std::string_view> labels;
    for (std::size_t i = 0; i < name.label_count(); ++i) {
      labels.push_back(name.label(i));
    }
    for (std::size_t i = 0; i < labels.size(); ++i) {
      std::string key;
      for (std::size_t j = i; j < labels.size(); ++j) {
        key += labels[j];
        key += '.';
      }
      if (const auto it = offsets_.find(key); it != offsets_.end()) {
        w_.u16(static_cast<std::uint16_t>(0xc000 | it->second));
        return;
      }
      if (w_.size() <= 0x3fff) {
        offsets_.emplace(std::move(key), static_cast<std::uint16_t>(w_.size()));
      }
      w_.u8(static_cast<std::uint8_t>(labels[i].size()));
      w_.bytes(labels[i]);
    }
    w_.u8(0);
  }

 private:
  util::ByteWriter& w_;
  std::unordered_map<std::string, std::uint16_t> offsets_;
};

void reference_write_rr(util::ByteWriter& w, ReferenceNameEncoder& names,
                        const dns::ResourceRecord& rr) {
  names.write(rr.name);
  w.u16(static_cast<std::uint16_t>(rr.type()));
  w.u16(static_cast<std::uint16_t>(rr.rr_class));
  w.u32(rr.ttl);
  const std::size_t rdlength_at = w.size();
  w.u16(0);
  const std::size_t rdata_start = w.size();
  struct Visitor {
    util::ByteWriter& w;
    ReferenceNameEncoder& names;
    void operator()(const dns::IPv4& ip) const { w.u32(ip.addr); }
    void operator()(const dns::NsData& d) const { names.write(d.ns); }
    void operator()(const dns::CnameData& d) const { names.write(d.target); }
    void operator()(const dns::SoaData& d) const {
      names.write(d.mname);
      names.write(d.rname);
      w.u32(d.serial);
      w.u32(d.refresh);
      w.u32(d.retry);
      w.u32(d.expire);
      w.u32(d.minimum);
    }
    void operator()(const dns::PtrData& d) const { names.write(d.target); }
    void operator()(const dns::MxData& d) const {
      w.u16(d.preference);
      names.write(d.exchange);
    }
    void operator()(const dns::TxtData& d) const {
      std::string_view rest = d.text;
      do {
        const std::size_t n = std::min<std::size_t>(rest.size(), 255);
        w.u8(static_cast<std::uint8_t>(n));
        w.bytes(rest.substr(0, n));
        rest.remove_prefix(n);
      } while (!rest.empty());
    }
    void operator()(const dns::AaaaData& d) const { w.bytes(d.addr); }
    void operator()(const dns::NsecData& d) const {
      for (std::size_t i = 0; i < d.next.label_count(); ++i) {
        w.u8(static_cast<std::uint8_t>(d.next.label(i).size()));
        w.bytes(d.next.label(i));
      }
      w.u8(0);
      if (d.owner_is_delegation) {
        w.u8(0x00);
        w.u8(0x01);
        w.u8(0x20);
      }
    }
  };
  std::visit(Visitor{w, names}, rr.rdata);
  w.patch_u16(rdlength_at, static_cast<std::uint16_t>(w.size() - rdata_start));
}

std::vector<std::uint8_t> reference_encode(const dns::Message& msg) {
  util::ByteWriter w;
  const auto& h = msg.header;
  w.u16(h.id);
  std::uint16_t flags = 0;
  if (h.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>(static_cast<std::uint16_t>(h.opcode) << 11);
  if (h.aa) flags |= 0x0400;
  if (h.tc) flags |= 0x0200;
  if (h.rd) flags |= 0x0100;
  if (h.ra) flags |= 0x0080;
  flags |= static_cast<std::uint16_t>(h.rcode) & 0x000f;
  w.u16(flags);
  w.u16(static_cast<std::uint16_t>(msg.questions.size()));
  w.u16(static_cast<std::uint16_t>(msg.answers.size()));
  w.u16(static_cast<std::uint16_t>(msg.authorities.size()));
  w.u16(static_cast<std::uint16_t>(msg.additionals.size() +
                                   (msg.edns ? 1 : 0)));
  ReferenceNameEncoder names(w);
  for (const auto& q : msg.questions) {
    names.write(q.name);
    w.u16(static_cast<std::uint16_t>(q.qtype));
    w.u16(static_cast<std::uint16_t>(q.qclass));
  }
  for (const auto& rr : msg.answers) reference_write_rr(w, names, rr);
  for (const auto& rr : msg.authorities) reference_write_rr(w, names, rr);
  for (const auto& rr : msg.additionals) reference_write_rr(w, names, rr);
  if (msg.edns) {
    w.u8(0);
    w.u16(static_cast<std::uint16_t>(dns::RRType::OPT));
    w.u16(msg.edns->udp_payload);
    w.u32((static_cast<std::uint32_t>(msg.edns->version) << 16) |
          (msg.edns->dnssec_ok ? 0x8000u : 0u));
    w.u16(0);
  }
  return std::move(w).take();
}

// Differential test of the name compressor: random messages whose names
// share suffixes heavily (a small mixed-case label pool), every RR type the
// codec writes, and a few messages longer than the 0x3fff pointer range.
// 20k messages per seed, 100k over the five seeds.
TEST_P(DnsFuzz, EncodeMatchesReferenceCompressor) {
  util::Rng rng(GetParam() ^ 0x0c0de);
  static const char* const kPool[] = {"www", "mail", "ns1", "ns2", "a", "b",
                                      "example", "attacker", "com", "net",
                                      "org", "co", "uk", "sub0", "sub1"};
  auto random_name = [&rng] {
    std::vector<std::string> labels;
    const std::size_t count = rng.bounded(5);  // 0 labels = the root
    for (std::size_t i = 0; i < count; ++i) {
      std::string label = kPool[rng.bounded(std::size(kPool))];
      if (rng.chance(0.1)) label += std::to_string(rng.bounded(100));
      for (char& c : label) {
        if (rng.chance(0.2) && c >= 'a' && c <= 'z') c = static_cast<char>(c - 32);
      }
      labels.push_back(std::move(label));
    }
    return *test::name_from_labels(labels);
  };
  auto random_rr = [&]() -> dns::ResourceRecord {
    const auto owner = random_name();
    switch (rng.bounded(9)) {
      case 0:
        return dns::make_a(owner, dns::IPv4{static_cast<std::uint32_t>(rng.next())});
      case 1:
        return dns::make_ns(owner, random_name());
      case 2:
        return dns::make_cname(owner, random_name());
      case 3: {
        dns::SoaData soa;
        soa.mname = random_name();
        soa.rname = random_name();
        soa.serial = static_cast<std::uint32_t>(rng.next());
        return dns::make_soa(owner, std::move(soa));
      }
      case 4:
        return dns::make_ptr(owner, random_name());
      case 5: {
        dns::MxData mx;
        mx.preference = static_cast<std::uint16_t>(rng.bounded(100));
        mx.exchange = random_name();
        return dns::ResourceRecord{owner, dns::RRClass::IN, 300, mx};
      }
      case 6:
        return dns::make_txt(owner, std::string(rng.bounded(300), 't'));
      case 7: {
        dns::AaaaData aaaa;
        for (auto& b : aaaa.addr) b = static_cast<std::uint8_t>(rng.next());
        return dns::ResourceRecord{owner, dns::RRClass::IN, 300, aaaa};
      }
      default:
        return dns::make_nsec(owner, random_name(), rng.chance(0.5));
    }
  };

  constexpr int kMessages = 20'000;
  int long_messages = 0;
  for (int iteration = 0; iteration < kMessages; ++iteration) {
    dns::Message msg;
    msg.header.id = static_cast<std::uint16_t>(rng.next());
    msg.header.qr = rng.chance(0.5);
    msg.header.aa = rng.chance(0.3);
    msg.header.rcode = rng.chance(0.3) ? dns::RCode::NXDomain : dns::RCode::NoError;
    const std::size_t questions = rng.chance(0.9) ? 1 : rng.bounded(3);
    for (std::size_t i = 0; i < questions; ++i) {
      msg.questions.push_back(
          dns::Question{random_name(), dns::RRType::A, dns::RRClass::IN});
    }
    // One message in 500 carries enough records to run past the 0x3fff
    // pointer range.
    const std::size_t records = iteration % 500 == 499 ? 900 : rng.bounded(14);
    for (std::size_t i = 0; i < records; ++i) {
      switch (rng.bounded(3)) {
        case 0: msg.answers.push_back(random_rr()); break;
        case 1: msg.authorities.push_back(random_rr()); break;
        default: msg.additionals.push_back(random_rr()); break;
      }
    }
    if (rng.chance(0.2)) msg.edns = dns::EdnsInfo{};

    const auto wire = dns::encode(msg);
    ASSERT_EQ(wire, reference_encode(msg)) << "iteration " << iteration;
    ASSERT_EQ(wire.capacity(), wire.size()) << "iteration " << iteration;
    if (wire.size() > 0x3fff) ++long_messages;
    const auto decoded = dns::decode(wire);
    ASSERT_TRUE(decoded.has_value()) << "iteration " << iteration;
    ASSERT_EQ(*decoded, msg) << "iteration " << iteration;
  }
  EXPECT_EQ(long_messages, kMessages / 500);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnsFuzz, ::testing::Values(1, 2, 3, 4, 5));

// ----------------------------------------------------------- squat detector

TEST(SquatFuzz, RandomLdhLabelsClassifyCleanly) {
  // Feed-shaped labels: 1-63 LDH octets, some "xn--" punycode-looking,
  // some built around a brand so the one-edit and combo tests compare
  // strings of nearly equal length deep into the label.
  static constexpr std::string_view kLdh =
      "abcdefghijklmnopqrstuvwxyz0123456789-";
  const auto detector = squat::SquatDetector::with_defaults();
  const auto& targets = detector.targets();
  util::Rng rng(61);
  std::size_t squats = 0;
  for (int i = 0; i < 24'000; ++i) {
    std::string label;
    switch (rng.bounded(3)) {
      case 0: {
        label = rng.bounded(2) == 0 ? "xn--" : "";
        const std::size_t len = label.size() + 1 + rng.bounded(63 - label.size());
        while (label.size() < len) label.push_back(kLdh[rng.bounded(kLdh.size())]);
        break;
      }
      case 1: {
        label = rng.pick(targets).brand;
        const std::size_t edits = rng.bounded(3);
        for (std::size_t e = 0; e < edits && !label.empty(); ++e) {
          const std::size_t at = rng.bounded(label.size());
          if (rng.bounded(2) == 0) {
            label[at] = kLdh[rng.bounded(kLdh.size())];
          } else {
            label.erase(at, 1);
          }
        }
        break;
      }
      default: {
        label = rng.pick(targets).brand;
        const std::size_t extra = rng.bounded(63 - label.size() + 1);
        for (std::size_t e = 0; e < extra; ++e) {
          const char c = kLdh[rng.bounded(kLdh.size())];
          label.insert(label.begin() + static_cast<std::ptrdiff_t>(
                                           rng.bounded(label.size() + 1)),
                       c);
        }
        break;
      }
    }
    if (label.empty()) label = "a";
    if (label.front() == '-') label.front() = 'x';
    if (label.back() == '-') label.back() = 'x';
    ASSERT_LE(label.size(), 63u);
    const std::string tld = rng.bounded(2) == 0
                                ? std::string(rng.pick(targets).domain.tld())
                                : "org";
    const auto name = dns::DomainName::parse(label + "." + tld);
    ASSERT_TRUE(name.has_value()) << label;
    const auto verdict = detector.classify(*name);
    const auto again = detector.classify(*name);
    ASSERT_EQ(verdict.has_value(), again.has_value()) << label;
    if (!verdict) continue;
    ++squats;
    EXPECT_EQ(verdict->type, again->type) << label;
    EXPECT_TRUE(std::any_of(targets.begin(), targets.end(),
                            [&](const squat::Target& t) {
                              return t.domain == verdict->target;
                            }))
        << label;
  }
  EXPECT_GT(squats, 0u);
}

// ----------------------------------------------------------- HTTP parser

class HttpFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HttpFuzz, RandomBytesNeverCrash) {
  util::Rng rng(GetParam());
  for (int iteration = 0; iteration < 2'000; ++iteration) {
    std::string soup(rng.bounded(512), '\0');
    for (auto& c : soup) c = static_cast<char>(rng.next());
    const auto parsed = honeypot::parse_http_request(soup);
    if (parsed) {
      // Anything accepted must survive serialize -> reparse.
      const auto again = honeypot::parse_http_request(parsed->serialize());
      EXPECT_TRUE(again.has_value());
      EXPECT_EQ(again->method, parsed->method);
    }
  }
}

TEST_P(HttpFuzz, StructuredMutationsNeverCrash) {
  util::Rng rng(GetParam() ^ 0x4770);
  const std::string base =
      "GET /getTask.php?imei=35&phone=%2B1555 HTTP/1.1\r\n"
      "host: gpclick.com\r\nuser-agent: Apache-HttpClient/UNAVAILABLE\r\n"
      "referer: https://a.example/\r\n\r\nbody";
  for (int iteration = 0; iteration < 4'000; ++iteration) {
    std::string mutated = base;
    const int edits = 1 + static_cast<int>(rng.bounded(5));
    for (int e = 0; e < edits; ++e) {
      switch (rng.bounded(3)) {
        case 0:  // flip a byte
          mutated[rng.bounded(mutated.size())] = static_cast<char>(rng.next());
          break;
        case 1:  // truncate
          mutated.resize(rng.bounded(mutated.size() + 1));
          break;
        default:  // duplicate a slice
          if (!mutated.empty()) {
            const auto at = rng.bounded(mutated.size());
            mutated.insert(at, mutated.substr(at / 2, 8));
          }
          break;
      }
    }
    const auto parsed = honeypot::parse_http_request(mutated);
    if (parsed) {
      // Accessors must be safe on whatever came out.
      (void)parsed->path();
      (void)parsed->query();
      (void)parsed->query_params();
      (void)parsed->header("user-agent");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HttpFuzz, ::testing::Values(11, 12, 13));

// ------------------------------------------------------ SIE batch frames

class FrameFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrameFuzz, RandomBytesNeverCrash) {
  util::Rng rng(GetParam() ^ 0x51eb);
  for (int iteration = 0; iteration < 2'000; ++iteration) {
    std::vector<std::uint8_t> soup(rng.bounded(512));
    for (auto& b : soup) b = static_cast<std::uint8_t>(rng.next());
    const auto decoded = oracle::decode_batch_frame(soup);
    const auto view = pdns::FrameView::parse(soup);
    ASSERT_EQ(decoded.has_value(), view.has_value());
    if (decoded) {
      // Anything accepted must survive encode -> decode unchanged.
      EXPECT_EQ(view->size(), decoded->size());
      EXPECT_EQ(pdns::encode_batch_frame(*decoded), soup);
    }
  }
}

// The feed-plane invariant, through the production ingest entry: a mutated
// frame is either rejected whole (counted, and nothing reaches the store) or
// it decodes to a well-formed batch that is counted exactly once.  No
// partial ingest, no double counting, no crash.
TEST_P(FrameFuzz, MutatedFramesRejectWholeOrCountExactly) {
  util::Rng rng(GetParam() ^ 0xf4a3e);
  std::vector<pdns::Observation> batch;
  for (int i = 0; i < 20; ++i) {
    pdns::Observation obs;
    obs.name = dns::DomainName::must("h" + std::to_string(i) + ".fuzz-batch.com");
    obs.rcode = (i % 5 == 0) ? dns::RCode::NoError : dns::RCode::NXDomain;
    obs.when = (100 + i) * util::kSecondsPerDay;
    obs.sensor.cls = static_cast<pdns::SensorClass>(i % 4);
    obs.sensor.index = static_cast<std::uint16_t>(i % 16);
    batch.push_back(obs);
  }
  const auto wire = pdns::encode_batch_frame(batch);
  util::WorkerPool inline_pool(0);

  for (int iteration = 0; iteration < 4'000; ++iteration) {
    auto mutated = wire;
    const int edits = 1 + static_cast<int>(rng.bounded(4));
    for (int e = 0; e < edits; ++e) {
      switch (rng.bounded(3)) {
        case 0:  // flip a bit
          mutated[rng.bounded(mutated.size())] ^=
              static_cast<std::uint8_t>(1u << rng.bounded(8));
          break;
        case 1:  // truncate
          mutated.resize(rng.bounded(mutated.size() + 1));
          break;
        default:  // append garbage
          mutated.push_back(static_cast<std::uint8_t>(rng.next()));
          break;
      }
    }

    pdns::ShardedStore store(1);
    const std::span<const std::uint8_t> frames[] = {mutated};
    const auto stats = store.ingest_frames(frames, inline_pool);
    const auto decoded = oracle::decode_batch_frame(mutated);

    if (stats.rejected_frames == 1) {
      // Rejected whole: the frame contributed nothing anywhere.
      EXPECT_FALSE(decoded.has_value());
      EXPECT_EQ(stats.accepted_frames, 0u);
      EXPECT_EQ(stats.observations, 0u);
      EXPECT_EQ(store.total_observations(), 0u);
    } else {
      // Accepted: counted exactly once, end to end.
      ASSERT_EQ(stats.accepted_frames, 1u);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(stats.observations, decoded->size());
      EXPECT_EQ(store.total_observations(), decoded->size());
      pdns::PassiveDnsStore expect;
      for (const auto& obs : *decoded) expect.ingest(obs);
      EXPECT_EQ(pdns::save_snapshot(store.shard(0)), pdns::save_snapshot(expect));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameFuzz, ::testing::Values(21, 22, 23));

// -------------------------------------------------------- snapshot loader

/// A store rich enough that its snapshot exercises every section: months,
/// TLD index, domains with daily series, and the sensor mix.
std::vector<std::uint8_t> rich_snapshot_bytes() {
  pdns::PassiveDnsStore store;
  util::Rng rng(0xD15C);
  static const char* kNames[] = {"a.com", "b.com", "c.net", "deep.sub.d.org",
                                 "e.xyz", "f.net"};
  for (int i = 0; i < 200; ++i) {
    pdns::Observation obs;
    obs.name = dns::DomainName::must(kNames[rng.bounded(6)]);
    const double roll = rng.uniform();
    obs.rcode = roll < 0.7   ? dns::RCode::NXDomain
                : roll < 0.9 ? dns::RCode::NoError
                             : dns::RCode::ServFail;
    obs.when = rng.range(0, 60) * 86'400 + rng.range(0, 86'399);
    obs.sensor.cls = static_cast<pdns::SensorClass>(rng.bounded(4));
    obs.sensor.index = static_cast<std::uint16_t>(rng.bounded(2));
    store.ingest(obs);
  }
  return pdns::save_snapshot(store);
}

TEST(SnapshotFuzz, TruncationAtEveryOffsetIsRejectedNotCrashed) {
  const auto bytes = rich_snapshot_bytes();
  ASSERT_GT(bytes.size(), 100u);
  // The loader requires full consumption, so every proper prefix must be
  // rejected — and none may crash, hang, or allocate via a hostile count.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const auto loaded =
        pdns::load_snapshot(std::span(bytes).subspan(0, cut));
    EXPECT_FALSE(loaded.has_value()) << "cut=" << cut;
  }
}

class SnapshotFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnapshotFuzz, MutatedSnapshotsLoadValidOrRejectNeverCrash) {
  const auto bytes = rich_snapshot_bytes();
  util::Rng rng(GetParam() ^ 0x5AFE);
  for (int iteration = 0; iteration < 3'000; ++iteration) {
    auto mutated = bytes;
    const int flips = 1 + static_cast<int>(rng.bounded(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.bounded(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.bounded(8));
    }
    const auto loaded = pdns::load_snapshot(mutated);
    if (loaded) {
      // Anything the loader admits must be canonically re-serializable:
      // save → load round-trips (the store is internally consistent).
      const auto resaved = pdns::save_snapshot(*loaded);
      EXPECT_TRUE(pdns::load_snapshot(resaved).has_value());
    }
  }
}

TEST_P(SnapshotFuzz, RandomByteSoupNeverCrashesTheLoader) {
  util::Rng rng(GetParam() ^ 0xB00F);
  for (int iteration = 0; iteration < 2'000; ++iteration) {
    std::vector<std::uint8_t> soup(rng.bounded(512));
    for (auto& b : soup) b = static_cast<std::uint8_t>(rng.next());
    (void)pdns::load_snapshot(soup);  // must simply return
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotFuzz, ::testing::Values(31, 32, 33));

// ------------------------------------------------ overload guard under fuzz

class OverloadFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverloadFuzz, GarbageStreamsThroughDeadlinePathsNeverCrashOrLeak) {
  // Random byte soup trickled through the streaming connection API with a
  // randomly advancing clock: every header/body/idle deadline path and the
  // reaper run against hostile framing.  Invariants: no crash, connection
  // count bounded by config, and every request the gate acked (completed)
  // produced a response — acked work is never lost.
  util::Rng rng(GetParam() ^ 0x071);
  honeypot::TrafficRecorder recorder;
  honeypot::NxdHoneypot::Config config;
  config.domain = "fuzz.test";
  config.max_request_bytes = 2'048;
  honeypot::NxdHoneypot server(config, recorder);
  honeypot::OverloadConfig guard;
  guard.max_connections = 24;
  guard.per_ip_rate = 50;  // loose: the framing paths are under test
  guard.per_ip_burst = 100;
  server.enable_overload(guard);

  util::SimClock clock;
  std::vector<std::uint64_t> live;
  std::uint64_t responses_seen = 0;
  for (int iteration = 0; iteration < 4'000; ++iteration) {
    const auto roll = rng.bounded(10);
    if (roll < 4 || live.empty()) {
      const auto opened = server.conn_open(
          net::Endpoint{dns::IPv4{static_cast<std::uint32_t>(rng.bounded(64))},
                        static_cast<std::uint16_t>(rng.bounded(65'536))},
          clock.now());
      if (opened.accepted) {
        live.push_back(opened.id);
      } else {
        // A shed connection is always answered (503/429), never dropped.
        ASSERT_TRUE(opened.response.has_value());
        ++responses_seen;
      }
    } else if (roll < 8) {
      const auto pick = rng.bounded(live.size());
      std::vector<std::uint8_t> chunk(rng.bounded(96));
      for (auto& b : chunk) b = static_cast<std::uint8_t>(rng.next());
      if (rng.chance(0.3)) {
        // Seed plausible HTTP so the complete/terminator paths also fire.
        const std::string head = "GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\n";
        chunk.insert(chunk.begin(), head.begin(), head.end());
      }
      if (server.conn_data(live[pick], chunk, clock.now())) ++responses_seen;
      if (server.conn_data(live[pick], {}, clock.now())) {
        // A retired id must stay retired: feeding it again returns nothing.
        ADD_FAILURE() << "completed connection accepted more data";
      }
    } else if (roll == 8) {
      clock.advance(rng.bounded(7));
      responses_seen += server.reap_expired(clock.now()).size();
    } else {
      server.conn_abort(live[rng.bounded(live.size())], clock.now());
    }
    // Prune ids the server no longer tracks (completed/reaped/aborted).
    if (live.size() > 64) live.clear();
    ASSERT_LE(server.open_connections(), guard.max_connections);
  }
  clock.advance(guard.request_deadline + guard.idle_deadline + 1);
  responses_seen += server.reap_expired(clock.now()).size();

  const auto& stats = server.gate()->stats();
  EXPECT_EQ(server.open_connections(), 0u);
  EXPECT_EQ(stats.opened, stats.accepted + stats.shed_total());
  EXPECT_EQ(stats.accepted, stats.completed + stats.aborted +
                                stats.expired_total() +
                                stats.drain_forced_closes);
  // Responses we saw (sheds + parseable completions + 408 reaps) can never
  // exceed what the gate accounted for — no response without a ledger
  // entry, and no acked request vanished: everything completed or reaped
  // is capture-recorded or answered.
  EXPECT_LE(responses_seen,
            stats.shed_total() + stats.completed + stats.expired_total());
  EXPECT_EQ(recorder.shed_connections(), stats.shed_total());
  EXPECT_EQ(recorder.expired_connections(),
            stats.expired_total() + stats.drain_forced_closes);
}

TEST_P(OverloadFuzz, RrlVerdictsStayConsistentUnderRandomFloods) {
  // The slip path under fuzz: random sources, random (sometimes backward)
  // clock reads.  The limiter must never crash, never lose a check, and
  // never let the table outgrow its bound.
  util::Rng rng(GetParam() ^ 0x5711);
  resolver::RrlConfig config;
  config.responses_per_second = 2;
  config.burst = 3;
  config.slip = 2;
  config.max_tracked_sources = 32;
  resolver::ResponseRateLimiter limiter(config);

  util::SimTime now = 0;
  for (int i = 0; i < 20'000; ++i) {
    if (rng.chance(0.1)) now += static_cast<util::SimTime>(rng.bounded(5));
    const auto query_time =
        rng.chance(0.05) ? now - static_cast<util::SimTime>(rng.bounded(10))
                         : now;  // occasional stale timestamp
    (void)limiter.check(
        dns::IPv4{static_cast<std::uint32_t>(rng.bounded(256))}, query_time);
    ASSERT_LE(limiter.tracked_sources(), config.max_tracked_sources);
  }
  const auto& stats = limiter.stats();
  EXPECT_EQ(stats.checked,
            stats.passed + stats.slipped + stats.dropped);
  EXPECT_EQ(stats.checked, 20'000u);

  // Slipped messages must stay rcode-faithful even for fuzzed responses.
  const auto query = dns::make_query(9, dns::DomainName::must("x.fuzz.test"));
  auto response = dns::make_response(query, dns::RCode::NXDomain);
  const auto slipped = resolver::slip_truncate(response);
  EXPECT_TRUE(slipped.header.tc);
  EXPECT_EQ(slipped.header.rcode, dns::RCode::NXDomain);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverloadFuzz, ::testing::Values(41, 42, 43));

}  // namespace
}  // namespace nxd
