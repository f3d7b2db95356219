// Unit tests for nxd::dns — names, records, and the wire codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dns/message.hpp"
#include "dns/name.hpp"
#include "dns/record.hpp"
#include "util/rng.hpp"
#include "wire_name.hpp"
#include "util/strings.hpp"

namespace nxd::dns {
namespace {

// ------------------------------------------------------------- DomainName

TEST(DomainName, ParsesAndLowercases) {
  const auto name = DomainName::parse("WWW.Example.COM");
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(name->to_string(), "www.example.com");
  EXPECT_EQ(name->label_count(), 3u);
  EXPECT_EQ(name->tld(), "com");
  EXPECT_EQ(name->sld(), "example");
}

TEST(DomainName, TrailingDotAndRoot) {
  EXPECT_EQ(DomainName::must("example.com.").to_string(), "example.com");
  const auto root = DomainName::parse(".");
  ASSERT_TRUE(root.has_value());
  EXPECT_TRUE(root->is_root());
  EXPECT_EQ(root->to_string(), ".");
}

class InvalidNameTest : public ::testing::TestWithParam<const char*> {};

TEST_P(InvalidNameTest, Rejected) {
  EXPECT_FALSE(DomainName::parse(GetParam()).has_value()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, InvalidNameTest,
    ::testing::Values("a..b",                     // empty label
                      ".leading.empty",           // leading dot
                      "has space.com",            // whitespace
                      "bad\tlabel.com",           // control char
                      // label over 63 octets
                      "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
                      "aaaaaaaaaaaaaaa.com"));

TEST(DomainName, AcceptsServiceLabelsAndDigits) {
  EXPECT_TRUE(DomainName::parse("_dmarc.example.com").has_value());
  EXPECT_TRUE(DomainName::parse("1x-sport-bk7.com").has_value());
  EXPECT_TRUE(DomainName::parse("xn--80ak6aa92e.com").has_value());
}

TEST(DomainName, TotalLengthLimit) {
  // 4 labels x 63 + dots = 255 > 253: reject.
  const std::string label(63, 'a');
  const std::string too_long = label + "." + label + "." + label + "." + label;
  EXPECT_FALSE(DomainName::parse(too_long).has_value());
  // Under the cap: accept.
  const std::string ok = label + "." + label + "." + label + ".com";
  EXPECT_TRUE(DomainName::parse(ok).has_value());
}

TEST(DomainName, RegisteredDomainAndSubdomain) {
  const auto name = DomainName::must("a.b.example.com");
  EXPECT_EQ(name.registered_domain().to_string(), "example.com");
  EXPECT_TRUE(name.is_subdomain_of(DomainName::must("example.com")));
  EXPECT_TRUE(name.is_subdomain_of(DomainName::must("b.example.com")));
  EXPECT_FALSE(name.is_subdomain_of(DomainName::must("other.com")));
  EXPECT_TRUE(name.is_subdomain_of(DomainName{}));  // everything under root
  // Not fooled by suffix-string overlap: "xexample.com" vs "example.com".
  EXPECT_FALSE(DomainName::must("xexample.com")
                   .is_subdomain_of(DomainName::must("example.com")));
}

TEST(DomainName, ChildAndParent) {
  const auto base = DomainName::must("example.com");
  const auto child = base.child("www");
  ASSERT_TRUE(child.has_value());
  EXPECT_EQ(child->to_string(), "www.example.com");
  EXPECT_EQ(child->parent(), base);
  EXPECT_TRUE(DomainName::must("com").parent().is_root());
}

TEST(DomainName, OrderingAndHash) {
  const auto a = DomainName::must("a.com");
  const auto b = DomainName::must("A.COM");
  EXPECT_EQ(a, b);
  EXPECT_EQ(DomainNameHash{}(a), DomainNameHash{}(b));
  EXPECT_NE(a, DomainName::must("b.com"));
}

TEST(DomainName, WireLength) {
  // "example.com" -> 1+7 + 1+3 + 1 = 13.
  EXPECT_EQ(DomainName::must("example.com").wire_length(), 13u);
  EXPECT_EQ(DomainName{}.wire_length(), 1u);
}

// ------------------------------------------- DomainName differential suite
//
// RefName is a plain vector-of-labels name with the semantics DomainName
// must keep (parsing, lowercasing, limits, both orders, the hash value).
// Every DomainName operation is checked against it over seeded names.

bool ref_valid_label(std::string_view label) {
  if (label.empty() || label.size() > 63) return false;
  for (const char c : label) {
    if (c <= ' ' || c > '~' || c == '.') return false;
  }
  return true;
}

struct RefName {
  std::vector<std::string> labels;

  static std::optional<RefName> from_labels(std::vector<std::string> labels) {
    std::size_t total = 0;
    for (auto& label : labels) {
      if (!ref_valid_label(label)) return std::nullopt;
      label = util::to_lower(label);
      total += label.size() + 1;
    }
    if (total > 254) return std::nullopt;
    return RefName{std::move(labels)};
  }

  static std::optional<RefName> parse(std::string_view text) {
    if (text == "." || text.empty()) return RefName{};
    if (text.back() == '.') text.remove_suffix(1);
    if (text.size() > 253) return std::nullopt;
    std::vector<std::string> labels;
    for (const auto piece : util::split(text, '.')) {
      labels.emplace_back(piece);
    }
    return from_labels(std::move(labels));
  }

  std::string to_string() const {
    return labels.empty() ? "." : util::join(labels, ".");
  }
  std::string_view tld() const {
    return labels.empty() ? std::string_view{} : labels.back();
  }
  std::string_view sld() const {
    return labels.size() < 2 ? std::string_view{} : labels[labels.size() - 2];
  }
  RefName suffix(std::size_t n) const {
    if (n >= labels.size()) return *this;
    return RefName{{labels.end() - static_cast<std::ptrdiff_t>(n), labels.end()}};
  }
  RefName registered_domain() const { return suffix(2); }
  RefName parent() const {
    return suffix(labels.empty() ? 0 : labels.size() - 1);
  }
  std::optional<RefName> child(std::string_view label) const {
    std::vector<std::string> out{std::string(label)};
    out.insert(out.end(), labels.begin(), labels.end());
    return from_labels(std::move(out));
  }
  bool is_subdomain_of(const RefName& ancestor) const {
    if (ancestor.labels.size() > labels.size()) return false;
    return std::equal(ancestor.labels.begin(), ancestor.labels.end(),
                      labels.end() - static_cast<std::ptrdiff_t>(
                                         ancestor.labels.size()));
  }
  std::size_t wire_length() const {
    std::size_t total = 1;
    for (const auto& label : labels) total += label.size() + 1;
    return total;
  }
  std::size_t hash() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& label : labels) {
      for (const char c : label) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ULL;
      }
      h ^= '.';
      h *= 0x100000001b3ULL;
    }
    return static_cast<std::size_t>(h);
  }
  friend int canonical_compare(const RefName& a, const RefName& b) {
    const std::size_t n = std::min(a.labels.size(), b.labels.size());
    for (std::size_t i = 1; i <= n; ++i) {
      const int c = a.labels[a.labels.size() - i].compare(
          b.labels[b.labels.size() - i]);
      if (c != 0) return c < 0 ? -1 : 1;
    }
    if (a.labels.size() != b.labels.size()) {
      return a.labels.size() < b.labels.size() ? -1 : 1;
    }
    return 0;
  }
  friend bool operator==(const RefName&, const RefName&) = default;
  friend auto operator<=>(const RefName&, const RefName&) = default;
};

int sign(std::strong_ordering o) { return o < 0 ? -1 : (o > 0 ? 1 : 0); }
int sign(int v) { return v < 0 ? -1 : (v > 0 ? 1 : 0); }

/// The name and the reference agree on every observer.
::testing::AssertionResult same(const DomainName& name, const RefName& ref) {
  std::vector<std::string_view> labels;
  for (std::size_t i = 0; i < name.label_count(); ++i) {
    labels.push_back(name.label(i));
  }
  std::string wire;
  for (const auto& label : ref.labels) {
    wire += static_cast<char>(label.size());
    wire += label;
  }
  if (name.to_string() != ref.to_string() ||
      name.label_count() != ref.labels.size() ||
      !std::equal(labels.begin(), labels.end(), ref.labels.begin(),
                  ref.labels.end()) ||
      name.wire() != wire || name.is_root() != ref.labels.empty() ||
      name.tld() != ref.tld() || name.sld() != ref.sld() ||
      name.wire_length() != ref.wire_length() ||
      DomainNameHash{}(name) != ref.hash()) {
    return ::testing::AssertionFailure() << "name " << name.to_string()
                                         << " vs reference " << ref.to_string();
  }
  return ::testing::AssertionSuccess();
}

/// Labels drawn to cover short names, names around any inline capacity up
/// to 100 octets, names at the 255-octet limit, and byte values that look
/// like length octets ('!' is 33).
std::vector<std::string> random_labels(util::Rng& rng) {
  static constexpr std::string_view kAlphabet =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_*!~/";
  static const std::vector<std::string> kSuffixes = {"com", "net", "example",
                                                     "co", "uk", "Com"};
  auto label_of = [&](std::size_t len) {
    std::string label;
    for (std::size_t j = 0; j < len; ++j) {
      label += rng.chance(0.85) ? kAlphabet[rng.bounded(26)]
                                : kAlphabet[rng.bounded(kAlphabet.size())];
    }
    return label;
  };
  std::vector<std::string> labels;
  const auto shape = rng.bounded(4);
  if (shape == 0) {
    // Short, with shared suffixes so orders and subdomains tie often.
    const std::size_t count = rng.bounded(5);
    for (std::size_t i = 0; i < count; ++i) {
      labels.push_back(rng.chance(0.5) ? kSuffixes[rng.bounded(kSuffixes.size())]
                                       : label_of(1 + rng.bounded(12)));
    }
  } else {
    // Fill a target of label octets: 40..100, or anywhere up to 256.
    const std::size_t target =
        shape == 3 ? 2 + rng.bounded(255) : 40 + rng.bounded(61);
    std::size_t octets = 0;
    while (octets + 2 <= target) {
      const std::size_t room = std::min<std::size_t>(63, target - octets - 1);
      const std::size_t len = rng.chance(0.3) ? room : 1 + rng.bounded(room);
      labels.push_back(label_of(len));
      octets += 1 + len;
    }
  }
  // Now and then an invalid label: empty, too long, or a bad byte.
  if (!labels.empty() && rng.chance(0.03)) {
    auto& victim = labels[rng.bounded(labels.size())];
    switch (rng.bounded(3)) {
      case 0: victim.clear(); break;
      case 1: victim = std::string(64, 'z'); break;
      default: victim[rng.bounded(victim.size())] = " .\t\x7f"[rng.bounded(4)];
    }
  }
  return labels;
}

TEST(DomainNameDifferential, AgreesWithVectorOfLabelsModel) {
  util::Rng rng(0x5eed'0f'd0'a1'9eULL);
  std::optional<DomainName> prev;
  std::optional<RefName> prev_ref;
  std::size_t accepted = 0;
  std::size_t spilled = 0;
  for (int i = 0; i < 100'000; ++i) {
    auto labels = random_labels(rng);
    const auto name = test::name_from_labels(labels);
    const auto ref = RefName::from_labels(labels);
    ASSERT_EQ(name.has_value(), ref.has_value()) << i;

    // parse agrees on the presentation text, with or without a trailing dot.
    std::string text = util::join(labels, ".");
    if (rng.chance(0.2)) text += '.';
    const auto parsed = DomainName::parse(text);
    const auto parsed_ref = RefName::parse(text);
    ASSERT_EQ(parsed.has_value(), parsed_ref.has_value()) << text;
    if (parsed) {
      ASSERT_TRUE(same(*parsed, *parsed_ref)) << text;
    }
    if (!name) continue;

    ++accepted;
    if (name->wire_length() - 1 > DomainName::kInlineCapacity) ++spilled;
    ASSERT_TRUE(same(*name, *ref));
    ASSERT_TRUE(same(name->parent(), ref->parent()));
    ASSERT_TRUE(same(name->registered_domain(), ref->registered_domain()));
    const std::size_t keep = rng.bounded(name->label_count() + 2);
    ASSERT_TRUE(same(name->suffix(keep), ref->suffix(keep)));
    if (parsed) {
      EXPECT_EQ(*parsed, *name) << text;
    }

    // child: a short label, a 63-octet label, or one past the length limit.
    const std::string extra = rng.chance(0.5) ? std::string(1 + rng.bounded(5), 'W')
                                              : std::string(63, 'k');
    const auto kid = name->child(extra);
    const auto kid_ref = ref->child(extra);
    ASSERT_EQ(kid.has_value(), kid_ref.has_value()) << ref->to_string();
    if (kid) {
      ASSERT_TRUE(same(*kid, *kid_ref));
      EXPECT_TRUE(kid->is_subdomain_of(*name));
      EXPECT_EQ(kid->parent(), *name);
    }

    // Pairwise against the previous name and against one of its own
    // ancestors (so subdomain answers are often true).
    if (prev) {
      EXPECT_EQ(*name == *prev, *ref == *prev_ref);
      EXPECT_EQ(sign(*name <=> *prev), sign(*ref <=> *prev_ref))
          << ref->to_string() << " vs " << prev_ref->to_string();
      EXPECT_EQ(sign(canonical_compare(*name, *prev)),
                sign(canonical_compare(*ref, *prev_ref)));
      EXPECT_EQ(name->is_subdomain_of(*prev), ref->is_subdomain_of(*prev_ref));
      EXPECT_EQ(prev->is_subdomain_of(*name), prev_ref->is_subdomain_of(*ref));
    }
    const auto ancestor = name->suffix(keep);
    const auto ancestor_ref = ref->suffix(keep);
    EXPECT_EQ(name->is_subdomain_of(ancestor),
              ref->is_subdomain_of(ancestor_ref));
    EXPECT_EQ(sign(*name <=> ancestor), sign(*ref <=> ancestor_ref));
    EXPECT_EQ(sign(canonical_compare(ancestor, *name)),
              sign(canonical_compare(ancestor_ref, *ref)));
    if (HasFailure()) FAIL() << "stopped at name " << i;
    prev = name;
    prev_ref = ref;
  }
  // The draw really reached both representations.
  EXPECT_GT(accepted, 90'000u);
  EXPECT_GT(spilled, 20'000u);
}

TEST(DomainNameDifferential, EdgeCases) {
  const std::string l63(63, 'a');
  const std::string inline_full =  // label octets == kInlineCapacity
      std::string(DomainName::kInlineCapacity - 5, 'b') + ".com";
  const std::string inline_over =  // one octet more
      std::string(DomainName::kInlineCapacity - 4, 'b') + ".com";
  const std::string inline_under =  // one octet less
      std::string(DomainName::kInlineCapacity - 6, 'b') + ".com";
  const std::vector<std::string> texts = {
      ".", "", "com", "COM", "Www.Example.COM.", "_dmarc.example.com",
      "*.example.com", "!.a.b", "a!b.c",
      l63 + ".com",
      l63 + "." + l63 + "." + l63 + "." + std::string(61, 'c'),  // 253 chars
      l63 + "." + l63 + "." + l63 + "." + std::string(62, 'c'),  // 254
      inline_full, inline_over, inline_under,
      std::string(64, 'a') + ".com", "a..b", ".a", "a b.com"};
  for (const auto& text : texts) {
    const auto name = DomainName::parse(text);
    const auto ref = RefName::parse(text);
    ASSERT_EQ(name.has_value(), ref.has_value()) << text;
    if (!name) continue;
    EXPECT_TRUE(same(*name, *ref)) << text;
    EXPECT_TRUE(same(name->parent(), ref->parent())) << text;
    EXPECT_TRUE(same(name->registered_domain(), ref->registered_domain()));
    for (const std::string_view extra : {"x", "X_", "*"}) {
      const auto kid = name->child(extra);
      const auto kid_ref = ref->child(extra);
      ASSERT_EQ(kid.has_value(), kid_ref.has_value()) << text;
      if (kid) {
        EXPECT_TRUE(same(*kid, *kid_ref)) << text;
      }
    }
  }
  EXPECT_EQ(DomainName::must(inline_full).wire_length() - 1,
            DomainName::kInlineCapacity);
  EXPECT_EQ(DomainName::must(inline_over).wire_length() - 1,
            DomainName::kInlineCapacity + 1);
  // child rejects a result over 255 wire octets, and an invalid label.
  const auto full =
      DomainName::must(l63 + "." + l63 + "." + l63 + "." + std::string(61, 'c'));
  EXPECT_FALSE(full.child("x").has_value());
  EXPECT_TRUE(full.parent().child(std::string(63, 'x')).has_value());  // 255
  EXPECT_FALSE(DomainName::must(l63 + "." + l63 + "." + std::string(62, 'c'))
                   .child(std::string(63, 'x'))
                   .has_value());  // 256
  EXPECT_FALSE(DomainName::must("a.com").child("").has_value());
  EXPECT_FALSE(DomainName::must("a.com").child("a.b").has_value());
  // '!' is octet 33, the length octet of a 33-octet label: these bytes
  // match the ancestor's wire form from mid-label, which is no subdomain.
  const auto ancestor = DomainName::must(std::string(33, 'a') + ".com");
  const auto lookalike =
      DomainName::must("x!" + std::string(33, 'a') + ".com");
  EXPECT_EQ(lookalike.wire().substr(2), ancestor.wire());
  EXPECT_FALSE(lookalike.is_subdomain_of(ancestor));
}

TEST(DomainNameDifferential, SpilledCopyMoveAndSelfAssignment) {
  const auto long_text = std::string(60, 'l') + "." + std::string(40, 'm') +
                         ".example.com";
  const auto short_name = DomainName::must("www.example.com");
  DomainName a = DomainName::must(long_text);
  ASSERT_GT(a.wire_length() - 1, DomainName::kInlineCapacity);

  DomainName copy(a);
  EXPECT_EQ(copy, a);
  EXPECT_NE(copy.wire().data(), a.wire().data());  // its own heap block
  DomainName moved(std::move(copy));
  EXPECT_EQ(moved.to_string(), long_text);
  copy = a;  // assign into a moved-from name
  EXPECT_EQ(copy, a);

  DomainName* alias = &copy;
  copy = *alias;  // self copy-assignment
  EXPECT_EQ(copy.to_string(), long_text);
  copy = std::move(*alias);  // self move-assignment
  EXPECT_EQ(copy.to_string(), long_text);

  copy = short_name;  // spilled <- inline
  EXPECT_EQ(copy, short_name);
  copy = moved;  // inline <- spilled
  EXPECT_EQ(copy.to_string(), long_text);
  copy = std::move(moved);  // spilled <- spilled, by move
  EXPECT_EQ(copy.to_string(), long_text);

  // Growing a name past the inline buffer keeps its labels.
  DomainName grown = DomainName::must(std::string(58, 'g'));
  ASSERT_TRUE(grown.append_label("example"));
  ASSERT_TRUE(grown.append_label("com"));
  EXPECT_EQ(grown.to_string(), std::string(58, 'g') + ".example.com");
  EXPECT_EQ(grown.parent().to_string(), "example.com");
  DomainName kept = grown;
  EXPECT_FALSE(grown.append_label(std::string(64, 'x')));
  EXPECT_EQ(grown, kept);  // a rejected label leaves the name unchanged

  std::vector<DomainName> names(50, a);  // reallocation moves spilled names
  names.push_back(short_name);
  names.insert(names.begin(), a);
  EXPECT_EQ(names.front(), a);
  EXPECT_EQ(names.back(), short_name);
}

// ------------------------------------------------------------------ IPv4

struct Ipv4Case {
  const char* text;
  bool valid;
};

class Ipv4ParseTest : public ::testing::TestWithParam<Ipv4Case> {};

TEST_P(Ipv4ParseTest, Parse) {
  const auto& c = GetParam();
  const auto ip = IPv4::parse(c.text);
  EXPECT_EQ(ip.has_value(), c.valid) << c.text;
  if (ip) {
    EXPECT_EQ(ip->to_string(), c.text);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Ipv4ParseTest,
    ::testing::Values(Ipv4Case{"1.2.3.4", true}, Ipv4Case{"0.0.0.0", true},
                      Ipv4Case{"255.255.255.255", true},
                      Ipv4Case{"256.1.1.1", false}, Ipv4Case{"1.2.3", false},
                      Ipv4Case{"1.2.3.4.5", false}, Ipv4Case{"a.b.c.d", false},
                      Ipv4Case{"1..2.3", false}));

TEST(IPv4, Octets) {
  const auto ip = IPv4::from_octets(192, 0, 2, 55);
  EXPECT_EQ(ip.octet(0), 192);
  EXPECT_EQ(ip.octet(3), 55);
}

// ----------------------------------------------------------------- codec

Message sample_query() {
  return make_query(0x1234, DomainName::must("www.example.com"), RRType::A);
}

TEST(Codec, QueryRoundTrip) {
  const Message query = sample_query();
  const auto wire = encode(query);
  const auto decoded = decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, query);
}

TEST(Codec, ResponseWithAllSections) {
  Message response = make_response(sample_query(), RCode::NoError);
  response.header.aa = true;
  response.answers.push_back(
      make_a(DomainName::must("www.example.com"), *IPv4::parse("93.184.216.34"), 300));
  response.authorities.push_back(make_ns(DomainName::must("example.com"),
                                         DomainName::must("ns1.example.com")));
  response.additionals.push_back(
      make_a(DomainName::must("ns1.example.com"), *IPv4::parse("192.0.2.1")));
  const auto decoded = decode(encode(response));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, response);
}

TEST(Codec, NxDomainCarriesSoa) {
  SoaData soa;
  soa.mname = DomainName::must("a.gtld-servers.net");
  soa.rname = DomainName::must("nstld.verisign-grs.com");
  soa.minimum = 900;
  const Message nx = make_nxdomain(
      sample_query(), make_soa(DomainName::must("com"), soa));
  const auto decoded = decode(encode(nx));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->is_nxdomain());
  ASSERT_EQ(decoded->authorities.size(), 1u);
  EXPECT_EQ(decoded->authorities[0].type(), RRType::SOA);
  EXPECT_EQ(std::get<SoaData>(decoded->authorities[0].rdata).minimum, 900u);
}

struct RdataCase {
  const char* label;
  RData rdata;
};

class RdataRoundTrip : public ::testing::TestWithParam<RdataCase> {};

TEST_P(RdataRoundTrip, EncodesAndDecodes) {
  Message msg = make_response(sample_query(), RCode::NoError);
  msg.answers.push_back(ResourceRecord{DomainName::must("x.example.com"),
                                       RRClass::IN, 60, GetParam().rdata});
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.has_value()) << GetParam().label;
  ASSERT_EQ(decoded->answers.size(), 1u);
  EXPECT_EQ(decoded->answers[0].rdata, GetParam().rdata) << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, RdataRoundTrip,
    ::testing::Values(
        RdataCase{"a", IPv4{0x01020304}},
        RdataCase{"ns", NsData{DomainName::must("ns1.example.com")}},
        RdataCase{"cname", CnameData{DomainName::must("alias.example.com")}},
        RdataCase{"soa",
                  SoaData{DomainName::must("ns1.example.com"),
                          DomainName::must("admin.example.com"), 7, 3600, 600,
                          86400, 300}},
        RdataCase{"ptr", PtrData{DomainName::must("host.example.com")}},
        RdataCase{"mx", MxData{10, DomainName::must("mail.example.com")}},
        RdataCase{"txt", TxtData{"v=spf1 -all"}},
        RdataCase{"aaaa", AaaaData{{0x20, 0x01, 0x0d, 0xb8}}}),
    [](const auto& info) { return info.param.label; });

TEST(Codec, LongTxtChunking) {
  // TXT strings over 255 octets must be chunked and reassembled.
  TxtData txt{std::string(700, 'x')};
  Message msg = make_response(sample_query(), RCode::NoError);
  msg.answers.push_back(
      ResourceRecord{DomainName::must("t.example.com"), RRClass::IN, 60, txt});
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<TxtData>(decoded->answers[0].rdata).text,
            std::string(700, 'x'));
}

TEST(Codec, CompressionShrinksRepeatedNames) {
  Message msg = make_response(sample_query(), RCode::NoError);
  for (int i = 0; i < 5; ++i) {
    msg.answers.push_back(make_a(DomainName::must("www.example.com"),
                                 IPv4{static_cast<std::uint32_t>(i)}, 60));
  }
  const auto wire = encode(msg);
  // Uncompressed, each repeated owner name costs 17 bytes; compressed it is
  // a 2-byte pointer.  5 answers + question -> the wire must be well under
  // the uncompressed size.
  const std::size_t uncompressed_estimate =
      12 + (17 + 4) + 5 * (17 + 10 + 4);
  EXPECT_LT(wire.size(), uncompressed_estimate - 4 * 15);
  const auto decoded = decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, msg);
}

class TruncationTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TruncationTest, TruncatedMessagesRejectedNotCrash) {
  Message msg = make_response(sample_query(), RCode::NoError);
  msg.answers.push_back(
      make_a(DomainName::must("www.example.com"), IPv4{0x7f000001}, 60));
  const auto wire = encode(msg);
  const std::size_t cut = GetParam();
  if (cut >= wire.size()) GTEST_SKIP();
  const auto decoded =
      decode(std::span<const std::uint8_t>(wire.data(), cut));
  EXPECT_FALSE(decoded.has_value());
}

INSTANTIATE_TEST_SUITE_P(Sweep, TruncationTest,
                         ::testing::Values(0, 1, 5, 11, 13, 20, 29, 33, 40,
                                           45, 50));

TEST(Codec, CompressionPointerLoopRejected) {
  // Craft a packet whose qname pointer points at itself.
  std::vector<std::uint8_t> wire = {
      0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xc0, 0x0c,  // pointer to offset 12 = itself
      0x00, 0x01, 0x00, 0x01,
  };
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(Codec, ForwardCompressionPointerRejected) {
  // The qname points forward at a well-formed name ("x.") later in the
  // packet.  Only backward pointers are legal; the encoder never emits any
  // other kind.
  std::vector<std::uint8_t> wire = {
      0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xc0, 0x12,  // pointer to offset 18, past itself
      0x00, 0x01, 0x00, 0x01,
      0x01, 'x',  0x00,  // offset 18: "x."
  };
  EXPECT_FALSE(decode(wire).has_value());
  // The same name reached through a backward pointer decodes.
  std::vector<std::uint8_t> backward = {
      0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01, 'x',  0x00,  0x00, 0x01, 0x00, 0x01,  // offset 12: "x." A IN
      0xc0, 0x0c,  0x00, 0x01, 0x00, 0x01,        // pointer to offset 12
  };
  const auto decoded = decode(backward);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->questions.size(), 2u);
  EXPECT_EQ(decoded->questions[1].name, DomainName::must("x"));
}

TEST(Codec, ReservedLabelTagsRejected) {
  std::vector<std::uint8_t> wire = {
      0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x80, 0x01, 'x',  0x00,  // 0b10xxxxxx tag is reserved
      0x00, 0x01, 0x00, 0x01,
  };
  EXPECT_FALSE(decode(wire).has_value());
}

// ------------------------------------------------------- decode name limits

/// A one-question query whose qname is the raw label octets `labels`
/// (length-prefixed, root octet appended here).
std::vector<std::uint8_t> query_with_raw_qname(
    const std::vector<std::uint8_t>& labels) {
  std::vector<std::uint8_t> wire = {0x00, 0x01, 0x01, 0x00, 0x00, 0x01,
                                    0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  for (const std::uint8_t b : labels) wire.push_back(b);
  for (const int b : {0x00, 0x00, 0x01, 0x00, 0x01}) {
    wire.push_back(static_cast<std::uint8_t>(b));  // root, type A, class IN
  }
  return wire;
}

/// Label octets for labels of the given lengths, each filled with `fill`.
std::vector<std::uint8_t> raw_labels(std::initializer_list<std::size_t> lengths,
                                     char fill = 'a') {
  std::vector<std::uint8_t> out;
  for (const std::size_t len : lengths) {
    out.push_back(static_cast<std::uint8_t>(len));
    out.insert(out.end(), len, static_cast<std::uint8_t>(fill));
  }
  return out;
}

TEST(CodecNameLimits, Accepts255WireOctetsRejects256) {
  // 3 x (1 + 63) + (1 + 61) + root = 255.
  const auto at_limit = decode(query_with_raw_qname(raw_labels({63, 63, 63, 61})));
  ASSERT_TRUE(at_limit.has_value());
  EXPECT_EQ(at_limit->questions[0].name.wire_length(), 255u);
  EXPECT_EQ(at_limit->questions[0].name.to_string().size(), 253u);
  // One more octet: 256.
  EXPECT_FALSE(
      decode(query_with_raw_qname(raw_labels({63, 63, 63, 62}))).has_value());
  // The same limit reached through a compression pointer: a 255-octet
  // owner is fine, a one-label prefix on top of it is not.
  Message msg = make_query(1, at_limit->questions[0].name);
  const auto wire = encode(msg);
  ASSERT_TRUE(decode(wire).has_value());
  auto over = wire;
  over[5] = 2;  // qdcount 2
  for (const int b : {0x01, int{'x'}, 0xc0, 0x0c, 0x00, 0x01, 0x00, 0x01}) {
    over.push_back(static_cast<std::uint8_t>(b));
  }
  EXPECT_FALSE(decode(over).has_value());
}

TEST(CodecNameLimits, RejectsDotAndControlBytesInLabels) {
  for (const int bad : {int{'.'}, 0x00, 0x01, 0x09, int{' '}, 0x7f, 0x80, 0xff}) {
    const std::vector<std::uint8_t> labels = {
        3, 'a', static_cast<std::uint8_t>(bad), 'b', 3, 'c', 'o', 'm'};
    EXPECT_FALSE(decode(query_with_raw_qname(labels)).has_value())
        << "byte " << bad;
  }
  // Every other printable byte, including '_', '*' and '!', is accepted.
  for (const char ok : {'_', '*', '!', '~', '-', '/'}) {
    const std::vector<std::uint8_t> labels = {
        3, 'a', static_cast<std::uint8_t>(ok), 'b', 3, 'c', 'o', 'm'};
    EXPECT_TRUE(decode(query_with_raw_qname(labels)).has_value())
        << "byte " << ok;
  }
}

TEST(CodecNameLimits, UppercaseLabelsAreLowercased) {
  const std::vector<std::uint8_t> labels = {3, 'W', 'w', 'W', 7, 'E', 'x', 'A',
                                            'm', 'P', 'l', 'E', 3, 'C', 'O', 'M'};
  const auto decoded = decode(query_with_raw_qname(labels));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->questions[0].name, DomainName::must("www.example.com"));
  EXPECT_EQ(decoded->questions[0].name.to_string(), "www.example.com");
  // Re-encoding emits the lowercased bytes.
  const auto wire = encode(*decoded);
  const std::vector<std::uint8_t> lower = {3, 'w', 'w', 'w', 7, 'e', 'x', 'a',
                                           'm', 'p', 'l', 'e', 3, 'c', 'o', 'm',
                                           0};
  ASSERT_GE(wire.size(), 12 + lower.size());
  EXPECT_TRUE(std::equal(lower.begin(), lower.end(), wire.begin() + 12));
}

TEST(CodecNameLimits, LongNamesDecode) {
  // 100 label octets: longer than any inline buffer a name might keep.
  const auto decoded = decode(query_with_raw_qname(raw_labels({40, 40, 17}, 'Q')));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->questions[0].name,
            DomainName::must(std::string(40, 'q') + "." + std::string(40, 'q') +
                             "." + std::string(17, 'q')));
}

TEST(CodecNameLimits, RoundTripsNamesAroundSixtyOctets) {
  // Owner, NS target, SOA names and NSEC next of 50..76 label octets, with
  // shared suffixes so compression pointers land inside long names.
  for (std::size_t octets = 50; octets <= 76; ++octets) {
    // "x...x.example.com": 1 + n + 8 + 4 label octets.
    const std::size_t n = octets - 13;
    const auto owner =
        DomainName::must(std::string(n, 'x') + ".example.com");
    ASSERT_EQ(owner.wire_length(), octets + 1);
    Message msg = make_response(make_query(7, owner), RCode::NXDomain);
    msg.answers.push_back(make_ns(owner, *owner.child("ns1")));
    SoaData soa;
    soa.mname = owner;
    soa.rname = *owner.parent().child(std::string(n, 'h'));
    msg.authorities.push_back(make_soa(owner.parent(), soa));
    msg.authorities.push_back(make_nsec(owner, *owner.child("a")));
    const auto decoded = decode(encode(msg));
    ASSERT_TRUE(decoded.has_value()) << octets;
    EXPECT_EQ(*decoded, msg) << octets;
  }
}

TEST(Codec, FlagsRoundTrip) {
  Message msg = sample_query();
  msg.header.rd = false;
  msg.header.opcode = Opcode::Status;
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->header.rd);
  EXPECT_EQ(decoded->header.opcode, Opcode::Status);
}

TEST(Codec, GarbageInputRejected) {
  std::vector<std::uint8_t> garbage(40, 0xff);
  EXPECT_FALSE(decode(garbage).has_value());
  EXPECT_FALSE(decode(std::span<const std::uint8_t>{}).has_value());
}

TEST(ToString, RcodesAndTypes) {
  EXPECT_EQ(to_string(RCode::NXDomain), "NXDOMAIN");
  EXPECT_EQ(to_string(RCode::NoError), "NOERROR");
  EXPECT_EQ(to_string(RRType::A), "A");
  EXPECT_EQ(to_string(RRType::SOA), "SOA");
}

TEST(ResourceRecord, ToStringReadable) {
  const auto rr = make_a(DomainName::must("x.com"), *IPv4::parse("1.2.3.4"), 60);
  EXPECT_EQ(rr.to_string(), "x.com 60 IN A 1.2.3.4");
}

}  // namespace
}  // namespace nxd::dns
