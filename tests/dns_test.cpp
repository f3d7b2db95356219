// Unit tests for nxd::dns — names, records, and the wire codec.
#include <gtest/gtest.h>

#include "dns/message.hpp"
#include "dns/name.hpp"
#include "dns/record.hpp"

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

TEST(IPv4, OctetsAndReverseName) {
  const auto ip = IPv4::from_octets(192, 0, 2, 55);
  EXPECT_EQ(ip.octet(0), 192);
  EXPECT_EQ(ip.octet(3), 55);
  EXPECT_EQ(ip.reverse_name().to_string(), "55.2.0.192.in-addr.arpa");
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
