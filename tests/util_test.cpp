// Unit tests for nxd::util — RNG, byte codec, strings, calendar, histograms.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crc32c_oracle.hpp"
#include "damerau_oracle.hpp"
#include "util/bytes.hpp"
#include "util/checked_io.hpp"
#include "util/civil_time.hpp"
#include "util/crc32c.hpp"
#include "util/crc32c_portable.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace nxd::util {
namespace {

// ----------------------------------------------------------------- Rng

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 500; ++i) {
      EXPECT_LT(rng.bounded(bound), bound);
    }
  }
}

TEST(Rng, BoundedZeroYieldsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(17);
  for (const double lambda : {0.5, 3.0, 20.0, 200.0}) {
    double sum = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(lambda));
    EXPECT_NEAR(sum / n, lambda, lambda * 0.1 + 0.1) << "lambda=" << lambda;
  }
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(42);
  Rng child_a = parent.fork("a");
  Rng child_b = parent.fork("b");
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child_a.next() == child_b.next()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(DiscreteSampler, RespectsWeights) {
  DiscreteSampler sampler({1.0, 0.0, 3.0});
  Rng rng(5);
  std::array<int, 3> counts{};
  for (int i = 0; i < 40000; ++i) counts[sampler.sample(rng)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
}

TEST(ZipfSampler, RankOneDominates) {
  ZipfSampler sampler(20, 1.0);
  Rng rng(6);
  std::array<int, 21> counts{};
  for (int i = 0; i < 20000; ++i) counts[sampler.sample(rng)]++;
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[5]);
  EXPECT_GT(counts[5], counts[20]);
}

TEST(Fnv1a, KnownValues) {
  // FNV-1a 64 reference: empty string hashes to the offset basis.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
  EXPECT_EQ(fnv1a("example.com"), fnv1a("example.com"));
}

// ----------------------------------------------------------------- bytes

TEST(Bytes, WriteReadRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.bytes(std::string_view("hello"));
  ByteReader r(w.view());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.str(5), "hello");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, BigEndianLayout) {
  ByteWriter w;
  w.u16(0x0102);
  EXPECT_EQ(w.data()[0], 0x01);
  EXPECT_EQ(w.data()[1], 0x02);
}

TEST(Bytes, ReaderOverrunSetsFailure) {
  const std::uint8_t data[] = {1, 2};
  ByteReader r({data, 2});
  r.u16();
  EXPECT_TRUE(r.ok());
  r.u8();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u32(), 0u);  // failed reader keeps returning zeros
}

TEST(Bytes, PatchU16) {
  ByteWriter w;
  w.u16(0);
  w.u32(99);
  w.patch_u16(0, 0xbeef);
  ByteReader r(w.view());
  EXPECT_EQ(r.u16(), 0xbeef);
}

TEST(Bytes, SeekOutOfRangeFails) {
  const std::uint8_t data[] = {1};
  ByteReader r({data, 1});
  r.seek(5);
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, ToHex) {
  const std::uint8_t data[] = {0x00, 0xff, 0x1a};
  EXPECT_EQ(to_hex({data, 3}), "00ff1a");
  EXPECT_EQ(to_hex(std::uint64_t{0x1a}), "000000000000001a");
}

// --------------------------------------------------------------- strings

TEST(Strings, ToLowerAndIequals) {
  EXPECT_EQ(to_lower("ExAmPlE.COM"), "example.com");
  EXPECT_TRUE(iequals("Example.COM", "example.com"));
  EXPECT_FALSE(iequals("example.com", "example.org"));
  EXPECT_FALSE(iequals("abc", "abcd"));
}

TEST(Strings, Split) {
  const auto parts = split("a.b..c", '.');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  const auto nonempty = split_nonempty("a.b..c", '.');
  ASSERT_EQ(nonempty.size(), 3u);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x \r\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("abcdef", "abc"));
  EXPECT_FALSE(starts_with("ab", "abc"));
  EXPECT_TRUE(ends_with("crawl.googlebot.com", ".googlebot.com"));
  EXPECT_FALSE(ends_with("x", "xy"));
}

struct EditCase {
  const char* a;
  const char* b;
  std::size_t damerau;
};

class EditDistanceTest : public ::testing::TestWithParam<EditCase> {};

TEST_P(EditDistanceTest, Distances) {
  const auto& c = GetParam();
  EXPECT_EQ(oracle::damerau_distance(c.a, c.b), c.damerau);
  EXPECT_EQ(oracle::damerau_distance(c.b, c.a), c.damerau);  // symmetry
  EXPECT_EQ(is_one_edit(c.a, c.b), c.damerau == 1);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EditDistanceTest,
    ::testing::Values(EditCase{"", "", 0}, EditCase{"a", "", 1},
                      EditCase{"abc", "abc", 0}, EditCase{"abc", "abd", 1},
                      EditCase{"abc", "acb", 1},  // transposition
                      EditCase{"google", "gogle", 1},
                      EditCase{"google", "googel", 1},
                      EditCase{"kitten", "sitting", 3},
                      EditCase{"paypal", "paypa1", 1}));

TEST(Strings, IsOneEditIsDamerauDistanceOne) {
  // Every string of length 0-5 over {a, b, c}: 364 strings, every ordered
  // pair, covering empty and equal strings, swaps and length gaps of 2+.
  std::vector<std::string> words = {""};
  for (std::size_t begin = 0, len = 1; len <= 5; ++len) {
    const std::size_t end = words.size();
    for (std::size_t i = begin; i < end; ++i) {
      for (const char c : {'a', 'b', 'c'}) words.push_back(words[i] + c);
    }
    begin = end;
  }
  ASSERT_EQ(words.size(), 364u);
  std::size_t ones = 0;
  for (const auto& a : words) {
    for (const auto& b : words) {
      const bool want = oracle::damerau_distance(a, b) == 1;
      ASSERT_EQ(is_one_edit(a, b), want) << '"' << a << "\" vs \"" << b << '"';
      ones += want ? 1 : 0;
    }
  }
  EXPECT_GT(ones, 0u);
  EXPECT_TRUE(is_one_edit("google", "googel"));
  EXPECT_FALSE(is_one_edit("google", "google"));
  EXPECT_FALSE(is_one_edit("google", "gogl"));
}

TEST(Strings, UrlDecode) {
  EXPECT_EQ(url_decode("a%20b"), "a b");
  EXPECT_EQ(url_decode("%2B1555"), "+1555");
  EXPECT_EQ(url_decode("a+b"), "a b");
  EXPECT_EQ(url_decode("100%"), "100%");    // broken escape passes through
  EXPECT_EQ(url_decode("%zz"), "%zz");
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(std::uint64_t{0}), "0");
  EXPECT_EQ(with_commas(std::uint64_t{999}), "999");
  EXPECT_EQ(with_commas(std::uint64_t{1000}), "1,000");
  EXPECT_EQ(with_commas(std::uint64_t{5925311}), "5,925,311");
  EXPECT_EQ(with_commas(std::uint64_t{146363745785ULL}), "146,363,745,785");
  EXPECT_EQ(with_commas(std::int64_t{-1234}), "-1,234");
}

// ------------------------------------------------------------ civil time

TEST(CivilTime, KnownEpochs) {
  EXPECT_EQ(to_day(CivilDate{1970, 1, 1}), 0);
  EXPECT_EQ(to_day(CivilDate{1970, 1, 2}), 1);
  EXPECT_EQ(to_day(CivilDate{2000, 3, 1}), 11017);
}

class CivilRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CivilRoundTrip, DayToDateToDay) {
  // Sweep days across 1970-2100 at varying strides; conversion must be
  // an exact bijection.
  const Day start = GetParam();
  for (Day d = start; d < start + 500; d += 7) {
    const CivilDate date = from_day(d);
    EXPECT_EQ(to_day(date), d);
    EXPECT_GE(date.month, 1u);
    EXPECT_LE(date.month, 12u);
    EXPECT_GE(date.day, 1u);
    EXPECT_LE(date.day, 31u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CivilRoundTrip,
                         ::testing::Values(0, 10000, 16000, 19000, 25000,
                                           40000));

TEST(CivilTime, LeapYearHandling) {
  EXPECT_EQ(to_day(CivilDate{2020, 3, 1}) - to_day(CivilDate{2020, 2, 28}), 2);
  EXPECT_EQ(to_day(CivilDate{2021, 3, 1}) - to_day(CivilDate{2021, 2, 28}), 1);
  EXPECT_EQ(to_day(CivilDate{2000, 3, 1}) - to_day(CivilDate{2000, 2, 28}), 2);
  EXPECT_EQ(to_day(CivilDate{1900, 3, 1}) - to_day(CivilDate{1900, 2, 28}), 1);
}

TEST(CivilTime, MonthIndex) {
  const Day d = to_day(CivilDate{2021, 7, 15});
  EXPECT_EQ(month_index(d), 2021 * 12 + 6);
  EXPECT_EQ(format_month(month_index(d)), "2021-07");
}

TEST(CivilTime, OutOfRangeDaysClampToTheEdgeDate) {
  // A decoded pdns frame can carry any day index; the far edges clamp
  // instead of overflowing the year arithmetic.
  constexpr Day kLimit = Day{1} << 39;
  constexpr Day kMax = std::numeric_limits<Day>::max();
  constexpr Day kMin = std::numeric_limits<Day>::min();
  EXPECT_EQ(from_day(kMax), from_day(kLimit));
  EXPECT_EQ(from_day(kMin), from_day(-kLimit));
  EXPECT_EQ(to_day(from_day(kLimit)), kLimit);
  EXPECT_EQ(to_day(from_day(-kLimit)), -kLimit);
  EXPECT_GT(month_index(kMax), month_index(0));
  EXPECT_LT(month_index(kMin), month_index(0));
}

TEST(SimClock, AdvanceAndToday) {
  SimClock clock(0);
  clock.advance_days(3);
  EXPECT_EQ(clock.today(), 3);
  clock.advance(kSecondsPerDay / 2);
  EXPECT_EQ(clock.today(), 3);
  clock.advance(kSecondsPerDay / 2);
  EXPECT_EQ(clock.today(), 4);
}

// -------------------------------------------------------------- histogram

TEST(Counter, TopOrderingDeterministic) {
  Counter c;
  c.add("b", 5);
  c.add("a", 5);
  c.add("z", 10);
  const auto top = c.top();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, "z");
  EXPECT_EQ(top[1].first, "a");  // tie broken lexicographically
  EXPECT_EQ(top[2].first, "b");
  EXPECT_EQ(c.total(), 20u);
  EXPECT_EQ(c.get("missing"), 0u);
}

TEST(BucketHistogram, ClampsAndCounts) {
  BucketHistogram h(0, 60, 10);
  EXPECT_EQ(h.bucket_count(), 6u);
  h.add(5);
  h.add(59);
  h.add(-10);   // clamps to first
  h.add(1000);  // clamps to last
  EXPECT_EQ(h.at(0), 2u);
  EXPECT_EQ(h.at(5), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bucket_lo(1), 10);
}

TEST(RunningStats, WelfordMatchesDirect) {
  RunningStats s;
  const double xs[] = {1, 2, 3, 4, 100};
  for (const double x : xs) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_NEAR(s.mean(), 22.0, 1e-9);
  EXPECT_NEAR(s.variance(), 1902.5, 1e-6);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 100.0);
}

// ------------------------------------------------------------------ table

TEST(Table, RendersAlignedAscii) {
  Table t({"name", "count"});
  t.row("alpha", 10);
  t.row("b", 2000);
  std::ostringstream os;
  t.render(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| alpha |"), std::string::npos);
  EXPECT_NE(s.find("2000"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvEscapesQuotesAndCommas) {
  Table t({"k", "v"});
  t.row("a,b", "say \"hi\"");
  std::ostringstream os;
  t.render_csv(os);
  EXPECT_NE(os.str().find("\"a,b\""), std::string::npos);
  EXPECT_NE(os.str().find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, Helpers) {
  EXPECT_EQ(pct_str(79, 100), "79.0%");
  EXPECT_EQ(pct_str(1, 0), "n/a");
  EXPECT_EQ(ratio_str(2, 1), "2.00x");
  EXPECT_EQ(ratio_str(1, 0), "n/a");
}

// -------------------------------------------------------------- crc32c

TEST(Crc32c, Rfc3720ReferenceVectors) {
  // RFC 3720 §B.4 test vectors — these pin the Castagnoli polynomial, the
  // reflected bit order, and the init/final inversion all at once.  Any
  // change to the table generator breaks every WAL and snapshot on disk, so
  // these must never be "updated".
  const std::vector<std::uint8_t> zeros(32, 0x00);
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);

  const std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(crc32c(ones), 0x62A8AB43u);

  std::vector<std::uint8_t> ascending(32);
  for (std::size_t i = 0; i < 32; ++i) ascending[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(crc32c(ascending), 0x46DD794Eu);

  std::vector<std::uint8_t> descending(32);
  for (std::size_t i = 0; i < 32; ++i) {
    descending[i] = static_cast<std::uint8_t>(31 - i);
  }
  EXPECT_EQ(crc32c(descending), 0x113FDB5Cu);
}

TEST(Crc32c, CheckStringPinsPolynomial) {
  // The classic CRC "check" input.  0xE3069283 is CRC-32C; the zlib CRC-32
  // (polynomial 0x04C11DB7) gives 0xCBF43926 for the same input — asserting
  // both directions catches an accidental polynomial swap.
  EXPECT_EQ(crc32c(std::string_view("123456789")), 0xE3069283u);
  EXPECT_NE(crc32c(std::string_view("123456789")), 0xCBF43926u);
}

TEST(Crc32c, StreamingEqualsOneShot) {
  Rng rng(404);
  std::vector<std::uint8_t> data(4096);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());

  const std::uint32_t whole = crc32c(data);
  for (const std::size_t split :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{64},
        std::size_t{4095}, std::size_t{4096}}) {
    std::uint32_t acc = crc32c(0, std::span(data).subspan(0, split));
    acc = crc32c(acc, std::span(data).subspan(split));
    EXPECT_EQ(acc, whole) << "split=" << split;
  }
}

TEST(Crc32c, EmptyInputAndSingleBitSensitivity) {
  EXPECT_EQ(crc32c(std::span<const std::uint8_t>{}), 0u);
  std::vector<std::uint8_t> data{0x00};
  const auto base = crc32c(data);
  for (int bit = 0; bit < 8; ++bit) {
    data[0] = static_cast<std::uint8_t>(1u << bit);
    EXPECT_NE(crc32c(data), base) << "bit=" << bit;
  }
}

// Both CRC32C bodies against the bitwise reference: util::crc32c, which on
// an SSE4.2 CPU runs the crc32 instruction, and the portable tables compiled
// into this test from util/crc32c_portable.hpp, which it falls back to
// elsewhere.  Every length 0..4096 at every start offset 0..7 covers the
// 8-byte word loop, each tail length and unaligned starts.
TEST(Crc32c, BothPathsMatchBitwiseReferenceAtEveryLengthAndOffset) {
  Rng rng(2718);
  std::vector<std::uint8_t> data(4096 + 8);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());

  for (std::size_t offset = 0; offset < 8; ++offset) {
    std::uint32_t want = oracle::crc32c_bitwise(0, {});
    for (std::size_t len = 0; len <= 4096; ++len) {
      const auto input = std::span(data).subspan(offset, len);
      if (len > 0) want = oracle::crc32c_bitwise(want, input.subspan(len - 1));
      ASSERT_EQ(crc32c(0, input), want) << "offset=" << offset << " len=" << len;
      ASSERT_EQ(crc32c_portable(0, input), want)
          << "offset=" << offset << " len=" << len;
    }
  }
}

TEST(Crc32c, StreamedSplitsEqualOneShotOnBothPaths) {
  Rng rng(1618);
  std::vector<std::uint8_t> data(1031);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  const auto whole = std::span<const std::uint8_t>(data);
  const std::uint32_t want = oracle::crc32c_bitwise(0, whole);

  for (std::size_t split = 0; split <= data.size(); ++split) {
    const auto a = whole.subspan(0, split);
    const auto b = whole.subspan(split);
    EXPECT_EQ(crc32c(crc32c(0, a), b), want) << "split=" << split;
    EXPECT_EQ(crc32c_portable(crc32c_portable(0, a), b), want)
        << "split=" << split;
    // The paths continue each other's partial checksums.
    EXPECT_EQ(crc32c_portable(crc32c(0, a), b), want) << "split=" << split;
    EXPECT_EQ(crc32c(crc32c_portable(0, a), b), want) << "split=" << split;
  }
}

// ------------------------------------------------------------- read_file

TEST(ReadFile, ErrorIsNotAnEmptyFile) {
  const std::string dir = ::testing::TempDir() + "nxd_util_read_file";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // A path that opens but cannot be read as a file (read(2) gives EISDIR).
  EXPECT_FALSE(read_file(dir).has_value());
  EXPECT_FALSE(read_file_checked(dir).has_value());
  EXPECT_FALSE(read_file(dir + "/missing").has_value());

  // An empty regular file is a clean, engaged, empty read.
  const std::string empty = dir + "/empty";
  std::ofstream(empty, std::ios::binary).close();
  const auto none = read_file(empty);
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->empty());

  const std::string path = dir + "/bytes";
  std::vector<std::uint8_t> want(200'000);
  Rng rng(99);
  for (auto& b : want) b = static_cast<std::uint8_t>(rng.next());
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(want.data()),
             static_cast<std::streamsize>(want.size()));
  EXPECT_EQ(read_file(path), want);
}

}  // namespace
}  // namespace nxd::util
