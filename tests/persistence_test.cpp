// Tests for persistence and reporting: pdns snapshots, the durable store's
// directory handling, and the Markdown report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "snapshot_oracle.hpp"

#include "analysis/report.hpp"
#include "analysis/scale.hpp"
#include "pdns/durable_store.hpp"
#include "pdns/sharded_store.hpp"
#include "pdns/sie_channel.hpp"
#include "pdns/snapshot.hpp"
#include "pdns/wal.hpp"
#include "synth/scale_models.hpp"
#include "util/bytes.hpp"
#include "util/checked_io.hpp"
#include "util/worker_pool.hpp"

namespace nxd {
namespace {

using dns::DomainName;

// ---------------------------------------------------------------- snapshot

TEST(Snapshot, RoundTripPreservesEveryQuerySurface) {
  pdns::PassiveDnsStore original;
  synth::fill_store_with_history(original, 2e-9, 7);
  // Mix in an OK observation and a sensor spread.
  pdns::Observation ok;
  ok.name = DomainName::must("alive.com");
  ok.rcode = dns::RCode::NoError;
  ok.when = 1'000'000;
  ok.sensor.cls = pdns::SensorClass::Academia;
  original.ingest(ok);

  const auto bytes = pdns::save_snapshot(original);
  ASSERT_FALSE(bytes.empty());
  const auto restored = pdns::load_snapshot(bytes);
  ASSERT_TRUE(restored.has_value());

  EXPECT_EQ(restored->total_observations(), original.total_observations());
  EXPECT_EQ(restored->nx_responses(), original.nx_responses());
  EXPECT_EQ(restored->distinct_nxdomains(), original.distinct_nxdomains());
  EXPECT_EQ(restored->distinct_domains(), original.distinct_domains());
  EXPECT_EQ(restored->monthly_nx_series(), original.monthly_nx_series());
  EXPECT_EQ(restored->domain_names_sorted(), original.domain_names_sorted());
  EXPECT_EQ(restored->sensor_volume().get("academia"),
            original.sensor_volume().get("academia"));

  // Per-domain aggregates including daily series.
  for (const auto& name : original.domain_names_sorted()) {
    const auto* a = original.domain(name);
    const auto* b = restored->domain(name);
    ASSERT_NE(b, nullptr) << name;
    EXPECT_EQ(a->first_seen, b->first_seen);
    EXPECT_EQ(a->first_nx_seen, b->first_nx_seen);
    EXPECT_EQ(a->nx_queries, b->nx_queries);
    EXPECT_EQ(a->ok_queries, b->ok_queries);
    EXPECT_EQ(a->daily_nx, b->daily_nx);
  }
  // TLD index.
  EXPECT_EQ(restored->top_tlds(10).size(), original.top_tlds(10).size());
  for (std::size_t i = 0; i < original.top_tlds(10).size(); ++i) {
    EXPECT_EQ(restored->top_tlds(10)[i].first, original.top_tlds(10)[i].first);
    EXPECT_EQ(restored->top_tlds(10)[i].second.nx_queries,
              original.top_tlds(10)[i].second.nx_queries);
  }
}

// ------------------------------------------------------- golden snapshot
//
// The v2 snapshot encoding is pinned byte-for-byte: a hand-built store of
// six observations must serialize to exactly this blob, forever.  If this
// test fails the wire format changed — bump the version and write a
// migration instead of editing the hex.

std::vector<std::uint8_t> hex_decode(std::string_view hex) {
  auto nibble = [](char c) -> std::uint8_t {
    return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  std::vector<std::uint8_t> out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>((nibble(hex[i]) << 4) | nibble(hex[i + 1])));
  }
  return out;
}

pdns::PassiveDnsStore golden_store() {
  pdns::PassiveDnsStore store;
  auto obs = [](const char* name, util::Day day, dns::RCode rcode,
                pdns::SensorClass cls, std::uint16_t index) {
    pdns::Observation o;
    o.name = DomainName::must(name);
    o.rcode = rcode;
    o.when = day * util::kSecondsPerDay;
    o.sensor.cls = cls;
    o.sensor.index = index;
    return o;
  };
  using dns::RCode;
  using pdns::SensorClass;
  store.ingest(obs("gone.example.com", 100, RCode::NXDomain, SensorClass::Isp, 1));
  store.ingest(obs("gone.example.com", 131, RCode::NXDomain, SensorClass::Enterprise, 2));
  store.ingest(obs("typo-fb.net", 100, RCode::NXDomain, SensorClass::Academia, 0));
  store.ingest(obs("alive.org", 115, RCode::NoError, SensorClass::Research, 3));
  store.ingest(obs("flaky.io", 131, RCode::ServFail, SensorClass::Isp, 1));
  store.ingest(obs("dga-x1.top", 132, RCode::NXDomain, SensorClass::Isp, 1));
  return store;
}

// Captured from save_snapshot(golden_store()); 486 bytes.
constexpr const char* kGoldenSnapshotHex =
    "4e58445000020001000000000000000600000000000000040000000000000003"
    "0000000000000001000000024000000000005c5b000000000000000240000000"
    "00005c5c00000000000000020000000303636f6d000000000000000200000000"
    "00000001036e65740000000000000001000000000000000103746f7000000000"
    "000000010000000000000001000000040009616c6976652e6f72674000000000"
    "0000734000000000000073bfffffffffffffff00000000000000000000000000"
    "00000100000000000a6467612d78312e746f7040000000000000844000000000"
    "0000844000000000000084000000000000000100000000000000000000000140"
    "0000000000008400000001000b6578616d706c652e636f6d4000000000000064"
    "4000000000000083400000000000006400000000000000020000000000000000"
    "00000002400000000000006400000001400000000000008300000001000b7479"
    "706f2d66622e6e65744000000000000064400000000000006440000000000000"
    "6400000000000000010000000000000000000000014000000000000064000000"
    "01000000040369737000000000000000030861636164656d6961000000000000"
    "00010a656e746572707269736500000000000000010872657365617263680000"
    "000000000001";

TEST(Snapshot, GoldenBlobIsStable) {
  const auto golden = hex_decode(kGoldenSnapshotHex);
  ASSERT_EQ(golden.size(), 486u);
  EXPECT_EQ(pdns::save_snapshot(golden_store()), golden)
      << "snapshot v2 serialization changed; this breaks every store "
         "persisted by earlier builds";
}

TEST(Snapshot, GoldenBlobRoundTripsThroughLoad) {
  const auto golden = hex_decode(kGoldenSnapshotHex);
  const auto restored = pdns::load_snapshot(golden);
  ASSERT_TRUE(restored.has_value());
  // load -> save is the identity on the golden bytes...
  EXPECT_EQ(pdns::save_snapshot(*restored), golden);
  // ...and the restored aggregates match the hand-built store.
  const auto expect = golden_store();
  EXPECT_EQ(restored->total_observations(), expect.total_observations());
  EXPECT_EQ(restored->nx_responses(), 4u);
  EXPECT_EQ(restored->servfail_responses(), 1u);
  EXPECT_EQ(restored->distinct_nxdomains(), 3u);
  EXPECT_EQ(restored->domain_names_sorted(), expect.domain_names_sorted());
}

TEST(Snapshot, CorruptInputRejected) {
  pdns::PassiveDnsStore store;
  synth::fill_store_with_history(store, 1e-9, 3);
  auto bytes = pdns::save_snapshot(store);

  EXPECT_FALSE(pdns::load_snapshot({}).has_value());
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(pdns::load_snapshot(bad_magic).has_value());
  auto truncated = bytes;
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(pdns::load_snapshot(truncated).has_value());
  auto trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(pdns::load_snapshot(trailing).has_value());
}

// A hand-built v2 snapshot holding the given month, TLD and domain keys in
// the order given.  Each domain saw one NXDomain response on each of its
// days; the totals and its nx_queries count those responses, while its
// daily series records `day_count` for each day.
struct HandDomain {
  std::string name;
  std::vector<util::Day> days;
  std::uint32_t day_count = 1;
};
std::vector<std::uint8_t> hand_built_snapshot(
    const std::vector<std::int64_t>& months,
    const std::vector<std::string>& tlds,
    const std::vector<HandDomain>& domains) {
  util::ByteWriter w;
  auto u64 = [&w](std::uint64_t v) {
    w.u32(static_cast<std::uint32_t>(v >> 32));
    w.u32(static_cast<std::uint32_t>(v));
  };
  auto biased = [](std::int64_t v) {
    return static_cast<std::uint64_t>(v) + (1ULL << 62);
  };
  std::uint64_t responses = 0;
  for (const auto& d : domains) responses += d.days.size();
  w.u32(0x4e584450);  // "NXDP"
  w.u16(2);           // version
  w.u16(1);           // track_daily
  u64(responses);     // total
  u64(responses);     // nx_responses
  u64(domains.size());  // distinct_nx
  u64(0);             // servfail_responses
  w.u32(static_cast<std::uint32_t>(months.size()));
  for (const auto month : months) {
    u64(biased(month));
    u64(1);
  }
  w.u32(static_cast<std::uint32_t>(tlds.size()));
  for (const auto& tld : tlds) {
    w.u8(static_cast<std::uint8_t>(tld.size()));
    w.bytes(tld);
    u64(1);
    u64(1);
  }
  w.u32(static_cast<std::uint32_t>(domains.size()));
  for (const auto& d : domains) {
    w.u16(static_cast<std::uint16_t>(d.name.size()));
    w.bytes(d.name);
    u64(biased(d.days.front()));
    u64(biased(d.days.back()));
    u64(biased(d.days.front()));
    u64(d.days.size());  // nx_queries
    u64(0);              // ok_queries
    w.u32(static_cast<std::uint32_t>(d.days.size()));
    for (const auto day : d.days) {
      u64(biased(day));
      w.u32(d.day_count);
    }
  }
  w.u32(0);  // no sensors
  return std::move(w).take();
}

TEST(Snapshot, RepeatedKeysRejected) {
  // Loading a repeated key would merge its entries silently: the store
  // would hold fewer domains (or days, months, TLDs) than the snapshot has
  // entries, and its counters would no longer sum.  save_snapshot writes
  // every keyed section in strictly ascending order, so anything else is
  // corruption.
  const std::vector<std::int64_t> months = {100, 101};
  const std::vector<std::string> tlds = {"com", "net"};
  const std::vector<HandDomain> domains = {{"a.com", {3040, 3041}},
                                           {"b.net", {3070}}};
  const auto good = pdns::load_snapshot(hand_built_snapshot(months, tlds, domains));
  ASSERT_TRUE(good.has_value()) << "the well-formed hand-built snapshot must load";
  EXPECT_EQ(good->distinct_domains(), 2u);
  EXPECT_EQ(good->domain("a.com")->daily_nx.size(), 2u);

  auto repeated_domain = domains;
  // An rvalue copy: inserting domains[0] by reference trips a GCC 12
  // -Warray-bounds false positive in this file.
  repeated_domain.insert(repeated_domain.begin() + 1, HandDomain{domains[0]});
  EXPECT_FALSE(pdns::load_snapshot(hand_built_snapshot(months, tlds, repeated_domain))
                   .has_value())
      << "a repeated domain entry loaded";

  auto repeated_day = domains;
  repeated_day[0].days = {3040, 3040, 3041};
  EXPECT_FALSE(
      pdns::load_snapshot(hand_built_snapshot(months, tlds, repeated_day)).has_value())
      << "a repeated day loaded";

  EXPECT_FALSE(
      pdns::load_snapshot(hand_built_snapshot({100, 100}, tlds, domains)).has_value())
      << "a repeated month loaded";
  EXPECT_FALSE(
      pdns::load_snapshot(hand_built_snapshot(months, {"com", "com"}, domains))
          .has_value())
      << "a repeated TLD loaded";

  auto descending = domains;
  std::swap(descending[0], descending[1]);
  EXPECT_FALSE(pdns::load_snapshot(hand_built_snapshot(months, tlds, descending))
                   .has_value())
      << "out-of-order domains loaded";
}

TEST(Snapshot, DailyCountsAboveNxQueriesRejected) {
  // Ingest and absorb keep a domain's day counts summing to its nx_queries,
  // and the selection scans skip a domain whose nx_queries is below their
  // threshold without reading its series.  That skip is exact only if no
  // month can exceed nx_queries, so the loader refuses a sum above it.
  const std::vector<std::int64_t> months = {100};
  const std::vector<std::string> tlds = {"com"};
  const std::vector<HandDomain> fewer = {{"a.com", {3040, 3041}, 0}};
  const auto loaded = pdns::load_snapshot(hand_built_snapshot(months, tlds, fewer));
  ASSERT_TRUE(loaded.has_value()) << "day counts below nx_queries must load";
  EXPECT_EQ(loaded->domain("a.com")->nx_queries, 2u);

  const std::vector<HandDomain> more = {{"a.com", {3040, 3041}, 2}};
  EXPECT_FALSE(pdns::load_snapshot(hand_built_snapshot(months, tlds, more))
                   .has_value())
      << "day counts summing to 4 loaded under nx_queries 2";
  const std::vector<HandDomain> one_day_over = {{"a.com", {3040}, 2},
                                                {"b.com", {3041}}};
  EXPECT_FALSE(pdns::load_snapshot(hand_built_snapshot(months, tlds, one_day_over))
                   .has_value())
      << "a single day count above nx_queries loaded";
}

// ---------------------------------------------------- snapshot writer oracle

/// save_snapshot(store) is byte-identical to the reference writer, loads
/// back, and the loaded store saves (by both writers) to the same bytes.
void expect_matches_oracle(const pdns::PassiveDnsStore& store,
                           const std::string& what) {
  const auto bytes = pdns::save_snapshot(store);
  ASSERT_EQ(bytes, oracle::reference_snapshot(store)) << what;
  const auto loaded = pdns::load_snapshot(bytes);
  ASSERT_TRUE(loaded.has_value()) << what;
  EXPECT_EQ(pdns::save_snapshot(*loaded), bytes) << what;
  EXPECT_EQ(oracle::reference_snapshot(*loaded), bytes) << what;
}

/// `stream` ingested through `shards` shards as 4096-observation frames,
/// then merged: intern ids come out in a shard-dependent order.
pdns::PassiveDnsStore sharded_merge(const std::vector<pdns::Observation>& stream,
                                    std::size_t shards,
                                    pdns::StoreConfig config) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t at = 0; at < stream.size(); at += 4096) {
    frames.push_back(pdns::encode_batch_frame(std::span(stream).subspan(
        at, std::min<std::size_t>(4096, stream.size() - at))));
  }
  const std::vector<std::span<const std::uint8_t>> views(frames.begin(),
                                                         frames.end());
  pdns::ShardedStore sharded(shards, config);
  util::WorkerPool pool(0);
  sharded.ingest_frames(views, pool);
  return sharded.merge();
}

TEST(SnapshotOracle, SaveMatchesReferenceAcrossSeedsShardsAndDailyTracking) {
  for (const std::uint64_t seed : {3ULL, 19ULL, 42ULL}) {
    synth::HistoryStreamConfig config;
    config.scale = 1e-7;
    config.seed = seed;
    config.ok_fraction = 0.05;
    config.servfail_fraction = 0.02;
    const auto stream = synth::NxHistoryStream(config).all();
    ASSERT_GT(stream.size(), 500u);
    for (const std::size_t shards : {1, 2, 4, 8}) {
      for (const bool track_daily : {true, false}) {
        pdns::StoreConfig store_config;
        store_config.track_daily = track_daily;
        const auto store = sharded_merge(stream, shards, store_config);
        ASSERT_GT(store.distinct_domains(), 100u);
        expect_matches_oracle(store, "seed=" + std::to_string(seed) +
                                         " shards=" + std::to_string(shards) +
                                         " daily=" + std::to_string(track_daily));
      }
    }
  }
}

TEST(SnapshotOracle, EmptyStoreMatchesReference) {
  for (const bool track_daily : {true, false}) {
    pdns::StoreConfig config;
    config.track_daily = track_daily;
    expect_matches_oracle(pdns::PassiveDnsStore(config),
                          "empty daily=" + std::to_string(track_daily));
  }
}

// Names built to break a prefix-key sort that got its ties or padding
// wrong: shared 8- and 16-byte prefixes, a name that is a prefix of
// another, names shorter than 8 bytes, the root key ".", NUL bytes that tie
// with the zero padding, and bytes >= 0x80 (which a signed compare would
// put first).  They reach the store in an order far from
// sorted, so the intern ids are scrambled.
TEST(SnapshotOracle, AdversarialNamesMatchReference) {
  const std::vector<std::string> ingested = {
      "zzzzzzzz.com",  "aaaaaaaa.com",  "aaaaaaaab.com", "aaaaaaaa.co",
      "aaaaaaaaa.com", "abc.com",       "abc.co",        "abc.c",
      "b.io",          ".",             "com",           "a.b",
      "aaaaaaa.com",   "abcd.com",      "abcd.co",       "x_y.example.org",
      "aaaaaaaa.cn",   "aaaaaaaaaaaaaaaaaa.com", "aaaaaaaaaaaaaaaaaa.co",
      "aaaaaaaaaaaaaaaaab.com", "aaaaaaaaaaaaaaaa.com"};
  pdns::PassiveDnsStore store;
  for (std::size_t i = 0; i < ingested.size(); ++i) {
    pdns::Observation obs;
    obs.name = DomainName::must(ingested[i]);
    obs.rcode = i % 3 == 0 ? dns::RCode::NoError : dns::RCode::NXDomain;
    obs.when = static_cast<util::SimTime>(1'000'000 + 86'400 * i);
    obs.sensor.cls = pdns::SensorClass::Isp;
    store.ingest(obs);
  }
  ASSERT_GE(store.distinct_domains(), ingested.size() - 1);
  expect_matches_oracle(store, "ingested");

  // Names with NUL or bytes >= 0x80 cannot be ingested (DomainName is
  // printable ASCII), but a snapshot may carry any bytes; load them, then
  // fold them into the ingested store so both kinds share one sort.
  const std::vector<HandDomain> high = {
      {"aaaaaaaa\x7f.com", {3040}},
      {"aaaaaaaa\x80.com", {3041}},
      {"aaaaaaaa\xff", {3042, 3043}},
      {"abc", {3044}},
      {std::string("abc\0", 4), {3044}},  // zero padding ties "abc"
      {std::string("abc\0\x01", 5), {3044}},
      {"\x80", {3044}},
      {"\xc3\xa9t\xc3\xa9.fr", {3045}},
      {"\xff\xff\xff\xff\xff\xff\xff\xff", {3046}},
      {"\xff\xff\xff\xff\xff\xff\xff\xff\x01", {3047}}};
  ASSERT_TRUE(std::is_sorted(high.begin(), high.end(),
                             [](const auto& a, const auto& b) { return a.name < b.name; }));
  const auto blob = hand_built_snapshot({100}, {"com"}, high);
  const auto loaded = pdns::load_snapshot(blob);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(pdns::save_snapshot(*loaded), blob);
  expect_matches_oracle(*loaded, "high bytes");

  store.absorb(*loaded);
  expect_matches_oracle(store, "ingested + high bytes");
}

// ------------------------------------------------------------ durable store

// The durability property: for several seeds and every shard count, a
// DurableStore run (ingest in batches, periodic checkpoints, shutdown
// without a final checkpoint, recover from disk) yields a snapshot
// byte-identical to plain serial ingest of the same stream.  This is the
// crash-free sibling of the crash_recovery_test harness — it pins that the
// durable path adds zero drift on the happy path too.
TEST(DurableStore, CheckpointRecoverEqualsSerialAcrossSeedsAndShardCounts) {
  for (const std::uint64_t seed : {3ULL, 19ULL}) {
    const auto stream = [&] {
      synth::HistoryStreamConfig config;
      config.scale = 1e-7;
      config.seed = seed;
      config.ok_fraction = 0.06;
      config.servfail_fraction = 0.03;
      return synth::NxHistoryStream(config).all();
    }();
    ASSERT_GT(stream.size(), 500u);

    pdns::PassiveDnsStore serial;
    for (const auto& obs : stream) serial.ingest(obs);
    const auto want = pdns::save_snapshot(serial);

    for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
      const std::string dir = ::testing::TempDir() + "nxd_durable_prop_" +
                              std::to_string(seed) + "_" +
                              std::to_string(shards);
      std::filesystem::remove_all(dir);

      pdns::DurableStore::Config config;
      config.shard_count = shards;
      config.delta_every_batches = 3;  // background delta checkpoints mid-run
      config.compact_every_deltas = 2;
      config.wal.segment_max_bytes = 64 * 1024;
      {
        auto store = pdns::DurableStore::open(dir, config);
        ASSERT_TRUE(store.has_value());
        const std::size_t batch_size = stream.size() / 10 + 1;
        for (std::size_t at = 0; at < stream.size(); at += batch_size) {
          const auto n = std::min(batch_size, stream.size() - at);
          ASSERT_TRUE(store->wait_batch(store->submit_frame(
              pdns::encode_batch_frame(std::span(stream).subspan(at, n)))));
        }
        // materialize() folds base + in-flight checkpoint jobs + live tail,
        // so it is exact even while a delta checkpoint is still serializing.
        EXPECT_EQ(store->snapshot_bytes(), want)
            << "live seed=" << seed << " shards=" << shards;
      }  // shutdown with a non-empty WAL tail

      auto recovered = pdns::DurableStore::open(dir, config);
      ASSERT_TRUE(recovered.has_value());
      EXPECT_TRUE(recovered->recovery().snapshot_loaded);
      // At least one delta checkpoint committed (the dtor drains the
      // background worker), so recovery starts from a manifest frontier.
      EXPECT_GT(recovered->recovery().snapshot_batches, 0u);
      EXPECT_EQ(recovered->snapshot_bytes(), want)
          << "recovered seed=" << seed << " shards=" << shards;
      std::filesystem::remove_all(dir);
    }
  }
}

// File numbers past UINT64_MAX used to wrap: a stray manifest and WAL
// segment named with 20 nines read as frontier 7766279631452241919, open
// armed the segment after the stray one, and the first checkpoint's cleanup
// deleted the stray manifest — a file the store never wrote.
TEST(DurableStore, OverflowingFileNumbersAreNotStoreFiles) {
  EXPECT_EQ(util::parse_numbered("wal-18446744073709551615.log", "wal-", ".log"),
            UINT64_MAX);
  EXPECT_EQ(util::parse_numbered("wal-18446744073709551616.log", "wal-", ".log"),
            std::nullopt);
  EXPECT_EQ(util::parse_numbered("wal-99999999999999999999.log", "wal-", ".log"),
            std::nullopt);
  EXPECT_EQ(util::parse_numbered("wal-.log", "wal-", ".log"), std::nullopt);
  EXPECT_EQ(util::parse_numbered("wal-000000000007.log", "wal-", ".log"), 7u);

  const std::string dir = ::testing::TempDir() + "nxd_durable_stray_numbers";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string stray_manifest = dir + "/manifest-99999999999999999999.nxm";
  const std::string stray_wal = dir + "/wal-99999999999999999999.log";
  // A record buffer: kRecordHeaderBytes of headroom, then the payload.
  std::vector<std::uint8_t> junk(util::kRecordHeaderBytes);
  for (const char c : std::string_view("not mine")) junk.push_back(c);
  ASSERT_TRUE(util::write_record_atomic(stray_manifest, junk));
  ASSERT_TRUE(util::write_record_atomic(stray_wal, junk));

  const auto report = pdns::DurableStore::fsck(dir);
  EXPECT_TRUE(report.manifests.empty());
  EXPECT_EQ(report.frontier, 0u);
  EXPECT_EQ(report.wal_segments, 0u);

  pdns::DurableStore::Config config;
  {
    auto store = pdns::DurableStore::open(dir, config);
    ASSERT_TRUE(store.has_value());
    const auto segments = pdns::Wal::list_segments(dir);
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_LT(segments[0].first, 16u) << segments[0].second;
    std::vector<pdns::Observation> batch(1);
    batch[0].name = DomainName::must("stray-test.com");
    batch[0].rcode = dns::RCode::NXDomain;
    ASSERT_TRUE(store->wait_batch(
        store->submit_frame(pdns::encode_batch_frame(batch))));
    ASSERT_TRUE(store->checkpoint());
  }
  EXPECT_TRUE(std::filesystem::exists(stray_manifest));
  EXPECT_TRUE(std::filesystem::exists(stray_wal));
  auto reopened = pdns::DurableStore::open(dir, config);
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(reopened->committed_batches(), 1u);
  EXPECT_EQ(reopened->materialize().nx_responses(), 1u);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------------ report

TEST(Report, RendersAllSections) {
  pdns::PassiveDnsStore store;
  synth::fill_store_with_history(store, 2e-9, 9);
  analysis::ScaleAnalysis scale(store);

  analysis::OriginReport origin;
  origin.total_nxdomains = 1000;
  origin.expired = 100;
  origin.never_registered = 900;
  origin.expired_fraction = 0.1;
  origin.dga_detected = 3;
  origin.squats_by_type = {5, 4, 3, 2, 1};
  origin.squats_total = 15;
  origin.blocklisted = 7;
  origin.blocklist_sampled = 50;
  origin.blocklisted_by_category = {4, 1, 1, 1};

  analysis::SecurityReport security;
  security.filter.input = 500;
  security.filter.kept = 450;
  security.matrix.add("resheba.online",
                      honeypot::TrafficCategory::AutoScriptSoftware, 400);
  security.in_app_browsers.add("WhatsApp", 9);

  analysis::ReportInputs inputs;
  inputs.title = "Test run";
  inputs.scale = &scale;
  inputs.origin = &origin;
  inputs.security = &security;
  const std::string md = analysis::render_markdown_report(inputs);

  EXPECT_NE(md.find("# Test run"), std::string::npos);
  EXPECT_NE(md.find("## Scale (passive DNS)"), std::string::npos);
  EXPECT_NE(md.find("## Origin"), std::string::npos);
  EXPECT_NE(md.find("## Security"), std::string::npos);
  EXPECT_NE(md.find("| typosquatting | 5 |"), std::string::npos);
  EXPECT_NE(md.find("| resheba.online | 400 |"), std::string::npos);
  EXPECT_NE(md.find("| WhatsApp | 9 |"), std::string::npos);
  // Botnet section skipped when absent.
  EXPECT_EQ(md.find("## Botnet"), std::string::npos);
}

TEST(Report, SectionsAreOptional) {
  const std::string md = analysis::render_markdown_report({});
  EXPECT_NE(md.find("# NXDomain measurement report"), std::string::npos);
  EXPECT_EQ(md.find("## Scale"), std::string::npos);
}

}  // namespace
}  // namespace nxd
