// Zero-copy ingest fast path: SPSC ring semantics, differential fuzz of the
// zero-copy frame decoder against the allocating reference decoder
// (frame_oracle.hpp), fast-path vs serial snapshot byte-identity across
// seeds x shards x batch splits, and intern-table invariants (id<->name
// round trips across growth and copies, exact hit/miss reconciliation).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dns/name.hpp"
#include "frame_oracle.hpp"
#include "obs/metrics.hpp"
#include "pdns/durable_store.hpp"
#include "pdns/frame_view.hpp"
#include "pdns/intern.hpp"
#include "pdns/sharded_store.hpp"
#include "pdns/sie_channel.hpp"
#include "pdns/snapshot.hpp"
#include "pdns/store.hpp"
#include "synth/scale_models.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/spsc_ring.hpp"
#include "util/worker_pool.hpp"

namespace nxd {
namespace {

using dns::DomainName;
using dns::RCode;

std::vector<pdns::Observation> seeded_stream(std::uint64_t seed,
                                             double scale = 1e-7) {
  synth::HistoryStreamConfig config;
  config.scale = scale;
  config.seed = seed;
  config.ok_fraction = 0.06;        // cover the NoError ingest branch
  config.servfail_fraction = 0.03;  // ...and the ServFail short-circuit
  return synth::NxHistoryStream(config).all();
}

/// Split a stream into encoded frames of `split` observations each — the
/// batch-boundary axis of the differential property test.
std::vector<std::vector<std::uint8_t>> frames_of(
    std::span<const pdns::Observation> stream, std::size_t split) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t i = 0; i < stream.size(); i += split) {
    const auto n = std::min(split, stream.size() - i);
    frames.push_back(pdns::encode_batch_frame(stream.subspan(i, n)));
  }
  return frames;
}

/// Borrowed views of owned frames — the form ShardedStore::ingest_frames
/// takes.
std::vector<std::span<const std::uint8_t>> spans_of(
    const std::vector<std::vector<std::uint8_t>>& frames) {
  return {frames.begin(), frames.end()};
}

// ---------------------------------------------------------------- SpscRing

TEST(SpscRing, CapacityOneAlternatesFullAndEmpty) {
  util::SpscRing<int> ring(1);
  EXPECT_EQ(ring.capacity(), 1u);
  int out = 0;
  EXPECT_FALSE(ring.try_pop(out));
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(ring.try_push(i));
    EXPECT_FALSE(ring.try_push(i)) << "capacity-1 ring must be full";
    EXPECT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
    EXPECT_FALSE(ring.try_pop(out)) << "ring must be empty again";
  }
}

TEST(SpscRing, WraparoundPreservesFifoOrder) {
  util::SpscRing<int> ring(3);
  int next_push = 0;
  int next_pop = 0;
  // Uneven push/pop rhythm forces the indexes around the ring many times.
  while (next_pop < 1000) {
    for (int burst = 0; burst < 2 && ring.try_push(next_push); ++burst) {
      ++next_push;
    }
    int out = -1;
    ASSERT_TRUE(ring.try_pop(out));
    ASSERT_EQ(out, next_pop);
    ++next_pop;
  }
}

TEST(SpscRing, ProducerFasterThanConsumer) {
  constexpr int kCount = 100000;
  util::SpscRing<int> ring(64);
  std::thread producer([&ring] {
    for (int i = 0; i < kCount; ++i) ring.push(i);  // spins when full
    ring.close();
  });
  long long sum = 0;
  int expected = 0;
  int out = -1;
  while (ring.pop_wait(out)) {
    ASSERT_EQ(out, expected) << "FIFO order violated";
    ++expected;
    sum += out;
    if (expected % 64 == 0) std::this_thread::yield();  // stay the slow side
  }
  producer.join();
  EXPECT_EQ(expected, kCount);
  EXPECT_EQ(sum, static_cast<long long>(kCount) * (kCount - 1) / 2);
}

TEST(SpscRing, ConsumerFasterThanProducer) {
  constexpr int kCount = 20000;
  util::SpscRing<int> ring(64);
  std::thread producer([&ring] {
    for (int i = 0; i < kCount; ++i) {
      ring.push(i);
      if (i % 16 == 0) std::this_thread::yield();  // stay the slow side
    }
    ring.close();
  });
  int expected = 0;
  int out = -1;
  while (ring.pop_wait(out)) {
    ASSERT_EQ(out, expected);
    ++expected;
  }
  producer.join();
  EXPECT_EQ(expected, kCount);
}

TEST(SpscRing, ShutdownDrainLosesNothing) {
  // close() then drain: every element pushed before the close must still
  // come out, and pop_wait must return false only after a complete drain.
  constexpr int kCount = 500;
  util::SpscRing<int> ring(kCount);
  for (int i = 0; i < kCount; ++i) ASSERT_TRUE(ring.try_push(i));
  ring.close();
  int out = -1;
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(ring.pop_wait(out)) << "element " << i << " lost at shutdown";
    ASSERT_EQ(out, i);
  }
  EXPECT_FALSE(ring.pop_wait(out));
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRing, CloseRacingProducerStillDrains) {
  // The consumer may observe closed==true between a failed pop and the
  // producer's final pushes; pop_wait's re-check must still deliver them.
  for (int round = 0; round < 50; ++round) {
    util::SpscRing<int> ring(8);
    std::thread producer([&ring] {
      for (int i = 0; i < 64; ++i) ring.push(i);
      ring.close();
    });
    int seen = 0;
    int out = -1;
    while (ring.pop_wait(out)) ++seen;
    producer.join();
    ASSERT_EQ(seen, 64);
  }
}

// ----------------------------------------------------- FrameView: parity

/// Assert FrameView and the reference decoder agree on accept/reject, and on
/// every decoded field when both accept.
void expect_decoder_parity(std::span<const std::uint8_t> bytes) {
  const auto reference = oracle::decode_batch_frame(bytes);
  const auto fast = pdns::FrameView::parse(bytes);
  ASSERT_EQ(reference.has_value(), fast.has_value())
      << "decoders disagree on acceptance";
  if (!reference.has_value()) return;
  ASSERT_EQ(reference->size(), fast->size());
  std::size_t i = 0;
  for (const pdns::ObservationView view : *fast) {
    const pdns::Observation& want = (*reference)[i++];
    ASSERT_EQ(view.name, want.name.to_string());
    ASSERT_EQ(view.qtype, want.qtype);
    ASSERT_EQ(view.rcode, want.rcode);
    ASSERT_EQ(view.when, want.when);
    ASSERT_EQ(view.sensor.cls, want.sensor.cls);
    ASSERT_EQ(view.sensor.index, want.sensor.index);
    // The derived keys must match the DomainName-based ones byte for byte.
    std::array<char, 160> buf;
    ASSERT_EQ(view.registered_key(), pdns::registered_domain_key(want.name, buf));
    ASSERT_EQ(view.tld(), want.name.tld());
  }
}

TEST(FrameViewFuzz, DifferentialAgainstReferenceDecoder) {
  for (const std::uint64_t seed : {101ULL, 202ULL, 303ULL}) {
    const auto stream = seeded_stream(seed, 2e-9);
    ASSERT_GE(stream.size(), 64u);
    const auto base = pdns::encode_batch_frame(
        std::span(stream).subspan(0, std::min<std::size_t>(stream.size(), 256)));
    expect_decoder_parity(base);

    util::Rng rng(seed);
    // Single-bit flips anywhere in the frame.
    for (int i = 0; i < 400; ++i) {
      auto mutated = base;
      const std::size_t pos = rng.bounded(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.bounded(8));
      expect_decoder_parity(mutated);
    }
    // Truncations at every kind of boundary.
    for (int i = 0; i < 200; ++i) {
      auto mutated = base;
      mutated.resize(rng.bounded(mutated.size()));
      expect_decoder_parity(mutated);
    }
    // Trailing garbage.
    for (int i = 0; i < 50; ++i) {
      auto mutated = base;
      const std::size_t extra = 1 + rng.bounded(16);
      for (std::size_t j = 0; j < extra; ++j) {
        mutated.push_back(static_cast<std::uint8_t>(rng.bounded(256)));
      }
      expect_decoder_parity(mutated);
    }
    // Pure garbage buffers.
    for (int i = 0; i < 200; ++i) {
      std::vector<std::uint8_t> garbage(rng.bounded(128));
      for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.bounded(256));
      expect_decoder_parity(garbage);
    }
  }
}

/// Hand-build a single-observation frame with full control over raw fields.
std::vector<std::uint8_t> raw_frame(std::string_view name, std::uint8_t rcode,
                                    std::uint8_t sensor_cls,
                                    std::uint32_t count = 1) {
  util::ByteWriter w;
  w.u32(pdns::kSieFrameMagic);
  w.u16(pdns::kSieFrameVersion);
  w.u32(count);
  w.u8(static_cast<std::uint8_t>(name.size()));
  w.bytes(name);
  w.u16(1);  // qtype A
  w.u8(rcode);
  w.u32(static_cast<std::uint32_t>(pdns::kSieTimeBias >> 32));
  w.u32(0);
  w.u8(sensor_cls);
  w.u16(7);
  return std::move(w).take();
}

TEST(FrameViewFuzz, CanonicalNameAndRangeChecksMatchReference) {
  // accepted: canonical lowercase name, root name
  for (const char* name : {"example.com", "a.b.example.com", "_dmarc.x.org",
                           "xn--bcher-kva.de", "com", "."}) {
    const auto frame = raw_frame(name, 3, 0);
    EXPECT_TRUE(pdns::FrameView::parse(frame).has_value()) << name;
    expect_decoder_parity(frame);
  }
  // rejected: every non-canonical or out-of-range spelling
  for (const char* name :
       {"", "Example.com", "EXAMPLE.COM", "example.com.", "..", ".example",
        "ex..ample.com", "bad label.com", "trailing.dot."}) {
    const auto frame = raw_frame(name, 3, 0);
    EXPECT_FALSE(pdns::FrameView::parse(frame).has_value()) << "'" << name << "'";
    expect_decoder_parity(frame);
  }
  // oversized label (64 'a's) and oversized name
  const std::string big_label(64, 'a');
  expect_decoder_parity(raw_frame(big_label + ".com", 3, 0));
  EXPECT_FALSE(pdns::FrameView::parse(raw_frame(big_label + ".com", 3, 0)));
  // unknown rcode / sensor class
  expect_decoder_parity(raw_frame("ok.com", 9, 0));
  EXPECT_FALSE(pdns::FrameView::parse(raw_frame("ok.com", 9, 0)));
  expect_decoder_parity(raw_frame("ok.com", 3, 7));
  EXPECT_FALSE(pdns::FrameView::parse(raw_frame("ok.com", 3, 7)));
  // count disagreeing with payload, both directions
  expect_decoder_parity(raw_frame("ok.com", 3, 0, /*count=*/2));
  EXPECT_FALSE(pdns::FrameView::parse(raw_frame("ok.com", 3, 0, 2)));
  expect_decoder_parity(raw_frame("ok.com", 3, 0, /*count=*/0));
  EXPECT_FALSE(pdns::FrameView::parse(raw_frame("ok.com", 3, 0, 0)));
}

TEST(FrameViewFuzz, CanonicalTextPredicateMatchesParseRoundTrip) {
  // The in-place validator must equal "parse succeeds and reserializes to
  // the same text" for arbitrary short byte strings.
  util::Rng rng(99);
  const std::string alphabet = "abcXYZ09._-* ~\x7f\x19";
  for (int i = 0; i < 20000; ++i) {
    std::string text;
    const std::size_t len = rng.bounded(12);
    for (std::size_t j = 0; j < len; ++j) {
      text.push_back(alphabet[rng.bounded(alphabet.size())]);
    }
    const auto parsed = DomainName::parse(text);
    const bool round_trips = parsed.has_value() && parsed->to_string() == text;
    EXPECT_EQ(DomainName::is_canonical_text(text), round_trips)
        << "text='" << text << "'";
  }
}

// ------------------------------------------- fast path vs serial snapshots

// The tentpole property: for several seeds, every shard count, and several
// batch-split boundaries, zero-copy frame ingest + merge produces a snapshot
// byte-identical to serial PassiveDnsStore ingest of the same stream.  The
// pool sizes cover both execution shapes: a worker per shard (pipelined
// rings) and fewer workers than shards (inline serial routing).
TEST(FastPathDifferential, FrameIngestSnapshotIdenticalAcrossSeedsShardsSplits) {
  struct Shape {
    std::size_t shards;
    std::size_t threads;
  };
  constexpr Shape kShapes[] = {{1, 0}, {2, 2}, {4, 4}, {8, 8}, {8, 2}};
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    const auto stream = seeded_stream(seed);
    ASSERT_GT(stream.size(), 1000u) << "stream too small to be interesting";

    pdns::PassiveDnsStore serial;
    for (const auto& obs : stream) serial.ingest(obs);
    const auto want = pdns::save_snapshot(serial);

    for (const Shape shape : kShapes) {
      for (const std::size_t split : {257u, 4096u}) {
        const auto frames = frames_of(stream, split);
        util::WorkerPool pool(shape.threads);
        pdns::ShardedStore sharded(shape.shards);
        const auto stats = sharded.ingest_frames(spans_of(frames), pool);
        EXPECT_EQ(stats.rejected_frames, 0u);
        EXPECT_EQ(stats.accepted_frames, frames.size());
        EXPECT_EQ(stats.observations, stream.size());
        EXPECT_EQ(pdns::save_snapshot(sharded.merge()), want)
            << "seed=" << seed << " shards=" << shape.shards
            << " threads=" << shape.threads << " split=" << split;
      }
    }
  }
}

TEST(FastPathDifferential, ViewIngestMatchesObservationIngest) {
  const auto stream = seeded_stream(11, 5e-8);
  const auto frames = frames_of(stream, 500);

  pdns::PassiveDnsStore via_views;
  for (const auto& frame : frames) {
    const auto parsed = pdns::FrameView::parse(frame);
    ASSERT_TRUE(parsed.has_value());
    for (const pdns::ObservationView view : *parsed) via_views.ingest_view(view);
  }

  pdns::PassiveDnsStore via_obs;
  for (const auto& obs : stream) via_obs.ingest(obs);

  EXPECT_EQ(pdns::save_snapshot(via_views), pdns::save_snapshot(via_obs));
  EXPECT_EQ(via_views.intern_hits(), via_obs.intern_hits());
  EXPECT_EQ(via_views.intern_misses(), via_obs.intern_misses());
}

TEST(FastPathDifferential, RejectedFrameLeavesStoreUntouched) {
  const auto stream = seeded_stream(3, 2e-9);
  auto frames = frames_of(stream, 64);
  ASSERT_GE(frames.size(), 2u);
  frames[1][0] ^= 0xFF;  // corrupt the second frame's magic

  util::WorkerPool pool(4);
  pdns::ShardedStore sharded(4);
  const auto stats = sharded.ingest_frames(spans_of(frames), pool);
  EXPECT_EQ(stats.rejected_frames, 1u);
  EXPECT_EQ(stats.accepted_frames, frames.size() - 1);

  // Exactly the accepted frames' observations, nothing from the rejected one.
  pdns::PassiveDnsStore expect;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    if (f == 1) continue;
    const auto decoded = oracle::decode_batch_frame(frames[f]);
    ASSERT_TRUE(decoded.has_value());
    for (const auto& obs : *decoded) expect.ingest(obs);
  }
  EXPECT_EQ(pdns::save_snapshot(sharded.merge()), pdns::save_snapshot(expect));
}

// Satellite of the durability PR: DurableStore routes acked frames through
// the same zero-copy fast path, so a durable store — live, and again after a
// cold recovery — must snapshot byte-identically to the memory-only sharded
// fast path over the identical frame sequence.
TEST(FastPathDifferential, DurableFrameIngestMatchesMemoryOnly) {
  const auto stream = seeded_stream(21, 5e-8);
  const auto frames = frames_of(stream, 512);
  ASSERT_GE(frames.size(), 8u);

  for (const std::size_t shards : {1u, 4u}) {
    util::WorkerPool pool(shards > 1 ? shards : 0);
    pdns::ShardedStore memory(shards);
    const auto stats = memory.ingest_frames(spans_of(frames), pool);
    ASSERT_EQ(stats.rejected_frames, 0u);
    const auto want = pdns::save_snapshot(memory.merge());

    const auto dir = (std::filesystem::temp_directory_path() /
                      ("nxd_fastpath_durable_" + std::to_string(shards)))
                         .string();
    std::filesystem::remove_all(dir);

    pdns::DurableStore::Config config;
    config.shard_count = shards;
    // Small window + linger so the test exercises genuine group coalescing
    // rather than degenerate groups of one.
    config.group_window.max_batches = 4;
    config.group_window.linger_us = 10'000;
    config.delta_every_batches = 3;
    config.compact_every_deltas = 2;
    auto store = pdns::DurableStore::open(dir, config);
    ASSERT_TRUE(store.has_value() && store->ok());

    std::vector<std::uint64_t> tickets;
    tickets.reserve(frames.size());
    for (const auto& frame : frames) {
      tickets.push_back(store->submit_frame(frame));
    }
    for (const auto ticket : tickets) {
      ASSERT_TRUE(store->wait_batch(ticket));
    }
    EXPECT_GT(store->stage_stats().groups, 0u);
    EXPECT_EQ(store->stage_stats().batches, frames.size());
    EXPECT_EQ(store->snapshot_bytes(), want)
        << "live durable snapshot diverged, shards=" << shards;
    store.reset();  // drain writer + checkpoint threads, commit the manifest

    const auto recovered = pdns::DurableStore::open(dir, config);
    ASSERT_TRUE(recovered.has_value() && recovered->ok());
    EXPECT_EQ(recovered->committed_batches(), frames.size());
    EXPECT_EQ(recovered->snapshot_bytes(), want)
        << "recovered durable snapshot diverged, shards=" << shards;
    std::filesystem::remove_all(dir);
  }
}

// ------------------------------------------------------------ intern table

TEST(InternTable, IdNameRoundTripAcrossGrowthAndCopy) {
  std::optional<pdns::InternTable> source(std::in_place);
  std::vector<std::string> names;
  constexpr std::size_t kNames = 5000;
  const char* first_bytes = nullptr;
  for (std::size_t i = 0; i < kNames; ++i) {
    names.push_back("domain-" + std::to_string(i) + ".example");
    const auto [id, inserted] = source->intern(names.back());
    ASSERT_TRUE(inserted);
    ASSERT_EQ(id, i);
    if (i == 0) first_bytes = source->name_of(0).data();
  }
  ASSERT_EQ(source->size(), kNames);
  // 5000 names outgrow the first slot table (64) and the first name buffer
  // many times over; the buffer moving shows it grew.
  EXPECT_NE(source->name_of(0).data(), first_bytes)
      << "test must actually grow the name buffer";

  // Round trip: id -> name -> id, for every entry, after all growth.
  auto round_trips = [&names](pdns::InternTable& table) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      const auto id = static_cast<std::uint32_t>(i);
      EXPECT_EQ(table.name_of(id), names[i]);
      EXPECT_EQ(table.find(names[i]), id);
      const auto again = table.intern(names[i]);
      EXPECT_FALSE(again.inserted);
      EXPECT_EQ(again.id, id);
    }
    EXPECT_EQ(table.find("never-interned.example"), pdns::InternTable::kInvalidId);
    EXPECT_EQ(table.name_of(static_cast<std::uint32_t>(names.size())),
              std::string_view{});
  };
  round_trips(*source);

  // A copy owns its names: it outlives its source and keeps growing alone.
  pdns::InternTable copy = *source;
  source.reset();
  round_trips(copy);
  const auto added = copy.intern("added-after-copy.example");
  EXPECT_TRUE(added.inserted);
  EXPECT_EQ(added.id, kNames);
  EXPECT_EQ(copy.name_of(added.id), "added-after-copy.example");
}

TEST(InternTable, CountersReconcileExactlyInHundredKReplay) {
  const auto stream = seeded_stream(42, 1e-7);
  ASSERT_GE(stream.size(), 100000u) << "replay must be at least 100k observations";

  obs::MetricsRegistry registry;
  pdns::PassiveDnsStore store;
  store.bind_metrics(registry);
  std::uint64_t servfail = 0;
  for (const auto& obs : stream) {
    if (obs.rcode == RCode::ServFail) ++servfail;
    store.ingest(obs);
  }

  // Every non-SERVFAIL observation is exactly one intern hit or miss.
  EXPECT_EQ(store.intern_hits() + store.intern_misses() + servfail,
            stream.size());
  EXPECT_EQ(store.total_observations(), stream.size());
  // A miss is exactly a first sighting: one per distinct registered domain.
  EXPECT_EQ(store.intern_misses(), store.intern_table().size());
  EXPECT_EQ(store.intern_misses(), store.distinct_domains());
  // The obs counters mirror the member counters exactly.
  EXPECT_EQ(registry.counter("nxd_pdns_intern_hits_total").value(),
            store.intern_hits());
  EXPECT_EQ(registry.counter("nxd_pdns_intern_misses_total").value(),
            store.intern_misses());

  // A store restored from a snapshot indexes every domain it holds, so a
  // miss still means "a domain ingest added": load the first half, ingest
  // the whole replay, and only the second half's new domains miss.
  const std::size_t half = stream.size() / 2;
  pdns::PassiveDnsStore first_half;
  for (std::size_t i = 0; i < half; ++i) first_half.ingest(stream[i]);
  auto restored = pdns::load_snapshot(pdns::save_snapshot(first_half));
  ASSERT_TRUE(restored.has_value());
  obs::MetricsRegistry restored_registry;
  restored->bind_metrics(restored_registry);
  for (const auto& obs : stream) restored->ingest(obs);
  EXPECT_EQ(restored->intern_misses(),
            store.distinct_domains() - first_half.distinct_domains());
  EXPECT_EQ(restored->intern_hits() + restored->intern_misses() + servfail,
            stream.size());
  EXPECT_EQ(restored_registry.counter("nxd_pdns_intern_misses_total").value(),
            restored->intern_misses());

  // The same holds for a store filled by absorb().
  pdns::PassiveDnsStore absorbed;
  absorbed.absorb(first_half);
  for (const auto& obs : stream) absorbed.ingest(obs);
  EXPECT_EQ(absorbed.intern_misses(),
            store.distinct_domains() - first_half.distinct_domains());
}

TEST(InternTable, CopiedStoreRebuildsCacheAndStaysExact) {
  // Copying a store must not carry dangling intern pointers: ingesting into
  // the copy after the original is destroyed has to produce exact results.
  auto stream = seeded_stream(13, 2e-9);
  ASSERT_GT(stream.size(), 100u);
  const std::size_t half = stream.size() / 2;

  pdns::PassiveDnsStore copy;
  {
    pdns::PassiveDnsStore original;
    for (std::size_t i = 0; i < half; ++i) original.ingest(stream[i]);
    copy = original;
  }  // original (and the map nodes its intern cache pointed at) destroyed
  for (std::size_t i = half; i < stream.size(); ++i) copy.ingest(stream[i]);

  pdns::PassiveDnsStore serial;
  for (const auto& obs : stream) serial.ingest(obs);
  EXPECT_EQ(pdns::save_snapshot(copy), pdns::save_snapshot(serial));
}

}  // namespace
}  // namespace nxd
