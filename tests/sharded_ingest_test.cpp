// Sharded parallel pdns ingest: worker-pool semantics, merge-equivalence
// property tests (sharded ingest + merge must be byte-identical to serial
// ingest of the same seeded stream), batch-frame publishing, and exact
// folding of per-shard analysis summaries and resolver stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "analysis/scale.hpp"
#include "frame_oracle.hpp"
#include "pdns/durable_store.hpp"
#include "pdns/observation.hpp"
#include "pdns/sharded_store.hpp"
#include "pdns/sie_channel.hpp"
#include "pdns/snapshot.hpp"
#include "pdns/store.hpp"
#include "resolver/recursive.hpp"
#include "synth/scale_models.hpp"
#include "util/worker_pool.hpp"

namespace nxd {
namespace {

using dns::DomainName;
using dns::RCode;

pdns::Observation nx_obs(const char* name, util::Day day) {
  pdns::Observation obs;
  obs.name = DomainName::must(name);
  obs.rcode = RCode::NXDomain;
  obs.when = day * util::kSecondsPerDay;
  return obs;
}

std::vector<pdns::Observation> seeded_stream(std::uint64_t seed,
                                             double scale = 2e-7) {
  synth::HistoryStreamConfig config;
  config.scale = scale;
  config.seed = seed;
  config.ok_fraction = 0.06;        // cover the NoError ingest branch
  config.servfail_fraction = 0.03;  // ...and the ServFail short-circuit
  return synth::NxHistoryStream(config).all();
}

/// Edge-encode `stream` as SIE frames of `per_frame` observations and route
/// them through the one ShardedStore ingest entry.
void ingest_stream(pdns::ShardedStore& sharded,
                   std::span<const pdns::Observation> stream,
                   util::WorkerPool& pool, std::size_t per_frame = 4096) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t i = 0; i < stream.size(); i += per_frame) {
    const auto n = std::min(per_frame, stream.size() - i);
    frames.push_back(pdns::encode_batch_frame(stream.subspan(i, n)));
  }
  const std::vector<std::span<const std::uint8_t>> spans(frames.begin(),
                                                         frames.end());
  const auto stats = sharded.ingest_frames(spans, pool);
  ASSERT_EQ(stats.rejected_frames, 0u);
  ASSERT_EQ(stats.observations, stream.size());
}

// ------------------------------------------------------------- WorkerPool

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  util::WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.run_indexed(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPool, ZeroThreadsRunsInline) {
  util::WorkerPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  std::vector<std::size_t> order;
  pool.run_indexed(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(WorkerPool, SubmitAndWaitIdle) {
  util::WorkerPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) pool.submit([&] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 50);
  // wait_idle on an idle pool returns immediately.
  pool.wait_idle();
  EXPECT_EQ(done.load(), 50);
}

TEST(WorkerPool, DestructorDrainsPendingWork) {
  std::atomic<int> done{0};
  {
    util::WorkerPool pool(1);
    for (int i = 0; i < 20; ++i) pool.submit([&] { done.fetch_add(1); });
  }
  EXPECT_EQ(done.load(), 20);
}

TEST(WorkerPool, DefaultThreadsIsClamped) {
  EXPECT_GE(util::WorkerPool::default_threads(), 1u);
  EXPECT_LE(util::WorkerPool::default_threads(4), 4u);
}

// ----------------------------------------------------------- ShardedStore

TEST(ShardedStore, RoutingIsStableAndInRange) {
  const auto route = [](const char* name, std::size_t shards) {
    std::array<char, 160> buf;
    return pdns::ShardedStore::shard_of_key(
        pdns::registered_domain_key(DomainName::must(name), buf), shards);
  };
  for (std::size_t shards : {1u, 2u, 4u, 8u, 256u}) {
    const auto s = route("api.stale-cdn.com", shards);
    EXPECT_LT(s, shards);
    EXPECT_EQ(s, route("api.stale-cdn.com", shards));
  }
  // Same registered domain => same shard, regardless of subdomain labels.
  EXPECT_EQ(route("a.b.example.net", 8), route("example.net", 8));
}

TEST(ShardedStore, ShardCountIsClamped) {
  EXPECT_EQ(pdns::ShardedStore(0).shard_count(), 1u);
  EXPECT_EQ(pdns::ShardedStore(3).shard_count(), 3u);
  EXPECT_EQ(pdns::ShardedStore(100000).shard_count(), pdns::ShardedStore::kMaxShards);
}

TEST(ShardedStore, ScalarCountersSumAcrossShards) {
  pdns::ShardedStore sharded(4);
  util::WorkerPool pool(0);
  ingest_stream(sharded,
                std::vector{nx_obs("a.com", 1), nx_obs("b.net", 2),
                            nx_obs("c.org", 3)},
                pool);
  EXPECT_EQ(sharded.total_observations(), 3u);
  EXPECT_EQ(sharded.nx_responses(), 3u);
  const auto merged = sharded.merge();
  EXPECT_EQ(merged.total_observations(), 3u);
  EXPECT_EQ(merged.distinct_nxdomains(), 3u);
}

// Frame boundaries do not matter: one frame per observation folds to the
// same shards as large frames.
TEST(MergeEquivalence, SerialShardIngestMatchesBatchIngest) {
  const auto stream = seeded_stream(11, 1e-7);
  util::WorkerPool pool(4);
  pdns::ShardedStore batched(4);
  ingest_stream(batched, stream, pool);
  pdns::ShardedStore one_by_one(4);
  ingest_stream(one_by_one, stream, pool, /*per_frame=*/1);
  EXPECT_EQ(pdns::save_snapshot(batched.merge()),
            pdns::save_snapshot(one_by_one.merge()));
}

TEST(MergeEquivalence, ParallelGenerationMatchesSerialGeneration) {
  synth::HistoryStreamConfig config;
  config.scale = 1e-7;
  config.seed = 5;
  const synth::NxHistoryStream stream(config);
  util::WorkerPool pool(4);
  const auto serial = stream.all();
  const auto parallel = stream.all_parallel(pool);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(serial.size(), stream.planned_total());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].name.to_string(), parallel[i].name.to_string()) << i;
    ASSERT_EQ(serial[i].when, parallel[i].when) << i;
    ASSERT_EQ(serial[i].rcode, parallel[i].rcode) << i;
  }
}

TEST(MergeEquivalence, StoreConfigPropagatesToShards) {
  pdns::StoreConfig config;
  config.track_daily = false;
  pdns::ShardedStore sharded(2, config);
  util::WorkerPool pool(0);
  ingest_stream(sharded, std::vector{nx_obs("x.com", 3)}, pool);
  const auto merged = sharded.merge();
  const auto* agg = merged.domain("x.com");
  ASSERT_NE(agg, nullptr);
  EXPECT_TRUE(agg->daily_nx.empty());

  pdns::PassiveDnsStore serial(config);
  serial.ingest(nx_obs("x.com", 3));
  EXPECT_EQ(pdns::save_snapshot(merged), pdns::save_snapshot(serial));
}

TEST(MergeEquivalence, AbsorbCorrectsOverlappingDistinctCounts) {
  // absorb() is exact even when both stores saw the same domain — the
  // distinct-NX counters (global and per-TLD) must not double-count.
  pdns::PassiveDnsStore a;
  a.ingest(nx_obs("dup.com", 1));
  a.ingest(nx_obs("only-a.com", 2));
  pdns::PassiveDnsStore b;
  b.ingest(nx_obs("dup.com", 9));
  b.ingest(nx_obs("only-b.net", 4));
  a.absorb(b);
  EXPECT_EQ(a.total_observations(), 4u);
  EXPECT_EQ(a.distinct_nxdomains(), 3u);
  const auto* dup = a.domain("dup.com");
  ASSERT_NE(dup, nullptr);
  EXPECT_EQ(dup->first_seen, 1);
  EXPECT_EQ(dup->last_seen, 9);
  EXPECT_EQ(dup->nx_queries, 2u);
}

// ------------------------------------------------------- fold exactness

TEST(FoldExactness, ShardSummariesSumToMergedSummary) {
  // Registered-domain routing partitions the names, so every per-shard
  // summary count, distinct names included, sums exactly to the merged one.
  const auto stream = seeded_stream(42, 1e-7);
  util::WorkerPool pool(4);
  pdns::ShardedStore sharded(4);
  ingest_stream(sharded, stream, pool);

  analysis::ScaleSummary summed;
  for (std::size_t i = 0; i < sharded.shard_count(); ++i) {
    const auto part = analysis::ScaleAnalysis(sharded.shard(i)).summary();
    summed.nx_responses += part.nx_responses;
    summed.distinct_nxdomains += part.distinct_nxdomains;
    summed.servfail_responses += part.servfail_responses;
  }

  const auto merged = sharded.merge();
  const auto whole = analysis::ScaleAnalysis(merged).summary();
  EXPECT_EQ(summed.nx_responses, whole.nx_responses);
  EXPECT_EQ(summed.distinct_nxdomains, whole.distinct_nxdomains);
  EXPECT_EQ(summed.servfail_responses, whole.servfail_responses);
}

TEST(FoldExactness, RecursiveStatsSumFieldwise) {
  resolver::RecursiveStats a;
  a.client_queries = 10;
  a.cache_hits = 4;
  a.upstream_resolutions = 6;
  a.nxdomain_responses = 3;
  a.retries = 2;
  a.timeouts = 1;
  a.servfail_responses = 1;
  resolver::RecursiveStats b;
  b.client_queries = 7;
  b.nxdomain_responses = 5;
  b.retries = 1;
  b.servfail_responses = 1;

  const auto sum = a + b;
  EXPECT_EQ(sum.client_queries, 17u);
  EXPECT_EQ(sum.cache_hits, 4u);
  EXPECT_EQ(sum.upstream_resolutions, 6u);
  EXPECT_EQ(sum.nxdomain_responses, 8u);
  EXPECT_EQ(sum.retries, 3u);
  EXPECT_EQ(sum.timeouts, 1u);
  EXPECT_EQ(sum.servfail_responses, 2u);

  resolver::RecursiveStats acc = a;
  acc += b;
  EXPECT_EQ(acc, sum);
}

// --------------------------------------------------------- batch frames

TEST(BatchFrames, EncodeDecodeRoundTrip) {
  std::vector<pdns::Observation> batch;
  for (int i = 0; i < 10; ++i) {
    auto obs = nx_obs(("host-" + std::to_string(i) + ".example.com").c_str(),
                      util::Day{100 + i});
    obs.sensor.cls = static_cast<pdns::SensorClass>(i % 4);
    obs.sensor.index = static_cast<std::uint16_t>(i);
    batch.push_back(obs);
  }
  const auto frame = pdns::encode_batch_frame(batch);
  const auto decoded = oracle::decode_batch_frame(frame);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ((*decoded)[i].name.to_string(), batch[i].name.to_string());
    EXPECT_EQ((*decoded)[i].when, batch[i].when);
    EXPECT_EQ((*decoded)[i].rcode, batch[i].rcode);
    EXPECT_EQ((*decoded)[i].sensor.cls, batch[i].sensor.cls);
    EXPECT_EQ((*decoded)[i].sensor.index, batch[i].sensor.index);
  }
}

// Both ingest entries refuse a broken frame whole: ShardedStore counts it
// and adds nothing, DurableStore hands back ticket 0 and logs nothing.
TEST(BatchFrames, RejectsStructurallyBrokenFrames) {
  const std::vector<pdns::Observation> batch = {nx_obs("a.com", 1)};
  const auto frame = pdns::encode_batch_frame(batch);
  auto bad_magic = frame;
  bad_magic[0] ^= 0xFF;
  auto truncated = frame;
  truncated.pop_back();
  auto trailing = frame;
  trailing.push_back(0);
  const std::vector<std::span<const std::uint8_t>> broken = {
      bad_magic, truncated, trailing};

  util::WorkerPool pool(2);
  pdns::ShardedStore sharded(2);
  ingest_stream(sharded, seeded_stream(22, 2e-9), pool);
  const auto before = pdns::save_snapshot(sharded.merge());
  const auto stats = sharded.ingest_frames(broken, pool);
  EXPECT_EQ(stats.rejected_frames, 3u);
  EXPECT_EQ(stats.accepted_frames, 0u);
  EXPECT_EQ(stats.observations, 0u);
  EXPECT_EQ(pdns::save_snapshot(sharded.merge()), before);
  // The pristine frame still ingests after all that rejection.
  const std::span<const std::uint8_t> pristine[] = {frame};
  EXPECT_EQ(sharded.ingest_frames(pristine, pool).accepted_frames, 1u);

  const auto dir = (std::filesystem::temp_directory_path() /
                    "nxd_sharded_broken_frames")
                       .string();
  std::filesystem::remove_all(dir);
  {
    auto store = pdns::DurableStore::open(dir, {});
    ASSERT_TRUE(store.has_value() && store->ok());
    for (const auto bad : broken) EXPECT_EQ(store->submit_frame(bad), 0u);
    EXPECT_EQ(store->committed_batches(), 0u);
    EXPECT_TRUE(store->wait_batch(store->submit_frame(frame)));
    EXPECT_EQ(store->committed_batches(), 1u);
    EXPECT_EQ(store->materialize().total_observations(), 1u);
  }
  std::filesystem::remove_all(dir);
}

TEST(BatchFrames, ShardedFrameIngestMatchesSerialStore) {
  // Golden check for the zero-copy frame front end: frames routed through
  // ShardedStore::ingest_frames and merged must be byte-identical to a
  // serial PassiveDnsStore fed the same stream one observation at a time.
  const auto stream = seeded_stream(21, 5e-8);
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t i = 0; i < stream.size(); i += 777) {
    const auto n = std::min<std::size_t>(777, stream.size() - i);
    frames.push_back(pdns::encode_batch_frame(std::span(stream).subspan(i, n)));
  }

  util::WorkerPool pool(4);
  pdns::ShardedStore sharded(4);
  const std::vector<std::span<const std::uint8_t>> spans(frames.begin(),
                                                         frames.end());
  const auto stats = sharded.ingest_frames(spans, pool);
  EXPECT_EQ(stats.rejected_frames, 0u);
  EXPECT_EQ(stats.accepted_frames, frames.size());
  EXPECT_EQ(stats.observations, stream.size());

  pdns::PassiveDnsStore serial;
  for (const auto& obs : stream) serial.ingest(obs);
  EXPECT_EQ(pdns::save_snapshot(sharded.merge()), pdns::save_snapshot(serial));
}

TEST(BatchFrames, ShardedFrameIngestRejectsWholeFrames) {
  const auto stream = seeded_stream(22, 2e-9);
  auto good = pdns::encode_batch_frame(stream);
  auto bad = good;
  bad[5] ^= 0xFF;  // corrupt the version field

  util::WorkerPool pool(2);
  pdns::ShardedStore sharded(2);
  const std::span<const std::uint8_t> frames[] = {bad};
  const auto stats = sharded.ingest_frames(frames, pool);
  EXPECT_EQ(stats.rejected_frames, 1u);
  EXPECT_EQ(stats.accepted_frames, 0u);
  EXPECT_EQ(stats.observations, 0u);
  EXPECT_EQ(sharded.total_observations(), 0u);
}

}  // namespace
}  // namespace nxd
