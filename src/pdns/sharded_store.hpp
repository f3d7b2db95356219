// Sharded passive-DNS ingest — the scale-out path for mirroring an SIE-size
// feed (the paper aggregates 1.07 T NXDomain responses; one thread appending
// to one store caps every benchmark far below that).
//
// Design (ZDNS-style shard-per-worker, deterministic fold):
//   - observations are hash-partitioned by *registered domain*, so every
//     aggregate a single store maintains (per-domain, per-TLD distinct
//     counts) lives entirely inside one shard;
//   - each shard is an ordinary PassiveDnsStore owned by exactly one worker
//     during a batch — the hot path takes no locks and shares no mutable
//     state;
//   - ingest_frames() is the one ingest entry: SIE batch frames validate in
//     place (FrameView, reject-whole) and the caller's thread routes each
//     ObservationView into a fixed-capacity SPSC ring (one per shard, caller
//     the single producer, the shard's worker the single consumer), so
//     shards fold the head of a batch while the tail is still being routed,
//     with no per-observation allocation between the wire and the
//     aggregates.  A pool with fewer workers than shards routes and folds
//     inline on the caller's thread instead.  Observation batches are
//     encoded once at the edge (encode_batch_frame), so every path into a
//     store passes the same validation;
//   - merge() folds the shards into one store via PassiveDnsStore::absorb.
//     Every aggregate is a commutative fold (sum/min/max), so the merged
//     store — and its v2 snapshot, byte for byte — is identical to serial
//     ingest of the same stream (tests/sharded_ingest_test and
//     tests/ingest_fastpath_test pin this).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "pdns/frame_view.hpp"
#include "pdns/store.hpp"
#include "util/worker_pool.hpp"

namespace nxd::pdns {

class ShardedStore {
 public:
  /// At most 256 shards (routing uses one byte per observation); counts are
  /// clamped into [1, 256].
  static constexpr std::size_t kMaxShards = 256;

  explicit ShardedStore(std::size_t shard_count, StoreConfig config = {});

  /// Stable shard routing: FNV-1a over the registered-domain key
  /// (registered_domain_key), mod `shard_count`.  Pure function of the key —
  /// identical on every platform, every thread count, every batch split.
  static std::size_t shard_of_key(std::string_view registered_key,
                                  std::size_t shard_count) noexcept;

  std::size_t shard_count() const noexcept { return shards_.size(); }
  PassiveDnsStore& shard(std::size_t i) { return shards_[i]; }
  const PassiveDnsStore& shard(std::size_t i) const { return shards_[i]; }

  /// Zero-copy pipelined frame ingest.  Each frame is strictly validated
  /// first (FrameView::parse — reject-whole: a broken frame counts in
  /// rejected_frames and adds nothing), then its ObservationViews are
  /// routed into the per-shard rings and folded by shard-local interned
  /// ingest.  Results are
  /// independent of scheduling: each shard sees exactly its observations in
  /// frame order.  Pools with fewer threads than shards (including
  /// zero-thread pools) run inline and serial.  Frames must stay alive for
  /// the duration of the call (views alias frame bytes).
  struct FrameIngestStats {
    std::uint64_t accepted_frames = 0;
    std::uint64_t rejected_frames = 0;
    std::uint64_t observations = 0;  // from accepted frames only
  };
  FrameIngestStats ingest_frames(
      std::span<const std::span<const std::uint8_t>> frames,
      util::WorkerPool& pool);

  /// Copy-on-checkpoint hand-off: move every shard store out (the immutable
  /// snapshot a background delta checkpoint serializes) and replace it with
  /// a fresh empty shard.  Counts already published stay published.
  std::vector<PassiveDnsStore> take_shards();

  /// Fold all shards into a single store; snapshot byte-identical to serial
  /// ingest of the same observation stream.
  PassiveDnsStore merge() const;

  // Summed scalar counters (no merge required).
  std::uint64_t total_observations() const noexcept {
    return sum(&IngestTotals::observations);
  }
  std::uint64_t nx_responses() const noexcept {
    return sum(&IngestTotals::nx_responses);
  }
  std::uint64_t servfail_responses() const noexcept {
    return sum(&IngestTotals::servfail_responses);
  }

  /// Fold the counts kept since construction (frames, batch sizes, and
  /// each shard's ingest totals under {shard="i"}, grown per ingest_frames
  /// call, so take_shards loses none) into `registry`; count there after.
  void bind_metrics(obs::MetricsRegistry& registry);

 private:
  struct Metrics {
    obs::Counter batches;
    obs::LatencyHistogram batch_observations;
    std::vector<IngestCounters> shards;
  };

  void acquire_metrics(obs::MetricsRegistry& registry);
  std::uint64_t sum(std::uint64_t IngestTotals::*total) const noexcept;

  /// Per-shard SPSC ring capacity for the pipelined path.  Deep enough to
  /// absorb scheduling jitter, small enough to stay cache-resident.
  static constexpr std::size_t kRingCapacity = 4096;

  StoreConfig config_;
  std::vector<PassiveDnsStore> shards_;
  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  Metrics m_;
};

}  // namespace nxd::pdns
