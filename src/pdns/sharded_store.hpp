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
//   - routing and shard ingest *pipeline*: the caller's thread routes each
//     observation into a fixed-capacity SPSC ring (one per shard, caller is
//     the single producer, the shard's worker the single consumer), so
//     shards start folding the head of a batch while the tail is still being
//     routed.  When the pool is too small to dedicate a worker per shard the
//     path falls back to the original two-pass partition/ingest barrier;
//   - ingest_frames() is the zero-copy front end: SIE frames validate
//     in place (FrameView, reject-whole) and ObservationViews flow through
//     the same rings straight into shard-local interned ingest — no
//     per-observation allocation anywhere between the wire and the
//     aggregates;
//   - merge() folds the shards into one store via PassiveDnsStore::absorb.
//     Every aggregate is a commutative fold (sum/min/max), so the merged
//     store — and its v2 snapshot, byte for byte — is identical to serial
//     ingest of the same stream (tests/sharded_ingest_test and
//     tests/ingest_fastpath_test pin this for both front ends).
#pragma once

#include <cstdint>
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

  /// Stable shard routing: FNV-1a over the registered-domain key, mod
  /// `shard_count`.  Pure function of the name — identical on every
  /// platform, every thread count, every batch split.
  static std::size_t shard_of(const dns::DomainName& name,
                              std::size_t shard_count) noexcept;

  /// Same routing from an already-composed registered-domain key (the
  /// zero-copy path has the key as a view into the frame, no DomainName).
  static std::size_t shard_of_key(std::string_view registered_key,
                                  std::size_t shard_count) noexcept;

  std::size_t shard_count() const noexcept { return shards_.size(); }
  PassiveDnsStore& shard(std::size_t i) { return shards_[i]; }
  const PassiveDnsStore& shard(std::size_t i) const { return shards_[i]; }

  /// Route a single observation to its shard (serial; for SIE subscribers).
  void ingest(const Observation& obs);

  /// Parallel batch ingest.  With a worker per shard available, routing and
  /// ingest pipeline through per-shard SPSC rings: the calling thread is the
  /// single producer (computes each observation's route, pushes a pointer),
  /// each shard's worker the single consumer.  Results are independent of
  /// scheduling — each shard still sees exactly its observations in batch
  /// order.  Pools with fewer threads than shards fall back to the two-pass
  /// partition/ingest barrier; zero-thread pools run serially inline.
  void ingest_batch(std::span<const Observation> batch, util::WorkerPool& pool);

  /// Zero-copy pipelined frame ingest.  Each frame is strictly validated
  /// first (FrameView::parse — reject-whole, identical acceptance to
  /// decode_batch_frame), then its ObservationViews are routed into the
  /// per-shard rings and folded by shard-local interned ingest.  No
  /// per-observation allocation.  Frames must stay alive for the duration
  /// of the call (views alias frame bytes).
  struct FrameIngestStats {
    std::uint64_t accepted_frames = 0;
    std::uint64_t rejected_frames = 0;
    std::uint64_t observations = 0;  // from accepted frames only
  };
  FrameIngestStats ingest_frames(
      std::span<const std::vector<std::uint8_t>> frames,
      util::WorkerPool& pool);

  /// Same zero-copy path over borrowed frame bytes — the WAL group-commit
  /// writer applies a group straight from its record payloads without
  /// copying them into vectors first.
  FrameIngestStats ingest_frames(
      std::span<const std::span<const std::uint8_t>> frames,
      util::WorkerPool& pool);

  /// Copy-on-checkpoint hand-off: move every shard store out (the immutable
  /// snapshot a background delta checkpoint serializes) and replace it with
  /// a fresh empty shard.  Metrics bindings do not survive the swap —
  /// callers that bound metrics must re-bind afterwards.
  std::vector<PassiveDnsStore> take_shards();

  /// Fold all shards into a single store; snapshot byte-identical to serial
  /// ingest of the same observation stream.
  PassiveDnsStore merge() const;

  // Summed scalar counters (no merge required).
  std::uint64_t total_observations() const noexcept;
  std::uint64_t nx_responses() const noexcept;
  std::uint64_t servfail_responses() const noexcept;

  /// Bind every shard's store counters under a {shard="i"} label, plus
  /// batch-level counters (batches ingested, batch-size histogram).
  void bind_metrics(obs::MetricsRegistry& registry);

 private:
  struct Metrics {
    obs::Counter batches;
    obs::LatencyHistogram batch_observations;
  };

  /// Per-shard SPSC ring capacity for the pipelined paths.  Deep enough to
  /// absorb scheduling jitter, small enough to stay cache-resident.
  static constexpr std::size_t kRingCapacity = 4096;

  void ingest_batch_twopass(std::span<const Observation> batch,
                            util::WorkerPool& pool);

  StoreConfig config_;
  std::vector<PassiveDnsStore> shards_;
  Metrics m_;  // null handles until bind_metrics()
};

}  // namespace nxd::pdns
