// Crash-safe persistence for the passive-DNS pipeline — the missing
// durability half of the paper's "mirror the feed before analysing it"
// methodology (§3.1 mirrors Farsight into BigQuery; a collector that loses
// observations on a crash silently skews every downstream figure).
//
// A DurableStore wraps the in-memory PassiveDnsStore/ShardedStore pair with
// a group-committed write-ahead log (pdns/wal.hpp) and incremental,
// background checkpoints pinned by a checksummed recovery manifest
// (pdns/manifest.hpp):
//
//   ingest:      producers submit a validated SIE batch frame; a dedicated
//                WAL writer coalesces everything queued into one group —
//                one append run, ONE fsync — applies the group zero-copy
//                (FrameView straight from the record payloads), then acks
//                every rider.  The group window (max bytes / max batches /
//                linger deadline) bounds how long a rider can wait.
//   checkpoint:  every `delta_every_batches` acked batches the writer moves
//                the tail shards out (copy-on-checkpoint: the live tail is
//                replaced, the frozen shards become an immutable snapshot)
//                and hands them to a background worker, which writes one
//                delta file per non-empty shard, then commits a manifest
//                pinning {base image, delta chain, WAL floor}.  Ingest never
//                waits for serialization.  Every `compact_every_deltas`
//                rounds the worker folds the chain into a fresh full base.
//   open:        one read-only scan decides recovery, and fsck() reports
//                that same scan: the newest manifest whose base and deltas
//                all load wins (else the newest valid bare base); its
//                frontier is restored byte-exactly, then the WAL run — seq
//                frontier+1, frontier+2, ... in segment order — replays
//                zero-copy on top.  Stale records (seq ≤ frontier) are
//                skipped, damage ends only its own segment, and the first
//                sequence gap ends the run.  A corrupt manifest, base, or
//                delta degrades to the previous manifest plus a longer
//                replay — retention (keep two manifests, keep WAL back to
//                the OLDER one's floor) makes that fallback sufficient
//                under any single fault.  Before arming its new segment,
//                open removes every WAL byte it refused.  Never data loss,
//                never a partial image.
//
// Invariants (pinned by tests/crash_recovery_test.cpp across the full
// CrashPoint matrix — kill, torn write, bit flip, short write, fsync stall,
// ENOSPC — at every enumerated injection point):
//   - no acked batch is ever lost: acked ⊆ recovered;
//   - no unacked batch is ever partially applied: recovery admits whole
//     batches only (a torn group record truncates at a batch boundary), and
//     recovered ⊆ submitted;
//   - in synchronous mode (groups of one) recovery yields exactly the acked
//     batches, or acked+1 when the crash hit after the record reached the
//     file but before the ack — the same contract databases give;
//   - byte-exactness: the recovered store's v2 snapshot equals, byte for
//     byte, an uninterrupted serial ingest of the recovered batch prefix.
//
// `Config::synchronous` runs the identical commit/checkpoint protocol
// inline on the caller's thread (groups of one, checkpoints synchronous) so
// the crash harness can enumerate injection points deterministically; the
// default threaded mode is covered by the TSan duplicate suites and the
// differential byte-identity tests.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/pressure.hpp"
#include "obs/span.hpp"
#include "pdns/manifest.hpp"
#include "pdns/sharded_store.hpp"
#include "pdns/store.hpp"
#include "pdns/wal.hpp"
#include "util/checked_io.hpp"
#include "util/worker_pool.hpp"

namespace nxd::pdns {

class DurableStore {
 public:
  /// Bounds on a single commit group, so one straggler batch can never
  /// starve the acks of everything queued behind it.
  struct GroupWindow {
    /// Close the group once it holds this many batches.
    std::size_t max_batches = 64;
    /// ... or this many frame bytes.
    std::uint64_t max_bytes = 8u << 20;
    /// After the first batch is taken, linger up to this long for more
    /// riders before paying the fsync.  0 = commit whatever is queued
    /// immediately (riders still coalesce naturally while an fsync is in
    /// flight, which is where group commit earns its keep).
    std::uint32_t linger_us = 0;
  };

  struct Config {
    /// >1 routes every batch through a ShardedStore + worker pool (the PR 2
    /// parallel path); 1 keeps ingest inline.  Either way the persisted
    /// snapshot is byte-identical to serial ingest.
    std::size_t shard_count = 1;
    /// Hand the tail to a background delta checkpoint every N acked
    /// batches; 0 = manual checkpoints only.
    std::uint64_t delta_every_batches = 0;
    /// Fold the delta chain into a fresh full base every N delta rounds
    /// (bounds recovery's chain-walk length); 0 = never auto-compact.
    std::uint64_t compact_every_deltas = 8;
    GroupWindow group_window;
    /// Run the commit and checkpoint protocol inline on the caller's thread
    /// (no writer/checkpoint threads): groups of one, deterministic file-op
    /// ordering — the crash-enumeration harness mode.
    bool synchronous = false;
    Wal::Config wal;
    StoreConfig store;
  };

  struct RecoveryInfo {
    bool snapshot_loaded = false;  ///< a manifest chain or legacy base was restored
    std::uint64_t snapshot_batches = 0;     ///< frontier it covered
    std::uint64_t replayed_batches = 0;     ///< WAL tail applied on top
    std::uint64_t stale_batches_skipped = 0;  ///< seq ≤ frontier (truncation raced a crash)
    std::uint64_t invalid_manifests = 0;    ///< corrupt/unusable manifests skipped
    std::uint64_t corrupt_chain_files = 0;  ///< base/delta files that failed validation
    std::uint64_t invalid_snapshots = 0;    ///< corrupt legacy full snapshots skipped
    std::uint64_t deltas_absorbed = 0;      ///< chain files folded into the base
    std::uint64_t orphaned_chain_files = 0; ///< chain files no valid manifest references
    std::uint64_t discarded_wal_bytes = 0;  ///< refused WAL bytes, removed
    std::uint64_t removed_tmp_files = 0;    ///< uncommitted temporaries swept
    bool wal_tail_truncated = false;  ///< damaged tails or records past a gap
    /// The newest manifest was unusable and recovery fell back to an older
    /// frontier (single-fault degradation: same batches, longer replay).
    bool frontier_degraded = false;
    /// The WAL run hit a sequence gap — only possible under multiple
    /// independent faults.  Replay stops at the gap so the state is still
    /// an exact serial prefix.
    bool wal_gap_detected = false;
  };

  /// Open-or-recover: restores the winning frontier, replays the WAL run,
  /// removes the WAL bytes it refused, and arms a fresh WAL segment plus
  /// the writer/checkpoint machinery.  On a fresh directory this is simply
  /// "create".  nullopt only when the directory is unusable (or the
  /// injected crash fires during setup or the idempotent repair).
  static std::optional<DurableStore> open(std::string dir, Config config,
                                          util::CrashPoint* crash = nullptr);

  DurableStore(DurableStore&&) noexcept;
  DurableStore& operator=(DurableStore&&) noexcept;
  /// Drains the submission queue (remaining riders are committed) and joins
  /// the background threads.
  ~DurableStore();

  /// False once a (simulated or real) I/O failure killed the collector;
  /// every later ingest/checkpoint refuses.
  bool ok() const noexcept;
  const std::string& dir() const noexcept;
  const Config& config() const noexcept;
  const RecoveryInfo& recovery() const noexcept;

  /// Durable (acked or recovered) batches so far.
  std::uint64_t committed_batches() const noexcept;
  std::uint64_t checkpoints_taken() const noexcept;

  /// The one ingest entry: queue an SIE batch frame (Observation batches
  /// are encoded once at the edge with encode_batch_frame) and return its
  /// ticket without waiting.  The frame is strictly validated first
  /// (FrameView::parse, reject-whole): an invalid frame must never reach
  /// the log, where it would read as corruption on replay and truncate
  /// every acked batch behind it.  Returns 0 when the store is dead or the
  /// frame invalid.  A single producer that keeps a few frames in flight
  /// lets the writer form real multi-batch groups (one fsync for all of
  /// them); wait_batch() on each ticket is the synchronous form.
  std::uint64_t submit_frame(std::span<const std::uint8_t> frame);
  /// Wait for a submitted ticket; true == that batch is durably acked and
  /// survives any crash from here on.  False (including for ticket 0) means
  /// the batch is uncommitted — recovery may admit it only if its record
  /// reached the file intact before the death, never a partial batch.
  bool wait_batch(std::uint64_t ticket);
  /// Wait until everything submitted so far is decided (acked or failed).
  bool wait_durable();

  /// Forced full compaction: fold everything committed into a fresh base
  /// image and commit a manifest with an empty delta chain (then truncate
  /// retired WAL segments).  Synchronous — returns once the manifest is
  /// durable.  Idempotent per committed prefix.
  bool checkpoint();

  /// The full store: base + in-flight checkpoint shards + live tail,
  /// folded exactly.
  PassiveDnsStore materialize() const;
  /// save_snapshot(materialize()) — the byte-equivalence currency the crash
  /// harness and the property tests compare.
  std::vector<std::uint8_t> snapshot_bytes() const;

  // ---- per-stage accounting (bench/wal_throughput) ------------------------
  struct StageStats {
    std::uint64_t groups = 0;        ///< commit groups (== fsyncs paid)
    std::uint64_t batches = 0;       ///< batches those groups carried
    std::uint64_t observations = 0;  ///< observations applied
    std::uint64_t append_ns = 0;     ///< buffered WAL record writes
    std::uint64_t fsync_ns = 0;      ///< group durability barriers
    std::uint64_t apply_ns = 0;      ///< zero-copy tail ingest
    std::uint64_t checkpoint_ns = 0; ///< background delta/compaction work
    std::uint64_t deltas_written = 0;
    std::uint64_t compactions = 0;
    /// group_size_log2[i] counts groups of 2^i .. 2^(i+1)-1 batches.
    std::array<std::uint64_t, 18> group_size_log2{};
  };
  StageStats stage_stats() const;

  // ---- read-only inspection (nxdtool fsck) -------------------------------
  struct FsckSnapshot {
    std::string path;
    std::uint64_t batches = 0;
    bool valid = false;
  };
  struct FsckManifest {
    std::string path;
    std::uint64_t frontier = 0;
    bool decodable = false;  ///< record + header parse
    bool usable = false;     ///< every chain file it references validates
    std::uint64_t chain_deltas = 0;
  };
  struct FsckReport {
    std::vector<FsckManifest> manifests;  ///< newest first
    std::vector<FsckSnapshot> snapshots;  ///< base images, newest first
    std::uint64_t frontier = 0;  ///< the frontier open() restores
    std::uint64_t best_snapshot_batches = 0;  ///< base image behind `frontier`
    std::uint64_t chain_deltas = 0;  ///< delta files behind `frontier`
    std::uint64_t orphaned_chain_files = 0;  ///< referenced by no valid manifest
    std::uint64_t wal_segments = 0;
    std::uint64_t wal_records = 0;
    std::uint64_t replayable_batches = 0;  ///< WAL batches past the frontier
    std::uint64_t stale_batches = 0;
    std::uint64_t recoverable_batches = 0;  ///< frontier + replayable
    /// Recovery work accumulated since the last full base: delta files to
    /// absorb plus WAL batches to replay.  What `nxdtool recover` (forced
    /// compaction) would reduce to zero.
    std::uint64_t compaction_debt = 0;
    std::uint64_t discarded_wal_bytes = 0;  ///< refused bytes open removes
    std::uint64_t tmp_files = 0;  ///< leftover uncommitted temporaries
    bool wal_tail_truncated = false;  ///< refused WAL bytes exist
    /// True when nothing needs repair: no corrupt manifests or chain files,
    /// no orphans, no refused WAL bytes, no leftover temporaries.
    bool clean = true;
  };
  /// The scan open() applies, read-only: `frontier` and
  /// `recoverable_batches` are what open() would restore.  Only fsck
  /// validates the chains of manifests older than the winner.
  static FsckReport fsck(const std::string& dir);

  /// Fold everything counted since open (recovered batches, WAL groups,
  /// checkpoints, the tail's frames and per-shard series across every
  /// hand-off) into `registry` and count there from then on.  The registry
  /// must outlive the store.
  void bind_metrics(obs::MetricsRegistry& registry);

  /// Emit spans for commit groups ("wal_group" with wal_append / wal_fsync /
  /// wal_apply / ckpt_handoff children, keyed by the group's last batch seq)
  /// and checkpoints ("checkpoint", keyed by checkpoint number).  Timestamps
  /// are steady-clock nanoseconds since store open — real time, so tests
  /// assert nesting invariants, not exact values.  The tracer must outlive
  /// the store; nullptr stops emission.
  void trace_spans(obs::SpanTracer* spans);

  // ---- degradation ladder (obs::PressureSignal) ---------------------------
  /// Inputs for the system-wide pressure signal: WAL group-commit lag
  /// (batches submitted but not yet decided) and checkpoint debt (batches
  /// applied since the last delta checkpoint plus the delta-chain length a
  /// recovery would replay through).  Safe from any thread; takes each
  /// internal lock briefly and never nested.
  obs::PressureInputs pressure_inputs() const;

  /// pressure_inputs() fed straight into `signal` — the one-call ladder
  /// pump front-ends poll between batches.
  obs::PressureLevel feed_pressure(obs::PressureSignal& signal,
                                   util::SimTime now) const {
    return signal.update(pressure_inputs(), now);
  }

 private:
  struct Core;

  explicit DurableStore(std::unique_ptr<Core> core);

  std::unique_ptr<Core> core_;
};

}  // namespace nxd::pdns
