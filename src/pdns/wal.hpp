// Write-ahead log of SIE batch frames — the durability backbone of the
// passive-DNS collector (pdns::DurableStore).
//
// A WAL directory holds numbered segment files "wal-<index>.log".  Each
// segment is a sequence of CRC32C-framed records (util/checked_io); each
// record's payload is
//
//   batch seq u64 (big-endian) | SIE batch frame bytes (pdns/sie_channel)
//
// so the log reuses the exact strict frame codec the feed plane already
// pins with fuzz tests, and a replayed record can be applied zero-copy
// through pdns::FrameView without re-materializing observations.  Batch
// sequence numbers are global and consecutive starting at 1; the committed
// state of a collector is fully described by "batches 1..N applied".
//
// Group commit: append_frame() only buffers a record; nothing is durable
// until sync() returns true.  DurableStore's writer thread appends a whole
// group of batches and pays one fsync for all of them — the acks ride that
// single barrier; a group of one is simply append_frame() + sync().
//
// Recovery reads each segment on its own: its valid prefix is the run of
// whole records that pass the CRC, strict frame validation, and have a seq
// above every seq read before.  A torn/corrupt record ends its segment — the
// record and everything after it in that segment are refused, so a batch
// whose append was interrupted is never partially visible (a torn group
// record drops whole batches, never fractions of one) — but damage never
// reaches into the next segment.  Which of the valid records replay, and
// which refused bytes recovery removes from disk, is DurableStore's one
// recovery rule (pdns/durable_store.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/checked_io.hpp"

namespace nxd::pdns {

class Wal {
 public:
  struct Config {
    /// Finish the current segment and start the next once it reaches this
    /// many bytes (checked before each append; a single batch may overshoot).
    std::uint64_t segment_max_bytes = 1u << 20;
  };

  /// Open a fresh appender in `dir`, writing segments from `segment_index`
  /// up and numbering batches from `next_seq`.  Never appends to an existing
  /// segment file — after recovery the caller passes the next free index.
  static std::optional<Wal> create(std::string dir, Config config,
                                   std::uint64_t segment_index,
                                   std::uint64_t next_seq,
                                   util::CrashPoint* crash = nullptr);

  bool ok() const noexcept { return ok_; }
  std::uint64_t next_seq() const noexcept { return next_seq_; }
  std::uint64_t segment_index() const noexcept { return segment_index_; }

  /// Buffer one batch (an already-encoded, valid SIE batch frame) as the
  /// next record.  NOT durable until sync() — the group-commit building
  /// block.  The caller guarantees the frame is strictly valid
  /// (DurableStore::submit_frame runs FrameView::parse before it queues);
  /// an invalid frame in the log would read as corruption and truncate the
  /// tail on replay.
  bool append_frame(std::span<const std::uint8_t> frame);

  /// Durability barrier: flush + fsync everything appended so far.  True ==
  /// every batch appended since the last sync is durable and may be acked.
  bool sync();

  /// Close the current segment and start the next one (checkpoint boundary).
  bool rotate();

  /// Delete every segment with index < `keep_from` — checkpoint truncation.
  /// Safe to crash anywhere inside: stale segments are filtered by sequence
  /// number on replay.
  bool drop_segments_below(std::uint64_t keep_from);

  /// Segment truncation without a live Wal (background checkpoint cleanup
  /// runs off the writer thread and must not touch its appender state).
  static bool drop_segments_below(const std::string& dir,
                                  std::uint64_t keep_from,
                                  util::CrashPoint* crash = nullptr);

  // ---- recovery ----------------------------------------------------------
  struct ReplayedBatch {
    std::uint64_t seq = 0;
    /// The raw SIE batch frame, strictly validated (FrameView::parse
    /// accepted it), ready to apply zero-copy.
    std::vector<std::uint8_t> frame;
    std::uint32_t observations = 0;
    std::uint64_t segment = 0;  ///< index of the segment holding the record
    std::uint64_t offset = 0;   ///< where the record starts in that segment
  };
  struct Replay {
    std::vector<ReplayedBatch> batches;  ///< every valid prefix, seq ascending
    /// (index, file bytes) of every segment read, ascending.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> segments;
    /// (index, valid prefix bytes) of every segment with a damaged tail.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cuts;
    std::uint64_t records_scanned = 0;
    std::uint64_t discarded_bytes = 0;  ///< torn/corrupt tail bytes refused
    bool tail_truncated = false;        ///< some segment has a damaged tail
  };
  static Replay replay(const std::string& dir);

  /// Existing segment files, sorted by index.
  static std::vector<std::pair<std::uint64_t, std::string>> list_segments(
      const std::string& dir);
  static std::string segment_path(const std::string& dir, std::uint64_t index);

 private:
  Wal(std::string dir, Config config, std::uint64_t segment_index,
      std::uint64_t next_seq, util::CrashPoint* crash)
      : dir_(std::move(dir)),
        config_(config),
        segment_index_(segment_index),
        next_seq_(next_seq),
        crash_(crash) {}

  bool open_segment();

  std::string dir_;
  Config config_;
  std::uint64_t segment_index_ = 0;
  std::uint64_t next_seq_ = 1;
  util::CrashPoint* crash_ = nullptr;
  std::optional<util::CheckedWriter> writer_;
  std::vector<std::uint8_t> record_;  // the record append_frame builds
  bool ok_ = true;
};

}  // namespace nxd::pdns
