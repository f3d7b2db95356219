// Crash-safe file primitives for the durable ingest path (pdns::Wal,
// pdns::DurableStore): CRC32C-framed record writer/reader plus atomic file
// commit (write temp → flush → rename), with an injectable, seeded
// CrashPoint hook that simulates a process dying at any I/O boundary.
//
// Record framing (all integers big-endian, matching the snapshot codec):
//   per record: magic "CKR1" u32 | payload_len u32 | crc32c(payload) u32 |
//               payload bytes
// A reader scans the valid record prefix and stops at the first torn,
// oversized, or checksum-failing record — the tail is truncated, never
// partially admitted, which is what gives the WAL its all-or-nothing batch
// semantics.
//
// One buffer per record: an encoder builds the payload after
// kRecordHeaderBytes of headroom, and the writer fills the header in place,
// so framing never copies a payload.  Readers hand out spans into the file
// buffer instead of copying each record out.
//
// Crash model: the process can die at any *operation* boundary — a record
// write, a flush, a file open, a rename, a truncation, or an unlink.  Every
// boundary asks the CrashPoint (when armed) whether to proceed; a triggered
// crash latches, so every later operation fails too, exactly like code
// running after the kill would never run.  Failure modes cover both sides
// of an operation:
//
//   Kill        die before the op takes effect (classic power cut);
//   Torn        write op: a seeded strict prefix reaches the file, then die;
//   BitFlip     write op: flip one seeded bit, write fully, then die
//               (media corruption);
//   ShortWrite  write op: a near-complete prefix reaches the file (the
//               classic partial write(2) return), then die — headers land,
//               payload tails are cut;
//   FsyncStall  the op COMPLETES (the fsync/rename/unlink happened, the
//               kernel owns the result) but the process dies before it can
//               observe success — the durable-but-unacked window group
//               commit must survive;
//   Enospc      write op: a seeded small prefix lands, then the write fails
//               (out of space) and the process dies.
//
// The same object in Mode::None is a pure counter, which is how the crash
// harness discovers how many injection points a scripted run has.  The
// op/crash bookkeeping is atomic so a CrashPoint may be *observed* from any
// thread; deterministic enumeration additionally requires that all guarded
// I/O runs on one thread (DurableStore::Config::synchronous).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nxd::util {

/// Largest record the reader will admit; bigger length fields are treated as
/// corruption (a flipped length byte must not trigger a giant allocation).
inline constexpr std::uint32_t kMaxRecordBytes = 1u << 26;  // 64 MiB
/// Framing bytes in front of every record's payload (magic + len + crc).
inline constexpr std::size_t kRecordHeaderBytes = 12;

class CrashPoint {
 public:
  enum class Mode : std::uint8_t {
    None,        ///< never crash; count operations (discovery pass)
    Kill,        ///< die before the trigger op takes effect
    Torn,        ///< write op: a seeded strict prefix reaches the file, then die
    BitFlip,     ///< write op: flip one seeded bit, write fully, then die
    ShortWrite,  ///< write op: near-complete prefix (partial write), then die
    FsyncStall,  ///< op completes, process dies before observing success
    Enospc,      ///< write op: small prefix lands, write fails (no space), die
  };

  /// Every injectable failure mode, in a stable order (test matrices).
  static constexpr Mode kAllModes[] = {Mode::Kill,       Mode::Torn,
                                       Mode::BitFlip,    Mode::ShortWrite,
                                       Mode::FsyncStall, Mode::Enospc};

  /// What a non-data boundary (open, flush, rename, unlink) must do.
  enum class Barrier : std::uint8_t {
    Proceed,   ///< op happens, process lives
    Die,       ///< process is dead; the op must NOT happen
    DieAfter,  ///< perform the op, then report failure (died before the ack)
  };

  /// Disabled hook: counts boundaries, never crashes.
  CrashPoint() = default;

  CrashPoint(std::uint64_t trigger_op, Mode mode,
             std::uint64_t seed = 0) noexcept
      : trigger_(trigger_op), seed_(seed), mode_(mode) {}

  std::uint64_t ops_seen() const noexcept {
    return ops_.load(std::memory_order_relaxed);
  }
  bool crashed() const noexcept {
    return crashed_.load(std::memory_order_relaxed);
  }

  // ---- hooks called by the I/O layer ------------------------------------
  /// Write boundary.  `buf` is the exact byte sequence about to reach the
  /// file; BitFlip mutates it in place.  Returns how many leading bytes are
  /// still written before the (possible) death — buf.size() when the op
  /// proceeds normally, 0 for every op after the crash.
  std::size_t on_write(std::vector<std::uint8_t>& buf) noexcept;

  /// Non-data boundary (open, flush, rename, truncate, unlink).  Die = the
  /// simulated process is dead and the operation must not happen; DieAfter
  /// = perform the operation, then fail (FsyncStall: the barrier landed on
  /// disk but nobody lived to see it).
  Barrier on_barrier() noexcept;

 private:
  std::uint64_t trigger_ = 0;
  std::uint64_t seed_ = 0;
  std::atomic<std::uint64_t> ops_{0};
  Mode mode_ = Mode::None;
  std::atomic<bool> crashed_{false};
};

/// Append-only writer of CRC32C-framed records, every operation guarded by
/// the (optional) CrashPoint.  Always creates/truncates its file: segments
/// and snapshot temps are never re-opened for append, so recovery can treat
/// any existing bytes as immutable history.
class CheckedWriter {
 public:
  static std::optional<CheckedWriter> open(std::string path,
                                           CrashPoint* crash = nullptr);

  CheckedWriter(CheckedWriter&&) = default;
  CheckedWriter& operator=(CheckedWriter&&) = default;

  bool ok() const noexcept { return ok_; }
  const std::string& path() const noexcept { return path_; }
  std::uint64_t bytes_written() const noexcept { return bytes_; }

  /// Write one record built in place: `record` is kRecordHeaderBytes of
  /// headroom followed by the payload.  Fills the header and writes the
  /// buffer as one operation (buffered — not durable until flush()).  A
  /// BitFlip crash flips its bit in `record` itself.
  bool append_framed(std::vector<std::uint8_t>& record);

  /// fflush + fsync — the durability barrier an ack rides on.
  bool flush();

  /// Flush and close the handle; the writer is unusable afterwards.
  bool close();

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const noexcept {
      if (f != nullptr) std::fclose(f);
    }
  };

  CheckedWriter(std::string path, std::FILE* file, CrashPoint* crash)
      : path_(std::move(path)), file_(file), crash_(crash) {}

  bool write_guarded(std::vector<std::uint8_t>& bytes);

  std::string path_;
  std::unique_ptr<std::FILE, FileCloser> file_;
  CrashPoint* crash_ = nullptr;
  std::uint64_t bytes_ = 0;
  bool ok_ = true;
};

/// Result of scanning a byte range for framed records.  The record spans
/// point into the scanned bytes and live as long as they do.
struct RecordScan {
  std::vector<std::span<const std::uint8_t>> records;  ///< valid prefix, in order
  std::uint64_t valid_bytes = 0;   ///< offset where the valid prefix ends
  std::uint64_t total_bytes = 0;   ///< input size
  bool truncated_tail = false;     ///< bytes past the valid prefix existed
};

RecordScan scan_records(std::span<const std::uint8_t> bytes);

/// Read a whole regular file into a buffer sized from fstat; nullopt when
/// it cannot be opened, is not a regular file, a read fails, or fewer bytes
/// arrive than fstat reported.
std::optional<std::vector<std::uint8_t>> read_file(const std::string& path);

/// Atomic commit: write `record` (kRecordHeaderBytes of headroom, then the
/// payload, as for CheckedWriter::append_framed) as the single record of
/// `path.tmp`, flush, fsync, then rename over `path`.  Either the old file
/// or the complete new one survives a crash — never a torn mixture.  (Under
/// Mode::FsyncStall at the rename boundary the new file IS committed; the
/// false return models the death before the caller could record success.)
bool write_record_atomic(const std::string& path,
                         std::vector<std::uint8_t> record,
                         CrashPoint* crash = nullptr);

/// Read back a file written by write_record_atomic: exactly one valid record
/// and nothing after it, else nullopt.  The payload is read straight into
/// the returned buffer.
std::optional<std::vector<std::uint8_t>> read_file_checked(
    const std::string& path);

/// Crash-guarded unlink.  True when the file is gone (or never existed).
bool remove_file(const std::string& path, CrashPoint* crash = nullptr);

/// Crash-guarded, durable truncation: cut `path` to its first `size` bytes
/// and fsync it, as one operation.
bool truncate_file(const std::string& path, std::uint64_t size,
                   CrashPoint* crash = nullptr);

/// Value of a file name "<prefix><decimal digits><suffix>"; nullopt for any
/// other shape, including digits past UINT64_MAX (a stray name must never
/// wrap onto a small number the store then reads or deletes).
std::optional<std::uint64_t> parse_numbered(std::string_view filename,
                                            std::string_view prefix,
                                            std::string_view suffix);

/// Every regular file in `dir` that parse_numbered accepts, as (value, path)
/// pairs in ascending order (descending with `newest_first`).
std::vector<std::pair<std::uint64_t, std::string>> list_numbered(
    const std::string& dir, std::string_view prefix, std::string_view suffix,
    bool newest_first = false);

}  // namespace nxd::util
