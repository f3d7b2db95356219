#include "util/checked_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <filesystem>

#include "util/bytes.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"

namespace nxd::util {

namespace {

constexpr std::uint32_t kRecordMagic = 0x434b5231;  // "CKR1"

struct RecordHeader {
  std::uint32_t magic;
  std::uint32_t len;
  std::uint32_t crc;

  explicit RecordHeader(const std::uint8_t* p) noexcept
      : magic(load_be32(p)), len(load_be32(p + 4)), crc(load_be32(p + 8)) {}

  /// Magic and length are plausible for a record with `available` bytes
  /// after its header (the CRC is checked once the payload is at hand).
  bool fits(std::uint64_t available) const noexcept {
    return magic == kRecordMagic && len <= kMaxRecordBytes && len <= available;
  }
};

/// An open read-only descriptor on a regular file, with its fstat size.
class FileReader {
 public:
  explicit FileReader(const std::string& path)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
    struct stat st {};
    if (fd_ >= 0 && ::fstat(fd_, &st) == 0 && S_ISREG(st.st_mode)) {
      size_ = static_cast<std::uint64_t>(st.st_size);
      ok_ = true;
    }
  }
  FileReader(const FileReader&) = delete;
  FileReader& operator=(const FileReader&) = delete;
  ~FileReader() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const noexcept { return ok_; }
  std::uint64_t size() const noexcept { return size_; }

  /// Read exactly `n` bytes into `dst`; false on an error or an early end.
  bool read_exact(std::uint8_t* dst, std::size_t n) noexcept {
    while (n > 0) {
      const ssize_t got = ::read(fd_, dst, n);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return false;
      dst += got;
      n -= static_cast<std::size_t>(got);
    }
    return true;
  }

 private:
  int fd_;
  std::uint64_t size_ = 0;
  bool ok_ = false;
};

}  // namespace

// ---------------------------------------------------------------- CrashPoint

std::size_t CrashPoint::on_write(std::vector<std::uint8_t>& buf) noexcept {
  if (crashed_.load(std::memory_order_relaxed)) return 0;
  const std::uint64_t op = ops_.fetch_add(1, std::memory_order_relaxed);
  if (mode_ == Mode::None || op != trigger_) return buf.size();
  crashed_.store(true, std::memory_order_relaxed);
  // Seed the mutation from (seed, trigger) so every enumerated crash point
  // tears/flips at a different, reproducible position.
  Rng rng(SplitMix64{seed_ ^ (trigger_ * 0x9e3779b97f4a7c15ULL)}.next());
  switch (mode_) {
    case Mode::Kill:
      return 0;
    case Mode::Torn:
      return buf.empty() ? 0 : static_cast<std::size_t>(rng.bounded(buf.size()));
    case Mode::BitFlip:
      if (!buf.empty()) {
        buf[rng.bounded(buf.size())] ^=
            static_cast<std::uint8_t>(1u << rng.bounded(8));
      }
      return buf.size();
    case Mode::ShortWrite: {
      // A partial write(2) return: all but the last 1..16 bytes land, so
      // record headers survive while the payload tail is cut.
      if (buf.empty()) return 0;
      const std::size_t cut =
          1 + static_cast<std::size_t>(rng.bounded(std::min<std::uint64_t>(
                  16, static_cast<std::uint64_t>(buf.size()))));
      return buf.size() - std::min(cut, buf.size());
    }
    case Mode::FsyncStall:
      // The write itself completes; the death happens before the caller can
      // observe success (write_guarded still reports failure).
      return buf.size();
    case Mode::Enospc:
      // Device full: a small prefix lands, the rest is refused.
      return static_cast<std::size_t>(rng.bounded(buf.size() / 2 + 1));
    case Mode::None:
      break;
  }
  return buf.size();
}

CrashPoint::Barrier CrashPoint::on_barrier() noexcept {
  if (crashed_.load(std::memory_order_relaxed)) return Barrier::Die;
  const std::uint64_t op = ops_.fetch_add(1, std::memory_order_relaxed);
  if (mode_ == Mode::None || op != trigger_) return Barrier::Proceed;
  crashed_.store(true, std::memory_order_relaxed);
  // FsyncStall is the "durable but unobserved" failure: the barrier op
  // (fsync, rename, unlink) reaches the kernel, then the process dies.  All
  // other modes kill the process before the op takes effect.
  return mode_ == Mode::FsyncStall ? Barrier::DieAfter : Barrier::Die;
}

// ------------------------------------------------------------- CheckedWriter

std::optional<CheckedWriter> CheckedWriter::open(std::string path,
                                                 CrashPoint* crash) {
  const auto barrier =
      crash != nullptr ? crash->on_barrier() : CrashPoint::Barrier::Proceed;
  if (barrier == CrashPoint::Barrier::Die) return std::nullopt;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return std::nullopt;
  if (barrier == CrashPoint::Barrier::DieAfter) {
    // The (empty) file was created, but the process died holding the handle.
    std::fclose(f);
    return std::nullopt;
  }
  return CheckedWriter(std::move(path), f, crash);
}

bool CheckedWriter::write_guarded(std::vector<std::uint8_t>& bytes) {
  if (!ok_ || file_ == nullptr) return false;
  std::size_t to_write = bytes.size();
  bool dies = false;
  if (crash_ != nullptr) {
    to_write = crash_->on_write(bytes);
    dies = crash_->crashed();
  }
  if (to_write > 0) {
    if (std::fwrite(bytes.data(), 1, to_write, file_.get()) != to_write) {
      ok_ = false;
      return false;
    }
    bytes_ += to_write;
  }
  if (dies) {
    // Whatever the torn write left behind must be on disk (the kernel, not
    // the dead process, owns those bytes) before we refuse further work.
    std::fflush(file_.get());
    ok_ = false;
    return false;
  }
  return true;
}

bool CheckedWriter::append_framed(std::vector<std::uint8_t>& record) {
  if (record.size() < kRecordHeaderBytes ||
      record.size() - kRecordHeaderBytes > kMaxRecordBytes) {
    ok_ = false;
    return false;
  }
  const auto payload = std::span(record).subspan(kRecordHeaderBytes);
  store_be32(record.data(), kRecordMagic);
  store_be32(record.data() + 4, static_cast<std::uint32_t>(payload.size()));
  store_be32(record.data() + 8, crc32c(payload));
  return write_guarded(record);
}

bool CheckedWriter::flush() {
  if (!ok_ || file_ == nullptr) return false;
  const auto barrier =
      crash_ != nullptr ? crash_->on_barrier() : CrashPoint::Barrier::Proceed;
  if (barrier == CrashPoint::Barrier::Die) {
    // Died before the fsync: buffered bytes may still reach the file (the
    // kernel owns the stdio buffer's destiny only after fflush; model the
    // conservative case where they do land but were never made durable).
    std::fflush(file_.get());
    ok_ = false;
    return false;
  }
  if (std::fflush(file_.get()) != 0 || ::fsync(fileno(file_.get())) != 0) {
    ok_ = false;
    return false;
  }
  if (barrier == CrashPoint::Barrier::DieAfter) {
    // The fsync completed — the data IS durable — but the process stalled in
    // the syscall and died before returning success to the caller.
    ok_ = false;
    return false;
  }
  return true;
}

bool CheckedWriter::close() {
  const bool flushed = flush();
  file_.reset();
  ok_ = false;  // closed writers accept no more work
  return flushed;
}

// --------------------------------------------------------------- record scan

RecordScan scan_records(std::span<const std::uint8_t> bytes) {
  RecordScan out;
  out.total_bytes = bytes.size();
  std::size_t at = 0;
  while (bytes.size() - at >= kRecordHeaderBytes) {
    const RecordHeader header(bytes.data() + at);
    if (!header.fits(bytes.size() - at - kRecordHeaderBytes)) break;
    const auto payload = bytes.subspan(at + kRecordHeaderBytes, header.len);
    if (crc32c(payload) != header.crc) break;
    out.records.push_back(payload);
    at += kRecordHeaderBytes + header.len;
  }
  out.valid_bytes = at;
  out.truncated_tail = out.valid_bytes != out.total_bytes;
  return out;
}

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  FileReader in(path);
  if (!in.ok()) return std::nullopt;
  std::vector<std::uint8_t> out(in.size());
  if (!in.read_exact(out.data(), out.size())) return std::nullopt;
  return out;
}

// ------------------------------------------------------------- atomic commit

bool write_record_atomic(const std::string& path,
                         std::vector<std::uint8_t> record, CrashPoint* crash) {
  const std::string tmp = path + ".tmp";
  auto writer = CheckedWriter::open(tmp, crash);
  if (!writer) return false;
  if (!writer->append_framed(record)) return false;
  if (!writer->close()) return false;
  const auto barrier =
      crash != nullptr ? crash->on_barrier() : CrashPoint::Barrier::Proceed;
  if (barrier == CrashPoint::Barrier::Die) return false;
  const bool renamed = std::rename(tmp.c_str(), path.c_str()) == 0;
  if (barrier == CrashPoint::Barrier::DieAfter) return false;
  return renamed;
}

std::optional<std::vector<std::uint8_t>> read_file_checked(
    const std::string& path) {
  FileReader in(path);
  std::uint8_t head[kRecordHeaderBytes];
  if (!in.ok() || in.size() < kRecordHeaderBytes ||
      !in.read_exact(head, kRecordHeaderBytes)) {
    return std::nullopt;
  }
  // Exactly one record and nothing after it: the length must account for
  // every byte past the header.
  const RecordHeader header(head);
  const std::uint64_t available = in.size() - kRecordHeaderBytes;
  if (!header.fits(available) || header.len != available) return std::nullopt;
  std::vector<std::uint8_t> payload(header.len);
  if (!in.read_exact(payload.data(), payload.size()) ||
      crc32c(payload) != header.crc) {
    return std::nullopt;
  }
  return payload;
}

bool remove_file(const std::string& path, CrashPoint* crash) {
  const auto barrier =
      crash != nullptr ? crash->on_barrier() : CrashPoint::Barrier::Proceed;
  if (barrier == CrashPoint::Barrier::Die) return false;
  std::remove(path.c_str());
  return barrier != CrashPoint::Barrier::DieAfter;
}

bool truncate_file(const std::string& path, std::uint64_t size,
                   CrashPoint* crash) {
  const auto barrier =
      crash != nullptr ? crash->on_barrier() : CrashPoint::Barrier::Proceed;
  if (barrier == CrashPoint::Barrier::Die) return false;
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return false;
  const bool cut = ::ftruncate(fd, static_cast<off_t>(size)) == 0 &&
                   ::fsync(fd) == 0;
  ::close(fd);
  return cut && barrier != CrashPoint::Barrier::DieAfter;
}

std::optional<std::uint64_t> parse_numbered(std::string_view filename,
                                            std::string_view prefix,
                                            std::string_view suffix) {
  if (filename.size() < prefix.size() + suffix.size() ||
      !filename.starts_with(prefix) || !filename.ends_with(suffix)) {
    return std::nullopt;
  }
  const char* first = filename.data() + prefix.size();
  const char* last = filename.data() + filename.size() - suffix.size();
  std::uint64_t value = 0;
  // from_chars takes digits only (no sign or space) and refuses overflow.
  const auto [end, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || end != last || last - first > 20) {
    return std::nullopt;
  }
  return value;
}

std::vector<std::pair<std::uint64_t, std::string>> list_numbered(
    const std::string& dir, std::string_view prefix, std::string_view suffix,
    bool newest_first) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string filename = entry.path().filename().string();
    if (const auto value = parse_numbered(filename, prefix, suffix)) {
      out.emplace_back(*value, entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  if (newest_first) std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace nxd::util
