#include "pdns/wal.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "pdns/frame_view.hpp"
#include "util/bytes.hpp"

namespace nxd::pdns {

std::string Wal::segment_path(const std::string& dir, std::uint64_t index) {
  char name[48];
  std::snprintf(name, sizeof(name), "wal-%012" PRIu64 ".log", index);
  return dir + "/" + name;
}

std::vector<std::pair<std::uint64_t, std::string>> Wal::list_segments(
    const std::string& dir) {
  return util::list_numbered(dir, "wal-", ".log");
}

std::optional<Wal> Wal::create(std::string dir, Config config,
                               std::uint64_t segment_index,
                               std::uint64_t next_seq,
                               util::CrashPoint* crash) {
  Wal wal(std::move(dir), config, segment_index, next_seq, crash);
  if (!wal.open_segment()) return std::nullopt;
  return std::optional<Wal>(std::move(wal));
}

bool Wal::open_segment() {
  writer_ = util::CheckedWriter::open(segment_path(dir_, segment_index_), crash_);
  if (!writer_) {
    ok_ = false;
    return false;
  }
  return true;
}

bool Wal::append_frame(std::span<const std::uint8_t> frame) {
  if (!ok_) return false;
  if (writer_->bytes_written() >= config_.segment_max_bytes) {
    // rotate() closes with a flush, so a group may span segments; the acks
    // still wait for the final sync().
    if (!rotate()) return false;
  }
  // The record is built in one reused buffer: header headroom, seq, frame.
  record_.resize(util::kRecordHeaderBytes + 8 + frame.size());
  util::store_be64(record_.data() + util::kRecordHeaderBytes, next_seq_);
  std::copy(frame.begin(), frame.end(),
            record_.begin() + util::kRecordHeaderBytes + 8);
  if (!writer_->append_framed(record_)) {
    ok_ = false;
    return false;
  }
  ++next_seq_;
  return true;
}

bool Wal::sync() {
  if (!ok_) return false;
  if (!writer_->flush()) {
    ok_ = false;
    return false;
  }
  return true;
}

bool Wal::rotate() {
  if (!ok_) return false;
  if (!writer_->close()) {
    ok_ = false;
    return false;
  }
  ++segment_index_;
  return open_segment();
}

bool Wal::drop_segments_below(std::uint64_t keep_from) {
  if (!ok_) return false;
  if (!drop_segments_below(dir_, keep_from, crash_)) {
    ok_ = false;
    return false;
  }
  return true;
}

bool Wal::drop_segments_below(const std::string& dir, std::uint64_t keep_from,
                              util::CrashPoint* crash) {
  for (const auto& [index, path] : list_segments(dir)) {
    if (index >= keep_from) continue;
    if (!util::remove_file(path, crash)) return false;
  }
  return true;
}

Wal::Replay Wal::replay(const std::string& dir) {
  Replay out;
  std::uint64_t last_seq = 0;
  for (const auto& [index, path] : list_segments(dir)) {
    const auto bytes = util::read_file(path);
    out.segments.emplace_back(index, bytes ? bytes->size() : 0);
    if (!bytes) continue;
    // The segment's valid prefix: whole records, each a strict frame whose
    // seq is above every seq before it.  Damage ends this segment only.
    std::uint64_t offset = 0;
    for (const auto record : util::scan_records(*bytes).records) {
      ++out.records_scanned;
      if (record.size() < 8) break;
      const std::uint64_t seq = util::load_be64(record.data());
      const auto frame_bytes = record.subspan(8);
      const auto view = FrameView::parse(frame_bytes);
      if (!view || seq <= last_seq) break;
      last_seq = seq;
      out.batches.push_back(
          {seq,
           std::vector<std::uint8_t>(frame_bytes.begin(), frame_bytes.end()),
           view->size(), index, offset});
      offset += util::kRecordHeaderBytes + record.size();
    }
    if (offset < bytes->size()) {
      out.cuts.emplace_back(index, offset);
      out.discarded_bytes += bytes->size() - offset;
    }
  }
  out.tail_truncated = !out.cuts.empty();
  return out;
}

}  // namespace nxd::pdns
