// Big-endian (network byte order) byte buffer reader/writer used by the DNS
// wire codec and the traffic recorder.  All bounds are checked; reads past
// the end report failure instead of throwing so that parsers can treat
// truncated packets as data, not exceptions (they arrive from the network).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace nxd::util {

// Big-endian fixed-width stores and loads through a raw pointer, for codecs
// that size their buffer first and then fill it in one pass (the snapshot
// and checked-record codecs).  The caller owns the bounds.
inline void store_be16(std::uint8_t* p, std::uint16_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

inline void store_be64(std::uint8_t* p, std::uint64_t v) noexcept {
  store_be32(p, static_cast<std::uint32_t>(v >> 32));
  store_be32(p + 4, static_cast<std::uint32_t>(v));
}

inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

inline std::uint64_t load_be64(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint64_t>(load_be32(p)) << 32) | load_be32(p + 4);
}

class ByteWriter {
 public:
  ByteWriter() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void u32(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 24));
    buf_.push_back(static_cast<std::uint8_t>(v >> 16));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  void bytes(std::string_view data) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(data.data());
    buf_.insert(buf_.end(), p, p + data.size());
  }

  /// Overwrite a previously written 16-bit slot (e.g. patching a length or a
  /// count field once the payload size is known).
  void patch_u16(std::size_t offset, std::uint16_t v) {
    buf_[offset] = static_cast<std::uint8_t>(v >> 8);
    buf_[offset + 1] = static_cast<std::uint8_t>(v);
  }

  /// Drop the contents but keep the capacity, to reuse the writer.
  void clear() noexcept { buf_.clear(); }

  std::size_t size() const noexcept { return buf_.size(); }
  std::span<const std::uint8_t> view() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() && { return std::move(buf_); }
  const std::vector<std::uint8_t>& data() const noexcept { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

  bool ok() const noexcept { return ok_; }
  std::size_t pos() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return ok_ ? data_.size() - pos_ : 0; }

  /// Reposition the cursor (used to chase DNS compression pointers).
  void seek(std::size_t pos) noexcept {
    if (pos > data_.size()) {
      ok_ = false;
    } else {
      pos_ = pos;
    }
  }

  std::uint8_t u8() noexcept {
    if (!need(1)) return 0;
    return data_[pos_++];
  }

  std::uint16_t u16() noexcept {
    if (!need(2)) return 0;
    const std::uint16_t v =
        static_cast<std::uint16_t>(data_[pos_] << 8) | data_[pos_ + 1];
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() noexcept {
    if (!need(4)) return 0;
    const std::uint32_t v = load_be32(data_.data() + pos_);
    pos_ += 4;
    return v;
  }

  std::span<const std::uint8_t> bytes(std::size_t n) noexcept {
    if (!need(n)) return {};
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::string str(std::size_t n) noexcept {
    auto b = bytes(n);
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }

 private:
  bool need(std::size_t n) noexcept {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Lowercase hex rendering, for packet dumps and anonymized identifiers.
std::string to_hex(std::span<const std::uint8_t> data);
std::string to_hex(std::uint64_t value);

}  // namespace nxd::util
