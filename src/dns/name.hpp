// Domain names per RFC 1035 §2.3 / §3.1.
//
// A DomainName is held in wire form: each label as a length octet followed
// by its bytes, leftmost label first, without the terminating root octet
// ("www.example.com" is \3www\7example\3com).  Labels are stored lowercased
// (DNS compares case-insensitively, and every database in this library keys
// on names, so we canonicalize at construction).  The root name is empty.
//
// The bytes live in one flat buffer: inline up to kInlineCapacity octets,
// which covers nearly every real name, and in one heap block beyond that.
// So copying a name is one memcpy, parent(), registered_domain() and the
// other ancestors are suffix slices of the same bytes, is_subdomain_of() is
// a suffix compare at a label boundary, and hashing is one pass.  The wire
// decoder appends labels straight into a name, and the encoder copies its
// bytes out.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace nxd::dns {

class DomainName {
 public:
  static constexpr std::size_t kMaxLabelLength = 63;
  // 255 octets on the wire, which bounds the presentation form to 253 chars.
  static constexpr std::size_t kMaxNameLength = 253;
  static constexpr std::size_t kMaxWireLength = 255;
  /// Label octets (length octets plus label bytes) held inside the object;
  /// a longer name spills its bytes to the heap.
  static constexpr std::size_t kInlineCapacity = 62;

  /// The root name ".".
  DomainName() noexcept = default;
  DomainName(const DomainName& other) { copy_from(other); }
  DomainName(DomainName&& other) noexcept { steal(other); }
  DomainName& operator=(const DomainName& other) {
    if (this != &other) {
      release();
      copy_from(other);
    }
    return *this;
  }
  DomainName& operator=(DomainName&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  ~DomainName() { release(); }

  /// Parse presentation format ("www.example.com", trailing dot optional).
  /// Returns nullopt for syntactically invalid names (empty labels, labels
  /// over 63 octets, total length over 253, non-printable bytes).
  /// Underscores and other non-LDH printable characters are accepted, as in
  /// real passive-DNS feeds (service labels like `_dmarc` are routine).
  static std::optional<DomainName> parse(std::string_view text);

  /// Like parse but terminates the program on failure; for literals in tests
  /// and table-driven code where the input is known-good.
  static DomainName must(std::string_view text);

  /// True iff `text` is canonical presentation form — exactly the texts for
  /// which `parse(text)` succeeds AND `parse(text)->to_string() == text`
  /// (lowercase, no trailing dot except the bare root ".", no empty labels,
  /// length limits respected).  Allocation-free; the zero-copy SIE frame
  /// decoder (pdns/frame_view) validates names in place with this, so it
  /// must stay in exact lockstep with parse()/to_string() — the seeded
  /// differential fuzz suite in tests/ingest_fastpath_test pins that.
  static bool is_canonical_text(std::string_view text) noexcept;

  /// Append `label` on the root side, lowercased: appending "www", then
  /// "example", then "com" to the root builds www.example.com.  Returns
  /// false, leaving the name unchanged, when the label is invalid (empty,
  /// over 63 octets, a '.' or a byte outside printable ASCII) or the name
  /// would exceed 255 wire octets.
  bool append_label(std::string_view label);

  bool is_root() const noexcept { return size_ == 0; }
  std::size_t label_count() const noexcept { return count_; }

  /// The wire form without the terminating root octet.
  std::string_view wire() const noexcept { return {data(), size_}; }

  /// The i-th label from the left (0 is the leftmost), as a view into the
  /// name; i < label_count().
  std::string_view label(std::size_t i) const noexcept;

  /// Presentation form without trailing dot; "." for the root.
  std::string to_string() const;

  /// Top-level domain ("com" for www.example.com); empty for the root.
  std::string_view tld() const noexcept;

  /// Registered domain (public-suffix-naive: last two labels), e.g.
  /// "example.com" for www.a.example.com.  Names with fewer than two labels
  /// return themselves.  The paper's analysis operates at this granularity
  /// ("we have intentionally excluded the analysis of any subdomains").
  DomainName registered_domain() const { return suffix(2); }

  /// Second-level label alone ("example" in example.com); empty if none.
  std::string_view sld() const noexcept;

  /// The name made of the rightmost `labels` labels ("example.com" is
  /// www.example.com's suffix(2)); the name itself when it has no more.
  DomainName suffix(std::size_t labels) const;

  bool is_subdomain_of(const DomainName& ancestor) const noexcept;

  /// Child name: label + this ("www" + example.com = www.example.com).
  /// Returns nullopt if the result would violate length limits.
  std::optional<DomainName> child(std::string_view label) const;

  /// Parent name (drops the leftmost label); root's parent is root.
  DomainName parent() const {
    return suffix(count_ == 0 ? 0 : count_ - 1u);
  }

  /// Wire-format length in octets (sum of label length bytes + root byte).
  std::size_t wire_length() const noexcept { return size_ + 1u; }

  friend bool operator==(const DomainName& a, const DomainName& b) noexcept {
    return a.wire() == b.wire();
  }
  /// Label by label from the left, each label compared as a string; a name
  /// that runs out of labels first is less.  A container order only: see
  /// canonical_compare for DNSSEC order.
  friend std::strong_ordering operator<=>(const DomainName& a,
                                          const DomainName& b) noexcept;

 private:
  bool spilled() const noexcept { return size_ > kInlineCapacity; }
  char* heap() const noexcept {
    char* p = nullptr;
    std::memcpy(&p, buf_, sizeof p);
    return p;
  }
  const char* data() const noexcept { return spilled() ? heap() : buf_; }
  /// Set a root name's bytes to `n` octets of valid wire form at `wire`;
  /// on a failed allocation it stays the root.
  void assign(const char* wire, std::size_t n, std::size_t count);
  /// Into a root name.
  void copy_from(const DomainName& other) {
    if (other.spilled()) {
      assign(other.heap(), other.size_, other.count_);
    } else {
      copy_fields(other);
    }
  }
  void steal(DomainName& other) noexcept {
    copy_fields(other);
    other.size_ = 0;
    other.count_ = 0;
  }
  void copy_fields(const DomainName& other) noexcept {
    std::memcpy(buf_, other.buf_, sizeof buf_);
    size_ = other.size_;
    count_ = other.count_;
  }
  /// Free any heap block; the name is the root afterwards.
  void release() noexcept {
    if (spilled()) delete[] heap();
    size_ = 0;
    count_ = 0;
  }

  // Label octets inline, or (when spilled) a pointer to a heap block of
  // kMaxWireLength - 1 octets in the first bytes.
  char buf_[kInlineCapacity] = {};
  std::uint8_t size_ = 0;   // label octets; spilled() iff > kInlineCapacity
  std::uint8_t count_ = 0;  // labels
};

static_assert(sizeof(DomainName) <= 64);

struct DomainNameHash {
  /// FNV-1a over each label's bytes followed by '.'.
  std::size_t operator()(const DomainName& n) const noexcept;
};

/// DNSSEC canonical ordering (RFC 4034 §6.1): names compare by label from the
/// *rightmost* (TLD) label leftwards, so every name sorts directly after its
/// ancestors and a contiguous span covers exactly one subtree slice.  This is
/// the order NSEC chains are built in — and therefore the order the
/// aggressive negative cache (RFC 8198) needs to test "does this proven-empty
/// span cover the queried name".  Distinct from operator<=>, which compares
/// labels left-to-right and is only a container ordering.
bool canonical_less(const DomainName& a, const DomainName& b) noexcept;

/// Three-way form of canonical_less: <0, 0, >0.
int canonical_compare(const DomainName& a, const DomainName& b) noexcept;

}  // namespace nxd::dns
