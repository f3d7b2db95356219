// Domain-name interning: the passive-DNS store's one name index.
//
// A passive-DNS feed is heavy-tailed: a handful of registered domains
// account for most observations (the paper's §3.3 selection keeps exactly
// the >10k-queries-per-month head).  Interning maps each distinct
// registered-domain key to a dense u32 id once, and the store keeps every
// per-domain aggregate in a vector indexed by that id, so the steady-state
// ingest of a hot domain is one hash probe and two array indexes.
//
// Each name is stored exactly once, back to back in one contiguous byte
// buffer, and addressed by offset; views returned by name_of() are valid
// until the next intern() (which may grow the buffer).  Being plain vectors,
// a table copies and moves by default.
//
// The index is a flat open-addressing table (power-of-two capacity, linear
// probing, FNV-1a with the hash's low 32 bits stored beside the id) rather
// than std::unordered_map: the node-based map costs an extra pointer chase
// per probe, which at feed scale is a measurable slice of the whole ingest
// budget.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace nxd::pdns {

class InternTable {
 public:
  static constexpr std::uint32_t kInvalidId = 0xFFFFFFFFu;

  struct Result {
    std::uint32_t id;
    bool inserted;  // true on first sight (a miss), false on a hit
  };

  /// Find-or-insert; ids are dense, assigned in first-seen order.
  Result intern(std::string_view name);

  /// Size the index for `count` names in all, so interning up to that many
  /// never rehashes (a snapshot load knows its domain count up front).
  void reserve(std::size_t count);

  /// kInvalidId when the name has never been interned.
  std::uint32_t find(std::string_view name) const;

  /// The interned bytes; empty view for out-of-range ids.
  std::string_view name_of(std::uint32_t id) const noexcept {
    if (id >= size()) return {};
    return {bytes_.data() + offsets_[id], offsets_[id + 1] - offsets_[id]};
  }

  std::size_t size() const noexcept { return offsets_.size() - 1; }

 private:
  struct Slot {
    std::uint32_t hash = 0;         // low 32 bits: ample for 2^32 slots
    std::uint32_t id = kInvalidId;  // kInvalidId marks an empty slot
  };

  /// Probe for `name` (by hash, verified by byte compare); returns the index
  /// of the slot holding it or of the empty slot where it belongs.
  std::size_t probe(std::uint32_t hash, std::string_view name) const noexcept;
  void rehash(std::size_t capacity);

  // Every name back to back; name `id` is bytes_[offsets_[id], offsets_[id+1]).
  std::string bytes_;
  std::vector<std::size_t> offsets_{0};
  std::vector<Slot> slots_;              // open addressing, capacity 2^k
  std::size_t mask_ = 0;                 // capacity - 1
};

}  // namespace nxd::pdns
