#include "pdns/intern.hpp"

namespace nxd::pdns {

namespace {
constexpr std::size_t kInitialCapacity = 64;  // power of two
}  // namespace

std::size_t InternTable::probe(std::uint32_t hash,
                               std::string_view name) const noexcept {
  std::size_t i = hash & mask_;
  for (;;) {
    const Slot& slot = slots_[i];
    if (slot.id == kInvalidId) return i;
    if (slot.hash == hash && name_of(slot.id) == name) return i;
    i = (i + 1) & mask_;
  }
}

void InternTable::rehash(std::size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.id == kInvalidId) continue;
    std::size_t i = slot.hash & mask_;
    while (slots_[i].id != kInvalidId) i = (i + 1) & mask_;
    slots_[i] = slot;
  }
}

InternTable::Result InternTable::intern(std::string_view name) {
  // Keep load factor under 1/2 so probe chains stay short.
  if (slots_.empty() || (size() + 1) * 2 > slots_.size()) {
    rehash(slots_.empty() ? kInitialCapacity : slots_.size() * 2);
  }
  const auto hash = static_cast<std::uint32_t>(util::fnv1a(name));
  Slot& slot = slots_[probe(hash, name)];
  if (slot.id != kInvalidId) return {slot.id, false};
  const auto id = static_cast<std::uint32_t>(size());
  bytes_.append(name);
  offsets_.push_back(bytes_.size());
  slot.hash = hash;
  slot.id = id;
  return {id, true};
}

void InternTable::reserve(std::size_t count) {
  offsets_.reserve(count + 1);
  std::size_t capacity = slots_.empty() ? kInitialCapacity : slots_.size();
  while (capacity < count * 2) capacity *= 2;
  if (capacity > slots_.size()) rehash(capacity);
}

std::uint32_t InternTable::find(std::string_view name) const {
  if (slots_.empty()) return kInvalidId;
  return slots_[probe(static_cast<std::uint32_t>(util::fnv1a(name)), name)].id;
}

}  // namespace nxd::pdns
