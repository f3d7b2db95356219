// Token-bucket rate limiter on the simulated clock.
//
// One primitive, three consumers: the blocklist query budget (paper §5.2
// could only cross-reference 20 M of 91 M names "due to the rate limit of
// querying the blocklist database"), per-IP admission in the honeypot's
// overload guard, and the per-source DNS response-rate limiter.  Time is an
// injected `SimTime`, never the wall clock, so every limiter decision is
// replayable bit-for-bit.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "util/civil_time.hpp"

namespace nxd::util {

class TokenBucket {
 public:
  /// `capacity` tokens, refilled at `refill_per_second`.  The bucket starts
  /// full (a burst up to `capacity` is admitted immediately).
  TokenBucket(double capacity, double refill_per_second) noexcept
      : capacity_(capacity), tokens_(capacity), refill_(refill_per_second) {}

  /// Try to take `tokens` at simulated time `now`.  Non-monotonic time is
  /// safe: a `now` earlier than the last refill neither drains nor refills.
  bool try_acquire(SimTime now, double tokens = 1.0) noexcept;

  double tokens_at(SimTime now) const noexcept;
  double capacity() const noexcept { return capacity_; }
  std::uint64_t granted() const noexcept { return granted_; }
  std::uint64_t denied() const noexcept { return denied_; }

 private:
  void refill_to(SimTime now) noexcept;

  double capacity_;
  double tokens_;
  double refill_;
  SimTime last_ = 0;
  std::uint64_t granted_ = 0;
  std::uint64_t denied_ = 0;
};

/// Bounded per-source bucket table, shared by DNS response-rate limiting
/// and the honeypot's per-IP admission.  A newcomer that finds the table
/// full first sweeps every fully refilled bucket (idle long enough that
/// forgetting it changes no verdict); if it is still full of actively
/// metered sources, find_or_insert returns no entry and the caller fails
/// open rather than let a spoofed flood evict live limiter state.  After a
/// sweep leaves the table full, newcomers up to that instant skip the
/// sweep: until time passes buckets only drain, so it would find nothing.
template <class Key, class Hash>
class SourceBuckets {
 public:
  struct Found {
    TokenBucket* bucket = nullptr;  // nullptr: table full of active sources
    std::uint64_t evicted = 0;      // idle buckets swept to make room
  };

  /// Buckets hold `burst` tokens refilled at `rate`/s; at most
  /// `max_sources` are tracked (0 = unbounded).
  SourceBuckets(double burst, double rate, std::size_t max_sources)
      : burst_(burst), rate_(rate), max_(max_sources) {}

  Found find_or_insert(const Key& source, SimTime now) {
    if (const auto it = entries_.find(source); it != entries_.end()) {
      return {&it->second, 0};
    }
    Found found;
    if (full()) {
      if (full_sweep_at_.has_value() && now <= *full_sweep_at_) return found;
      std::erase_if(entries_, [&](const auto& e) {
        const bool idle = e.second.tokens_at(now) >= burst_;
        found.evicted += idle;
        return idle;
      });
      if (full()) {
        full_sweep_at_ = now;
        return found;
      }
    }
    full_sweep_at_.reset();
    found.bucket = &entries_.try_emplace(source, burst_, rate_).first->second;
    return found;
  }

  std::size_t size() const noexcept { return entries_.size(); }

 private:
  bool full() const noexcept { return max_ != 0 && entries_.size() >= max_; }

  double burst_;
  double rate_;
  std::size_t max_;
  std::unordered_map<Key, TokenBucket, Hash> entries_;
  std::optional<SimTime> full_sweep_at_;  // last sweep that left it full
};

}  // namespace nxd::util
