// Security Information Exchange (SIE) channel model.
//
// Farsight publishes its feeds as numbered channels; channel 221 carries
// NXDomain observations (paper §4.1).  A SieChannel filters an observation
// stream by predicate and fans it out to subscribers — typically a
// PassiveDnsStore mirroring the feed, exactly how the authors mirrored the
// channel into BigQuery.
//
// Remote sensors ship observations in *batch frames* (one syscall-sized
// unit instead of one message per response), encoded here.  Stores ingest
// them through pdns::FrameView (frame_view.hpp), which validates strictly:
// a frame that fails any structural check is dropped whole and counted —
// partial ingest of a corrupted frame would double-count on retransmit, the
// feed-plane analogue of accepting an NXDomain response without its SOA
// proof.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "pdns/observation.hpp"

namespace nxd::pdns {

/// Serialize a batch of observations into one wire frame.
/// Format (big-endian): magic "SIEB" u32 | version u16 | count u32 | then
/// per observation: name_len u8, presentation bytes, qtype u16, rcode u8,
/// when u64 (biased by +2^62), sensor class u8, sensor index u16.
std::vector<std::uint8_t> encode_batch_frame(
    std::span<const Observation> batch);

class SieChannel {
 public:
  using Predicate = std::function<bool(const Observation&)>;
  using Subscriber = std::function<void(const Observation&)>;

  SieChannel(int number, std::string name, Predicate filter)
      : number_(number), name_(std::move(name)), filter_(std::move(filter)) {}

  /// Channel 221: NXDomain responses only.
  static SieChannel nxdomain_channel();

  void subscribe(Subscriber s) { subscribers_.push_back(std::move(s)); }

  /// Publish one observation into the channel; forwarded to all subscribers
  /// iff the filter admits it.  Returns true when forwarded.
  bool publish(const Observation& obs);

  int number() const noexcept { return number_; }
  const std::string& name() const noexcept { return name_; }
  std::uint64_t offered() const noexcept { return offered_; }
  std::uint64_t forwarded() const noexcept { return forwarded_; }

 private:
  int number_;
  std::string name_;
  Predicate filter_;
  std::vector<Subscriber> subscribers_;
  std::uint64_t offered_ = 0;
  std::uint64_t forwarded_ = 0;
};

}  // namespace nxd::pdns
