#include "pdns/sie_channel.hpp"

#include "pdns/frame_view.hpp"
#include "util/bytes.hpp"

namespace nxd::pdns {

namespace {

void put_u64(util::ByteWriter& w, std::uint64_t v) {
  w.u32(static_cast<std::uint32_t>(v >> 32));
  w.u32(static_cast<std::uint32_t>(v));
}

}  // namespace

std::vector<std::uint8_t> encode_batch_frame(
    std::span<const Observation> batch) {
  util::ByteWriter w;
  w.u32(kSieFrameMagic);
  w.u16(kSieFrameVersion);
  w.u32(static_cast<std::uint32_t>(batch.size()));
  for (const auto& obs : batch) {
    const std::string name = obs.name.to_string();
    w.u8(static_cast<std::uint8_t>(name.size()));
    w.bytes(name);
    w.u16(static_cast<std::uint16_t>(obs.qtype));
    w.u8(static_cast<std::uint8_t>(obs.rcode));
    put_u64(w, static_cast<std::uint64_t>(obs.when) + kSieTimeBias);
    w.u8(static_cast<std::uint8_t>(obs.sensor.cls));
    w.u16(obs.sensor.index);
  }
  return std::move(w).take();
}

SieChannel SieChannel::nxdomain_channel() {
  return SieChannel(221, "SIE NXDomains",
                    [](const Observation& obs) { return obs.is_nxdomain(); });
}

bool SieChannel::publish(const Observation& obs) {
  ++offered_;
  if (filter_ && !filter_(obs)) return false;
  ++forwarded_;
  for (const auto& subscriber : subscribers_) subscriber(obs);
  return true;
}

}  // namespace nxd::pdns
