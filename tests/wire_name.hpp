// Build a DomainName from labels through the production wire decoder.
//
// The labels are written as length-prefixed octets into the question of a
// one-question DNS message, which dns::decode reads back; the name comes out
// of the same label-by-label path every name received from the network
// takes.  An empty label or one over 63 octets has no wire form (a zero
// length ends the name; larger lengths are pointer or reserved tags), so
// those give nullopt without reaching the decoder.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dns/message.hpp"
#include "dns/name.hpp"
#include "util/bytes.hpp"

namespace nxd::test {

inline std::optional<dns::DomainName> name_from_labels(
    const std::vector<std::string>& labels) {
  util::ByteWriter w;
  w.u16(0);  // id
  w.u16(0);  // flags
  w.u16(1);  // qdcount
  w.u16(0);
  w.u16(0);
  w.u16(0);
  for (const auto& label : labels) {
    if (label.empty() || label.size() > 63) return std::nullopt;
    w.u8(static_cast<std::uint8_t>(label.size()));
    w.bytes(label);
  }
  w.u8(0);
  w.u16(1);  // qtype A
  w.u16(1);  // qclass IN
  const auto msg = dns::decode(std::move(w).take());
  if (!msg) return std::nullopt;
  return msg->questions.at(0).name;
}

}  // namespace nxd::test
