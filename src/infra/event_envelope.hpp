// The event notification envelope of the paper's Fuego middleware.
//
// "The 2G/3GReference offers support for event-based communication by
// using the Fuego middleware ... a scalable distributed event framework
// and XML-based messaging service" (Sec. 5.1). What matters for the
// reproduction is its cost: "cxtItem and cxtQuery objects that are
// transmitted over UMTS using the event-based platform are encapsulated in
// event notifications whose size is 1696 bytes". WrapEvent pads every
// message to that size (XML verbosity, faithfully reproduced as cost).
// ContextServer and RegattaService speak their own request/push protocols
// inside this envelope.
#pragma once

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace contory::infra {

/// The Fuego event notification size observed in the paper.
inline constexpr std::size_t kEventNotificationBytes = 1696;

/// Wraps `payload` into an event notification: topic + payload, padded to
/// kEventNotificationBytes (larger payloads grow the envelope).
[[nodiscard]] std::vector<std::byte> WrapEvent(
    const std::string& topic, const std::vector<std::byte>& payload);

struct Event {
  std::string topic;
  std::vector<std::byte> payload;
};

[[nodiscard]] Result<Event> UnwrapEvent(const std::vector<std::byte>& wire);

}  // namespace contory::infra
