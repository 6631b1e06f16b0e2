#include "infra/event_envelope.hpp"

namespace contory::infra {

std::vector<std::byte> WrapEvent(const std::string& topic,
                                 const std::vector<std::byte>& payload) {
  ByteWriter w;
  w.WriteString(topic);
  w.WriteU32(static_cast<std::uint32_t>(payload.size()));
  w.WriteRaw(payload);
  // XML envelope verbosity: pad to the observed notification size.
  if (w.size() + 4 < kEventNotificationBytes) {
    const auto pad =
        static_cast<std::uint32_t>(kEventNotificationBytes - w.size() - 4);
    w.WriteU32(pad);
    w.WritePadding(pad);
  } else {
    w.WriteU32(0);
  }
  return std::move(w).Take();
}

Result<Event> UnwrapEvent(const std::vector<std::byte>& wire) {
  ByteReader r{wire};
  Event event;
  auto topic = r.ReadString();
  if (!topic.ok()) return topic.status();
  event.topic = *std::move(topic);
  const auto len = r.ReadU32();
  if (!len.ok()) return len.status();
  auto payload = r.ReadBytes(*len);
  if (!payload.ok()) return payload.status();
  event.payload = *std::move(payload);
  return event;
}

}  // namespace contory::infra
