#include "sm/smart_message.hpp"

namespace contory::sm {

HopBreakup& HopBreakup::operator+=(const HopBreakup& other) noexcept {
  connect += other.connect;
  serialize += other.serialize;
  thread_switch += other.thread_switch;
  transfer += other.transfer;
  return *this;
}

namespace {

/// Fixed serialization overhead of the execution control state beyond the
/// explicit fields (J2ME object headers, stream framing).
constexpr std::size_t kControlStateOverhead = 64;

void WriteCore(ByteWriter& w, const SmartMessage& sm) {
  w.WriteString(sm.id);
  w.WriteString(sm.code_brick);
  w.WriteU32(static_cast<std::uint32_t>(sm.data.size()));
  w.WriteRaw(sm.data);
  w.WriteU32(sm.origin);
  w.WriteString(sm.target_tag);
  w.WriteU32(static_cast<std::uint32_t>(sm.hop_count));
  w.WriteU32(static_cast<std::uint32_t>(sm.max_hops));
  w.WriteU32(static_cast<std::uint32_t>(sm.visited.size()));
  for (const auto node : sm.visited) w.WriteU32(node);
  // Breakup counters travel with the control state (they are the SM's own
  // instrumentation, as hopCnt is).
  w.WriteI64(sm.breakup.connect.count());
  w.WriteI64(sm.breakup.serialize.count());
  w.WriteI64(sm.breakup.thread_switch.count());
  w.WriteI64(sm.breakup.transfer.count());
}

}  // namespace

std::size_t SmartMessage::WireBytes(std::size_t code_bytes,
                                    bool code_cached_at_receiver) const {
  ByteWriter w;
  WriteCore(w, *this);
  std::size_t total = w.size() + kControlStateOverhead;
  if (!code_cached_at_receiver) total += code_bytes;
  return total;
}

std::vector<std::byte> SmartMessage::Serialize(
    std::size_t code_bytes, bool code_cached_at_receiver) const {
  ByteWriter w;
  WriteCore(w, *this);
  w.WritePadding(kControlStateOverhead);
  if (!code_cached_at_receiver) w.WritePadding(code_bytes);
  return std::move(w).Take();
}

Result<SmartMessage> SmartMessage::Deserialize(
    const std::vector<std::byte>& wire) {
  ByteReader r{wire};
  SmartMessage sm;
  auto id = r.ReadString();
  if (!id.ok()) return id.status();
  sm.id = *std::move(id);
  auto brick = r.ReadString();
  if (!brick.ok()) return brick.status();
  sm.code_brick = *std::move(brick);
  auto data_len = r.ReadU32();
  if (!data_len.ok()) return data_len.status();
  auto data = r.ReadBytes(*data_len);
  if (!data.ok()) return data.status();
  sm.data = *std::move(data);
  auto origin = r.ReadU32();
  if (!origin.ok()) return origin.status();
  sm.origin = *origin;
  auto target = r.ReadString();
  if (!target.ok()) return target.status();
  sm.target_tag = *std::move(target);
  auto hops = r.ReadU32();
  if (!hops.ok()) return hops.status();
  sm.hop_count = static_cast<int>(*hops);
  auto max_hops = r.ReadU32();
  if (!max_hops.ok()) return max_hops.status();
  sm.max_hops = static_cast<int>(*max_hops);
  auto visited_len = r.ReadU32();
  if (!visited_len.ok()) return visited_len.status();
  sm.visited.reserve(*visited_len);
  for (std::uint32_t i = 0; i < *visited_len; ++i) {
    auto node = r.ReadU32();
    if (!node.ok()) return node.status();
    sm.visited.push_back(*node);
  }
  for (SimDuration* d : {&sm.breakup.connect, &sm.breakup.serialize,
                         &sm.breakup.thread_switch, &sm.breakup.transfer}) {
    auto v = r.ReadI64();
    if (!v.ok()) return v.status();
    *d = SimDuration{*v};
  }
  // Then the control-state overhead, and code padding unless the code was
  // cached at the receiver (its length is not on the wire).
  if (auto s = r.Skip(kControlStateOverhead); !s.ok()) return s;
  return sm;
}

}  // namespace contory::sm
