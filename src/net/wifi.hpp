// Simulated 802.11b ad hoc WiFi (the Smart Messages transport).
//
// The paper's WiFi findings are blunt: merely having WiFi connected drains
// a constant ~300 mA (~1190 mW with backlight) — "more than 100 times more
// energy-consuming than having BT in inquiry mode" — and with the meter in
// series the in-rush current at WiFi startup tripped the communicator's
// protection circuit. Per-frame latency is dominated by per-hop connection
// establishment and transfer time (Table 1 break-up). We model exactly
// those: a heavy constant drain while enabled, an in-rush trip check at
// enable time, range-based neighbor reachability, and per-frame
// connect+transfer latency. Serialization and thread-switch costs are the
// SM runtime's business (see sm/).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/time.hpp"
#include "net/medium.hpp"
#include "phone/smart_phone.hpp"
#include "sim/simulation.hpp"

namespace contory::net {

class WifiController;

/// Per-simulation registry of WiFi radios, indexed by NodeId (Medium ids
/// are dense), so Find is a bounds check plus a load.
class WifiBus {
 public:
  explicit WifiBus(Medium& medium) : medium_(medium) {}
  [[nodiscard]] Medium& medium() noexcept { return medium_; }
  [[nodiscard]] WifiController* Find(NodeId id) const noexcept {
    return id < controllers_.size() ? controllers_[id] : nullptr;
  }
  /// Bumped by Attach, Detach and every SetEnabled/SetFailed: equal
  /// epochs mean the same set of enabled radios.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

 private:
  friend class WifiController;
  void Attach(NodeId id, WifiController* c);
  void Detach(NodeId id) {
    controllers_[id] = nullptr;
    ++epoch_;
  }

  Medium& medium_;
  std::vector<WifiController*> controllers_;  // nullptr = no radio
  std::uint64_t epoch_ = 0;
};

struct WifiConfig {
  double range_m = 100.0;  // 802.11b ad hoc, open air
};

class WifiController {
 public:
  WifiController(sim::Simulation& sim, WifiBus& bus, phone::SmartPhone& phone,
                 NodeId node, WifiConfig config = {});
  ~WifiController();

  WifiController(const WifiController&) = delete;
  WifiController& operator=(const WifiController&) = delete;

  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] phone::SmartPhone& phone() noexcept { return phone_; }
  [[nodiscard]] double range_m() const noexcept { return config_.range_m; }

  /// Joins/leaves the ad hoc network. Joining applies the constant
  /// connected drain and performs the in-rush check against the battery:
  /// with the multimeter inserted, the startup transient trips the
  /// protection circuit (the paper's communicator switch-off) — reported
  /// through Battery's trip listener; the radio still joins so that, like
  /// the authors, we can reason from partial logs.
  void SetEnabled(bool enabled);
  [[nodiscard]] bool enabled() const noexcept { return enabled_ && !failed_; }

  /// Failure injection (node crash / out of battery).
  void SetFailed(bool failed);

  /// Fault injection: fraction of outgoing frames lost in the air (the
  /// air time is still spent; `done` reports kUnavailable).
  void SetLossRate(double rate) noexcept { loss_rate_ = rate; }
  [[nodiscard]] double loss_rate() const noexcept { return loss_rate_; }

  /// Fault injection: extra latency added to every outgoing frame.
  void SetExtraLatency(SimDuration extra) noexcept { extra_latency_ = extra; }
  [[nodiscard]] SimDuration extra_latency() const noexcept {
    return extra_latency_;
  }

  /// Appends the enabled WiFi nodes currently in radio range to `out`,
  /// nearest first (distance ties by ascending NodeId): no allocation
  /// once `out` is warm. The list is computed by a Medium range scan and
  /// kept until the medium's topology epoch or the bus's epoch moves;
  /// until then no input of the scan has changed, so a kept list is the
  /// scan's exact result.
  void NeighborsInto(std::vector<NodeId>& out) const;
  [[nodiscard]] bool IsNeighbor(NodeId other) const;

  /// Sends a frame to a direct neighbor. Latency = per-hop connection
  /// establishment + air time at the effective SM-over-WiFi throughput.
  /// Delivery invokes the peer's frame handler; `done` reports success or
  /// why the frame was dropped.
  void SendFrame(NodeId to, std::vector<std::byte> payload,
                 std::function<void(Status)> done = {});

  using FrameHandler =
      std::function<void(NodeId from, const std::vector<std::byte>&)>;
  void SetFrameHandler(FrameHandler handler) {
    frame_handler_ = std::move(handler);
  }

  /// Air time of a payload at the profile's effective throughput.
  [[nodiscard]] SimDuration TransferTime(std::size_t payload_bytes) const;

 private:
  sim::Simulation& sim_;
  WifiBus& bus_;
  phone::SmartPhone& phone_;
  NodeId node_;
  WifiConfig config_;
  bool enabled_ = false;
  bool failed_ = false;
  double loss_rate_ = 0.0;
  SimDuration extra_latency_ = SimDuration::zero();
  FrameHandler frame_handler_;
  /// NeighborsInto's kept list and the two epochs it was scanned at.
  /// Attach bumps the bus epoch, so the zero stamps never match.
  mutable std::vector<NodeId> neighbors_;
  mutable std::uint64_t neighbors_topology_epoch_ = 0;
  mutable std::uint64_t neighbors_bus_epoch_ = 0;
};

}  // namespace contory::net
