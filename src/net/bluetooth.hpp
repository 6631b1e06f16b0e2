// Simulated Bluetooth stack (the paper's JSR-82 substrate).
//
// Models the pieces of Bluetooth that dominate Contory's BT-based results:
//  * inquiry (device discovery): ~13 s of high-power scanning (Sec. 6.1),
//  * SDP service discovery: ~1.12 s per device,
//  * SDDB service registration: ~140 ms (Table 1, publishCxtItem BT),
//  * ACL links with paging latency, low-power upkeep, and L2CAP-style
//    segmentation — the reason 340 B NMEA bursts cost more than 136 B
//    context items (Table 2, intSensor vs adHocNetwork),
//  * failure injection (a BT-GPS switching off) with supervision-timeout
//    link drop, which is what drives the Fig. 5 failover experiment.
//
// Range is ~10 m class-2; BT is strictly one-hop, as in the paper.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "net/medium.hpp"
#include "phone/smart_phone.hpp"
#include "sim/simulation.hpp"

namespace contory::net {

class BluetoothController;

/// Connects BluetoothControllers to each other: a per-simulation registry
/// mapping medium NodeIds to their BT controller, plus global defaults.
class BluetoothBus {
 public:
  explicit BluetoothBus(Medium& medium) : medium_(medium) {}

  [[nodiscard]] Medium& medium() noexcept { return medium_; }
  [[nodiscard]] BluetoothController* Find(NodeId id) const noexcept {
    return id < controllers_.size() ? controllers_[id] : nullptr;
  }

 private:
  friend class BluetoothController;
  void Attach(NodeId id, BluetoothController* c);
  void Detach(NodeId id) { controllers_[id] = nullptr; }

  Medium& medium_;
  std::vector<BluetoothController*> controllers_;  // by NodeId; nullptr = none
};

/// An entry in a device's Service Discovery Database.
struct ServiceRecord {
  std::string service_name;          // e.g. "contory.cxt.temperature"
  std::vector<std::byte> data_element;  // serialized payload (DataElement)
};

using ServiceHandle = std::uint64_t;
using BtLinkId = std::uint64_t;

struct BtDeviceInfo {
  NodeId node = kInvalidNode;
  std::string name;
};

struct BluetoothConfig {
  double range_m = 10.0;  // class-2 radio
  /// Link supervision timeout: how long after a peer vanishes the local
  /// stack reports the link dead.
  SimDuration supervision_timeout = std::chrono::seconds{1};
};

class BluetoothController {
 public:
  /// Attaches a BT radio to `node` (already registered in the medium),
  /// drawing power from `phone`'s energy model.
  BluetoothController(sim::Simulation& sim, BluetoothBus& bus,
                      phone::SmartPhone& phone, NodeId node,
                      BluetoothConfig config = {});
  ~BluetoothController();

  BluetoothController(const BluetoothController&) = delete;
  BluetoothController& operator=(const BluetoothController&) = delete;

  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] phone::SmartPhone& phone() noexcept { return phone_; }

  /// Powers the radio on (page/inquiry-scan mode, +2.72 mW) or off.
  /// Powering off drops all links and unregisters nothing from the SDDB
  /// (records survive, as on a real stack, but are unreachable).
  void SetEnabled(bool enabled);
  [[nodiscard]] bool enabled() const noexcept { return enabled_ && !failed_; }

  /// Failure injection: the device vanishes from the air (Fig. 5's GPS
  /// switch-off). Links drop after the supervision timeout on peers.
  void SetFailed(bool failed);
  [[nodiscard]] bool failed() const noexcept { return failed_; }

  /// Fault injection: fraction of outgoing payloads lost in the air.
  /// The radio still burns the air time and segment energy; the peer's
  /// data handler is never invoked and `delivered` reports kUnavailable.
  void SetLossRate(double rate) noexcept { loss_rate_ = rate; }
  [[nodiscard]] double loss_rate() const noexcept { return loss_rate_; }

  /// Fault injection: extra latency added to every outgoing transfer
  /// (interference / co-channel contention spikes).
  void SetExtraLatency(SimDuration extra) noexcept { extra_latency_ = extra; }
  [[nodiscard]] SimDuration extra_latency() const noexcept {
    return extra_latency_;
  }

  // --- Inquiry (device discovery) ---------------------------------------
  using InquiryCallback =
      std::function<void(Result<std::vector<BtDeviceInfo>>)>;
  /// Runs a full inquiry (~13 s at inquiry power); reports discoverable,
  /// enabled devices in range. Only one inquiry at a time per controller.
  void StartInquiry(InquiryCallback done);
  [[nodiscard]] bool inquiry_in_progress() const noexcept {
    return inquiry_active_;
  }

  // --- SDP --------------------------------------------------------------
  /// Registers a service record in the local SDDB. Completion (and the
  /// paper's ~140 ms DataElement+SDDB cost) is reported via `done`.
  void RegisterService(ServiceRecord record,
                       std::function<void(Result<ServiceHandle>)> done);
  void UnregisterService(ServiceHandle handle);
  /// Updates the payload of an already-registered record in place (cheap;
  /// used by periodic publishers re-publishing fresh values).
  Status UpdateService(ServiceHandle handle,
                       std::vector<std::byte> data_element);

  using SdpCallback =
      std::function<void(Result<std::vector<ServiceRecord>>)>;
  /// Service discovery on a remote device (~1.12 s). Reports all records,
  /// optionally filtered by name prefix.
  void DiscoverServices(NodeId device, std::string name_prefix,
                        SdpCallback done);

  // --- Links ------------------------------------------------------------
  using ConnectCallback = std::function<void(Result<BtLinkId>)>;
  /// Pages `remote` and establishes an ACL link (~18 ms when reachable).
  void Connect(NodeId remote, ConnectCallback done);

  /// Sends `payload` over `link`. Delivery (with segmentation-dependent
  /// latency and transfer power on both ends) invokes the peer's data
  /// handler; `delivered` (optional) fires on the sender afterwards. If
  /// the link is dead, `delivered` gets a failure and the disconnect
  /// handler fires.
  void Send(BtLinkId link, std::vector<std::byte> payload,
            std::function<void(Status)> delivered = {});

  void Disconnect(BtLinkId link);
  [[nodiscard]] bool LinkAlive(BtLinkId link) const noexcept;
  [[nodiscard]] Result<NodeId> LinkPeer(BtLinkId link) const;
  /// All currently alive link ids, ascending.
  [[nodiscard]] std::vector<BtLinkId> AliveLinks() const;

  /// Handler for payloads arriving on any link of this controller.
  using DataHandler = std::function<void(BtLinkId link, NodeId from,
                                         const std::vector<std::byte>&)>;
  void SetDataHandler(DataHandler handler) {
    data_handler_ = std::move(handler);
  }

  /// Handler invoked when a link drops for any reason other than a local
  /// Disconnect() call (peer failed, out of range, radio off).
  using DisconnectHandler = std::function<void(BtLinkId link, NodeId peer)>;
  void SetDisconnectHandler(DisconnectHandler handler) {
    disconnect_handler_ = std::move(handler);
  }

  /// On-air size of `payload_bytes` after L2CAP-style segmentation.
  [[nodiscard]] std::size_t WireBytes(std::size_t payload_bytes) const;
  /// Air time for a payload at the profile's effective throughput.
  [[nodiscard]] SimDuration TransferTime(std::size_t payload_bytes) const;

 private:
  struct Link {
    NodeId peer = kInvalidNode;
    BtLinkId peer_link = 0;
    bool alive = false;
  };

  void BeginTransferPower();
  void EndTransferPower();
  void UpdateLinkPower();
  /// Drops every link, notifying peers (after supervision timeout) and the
  /// local handler (immediately unless `silent_local`).
  void DropAllLinks(bool silent_local);
  void OnPeerLinkDropped(BtLinkId local_link);
  [[nodiscard]] bool Reachable(NodeId remote) const;

  sim::Simulation& sim_;
  BluetoothBus& bus_;
  phone::SmartPhone& phone_;
  NodeId node_;
  BluetoothConfig config_;
  bool enabled_ = false;
  bool failed_ = false;
  bool inquiry_active_ = false;
  double loss_rate_ = 0.0;
  SimDuration extra_latency_ = SimDuration::zero();

  std::map<ServiceHandle, ServiceRecord> sddb_;
  ServiceHandle next_service_ = 1;

  std::map<BtLinkId, Link> links_;
  BtLinkId next_link_ = 1;
  int active_transfers_ = 0;

  DataHandler data_handler_;
  DisconnectHandler disconnect_handler_;
};

}  // namespace contory::net
