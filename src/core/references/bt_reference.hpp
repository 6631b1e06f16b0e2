// BTReference: mediated access to the Bluetooth module (Sec. 4.3, 5.1).
//
// "The BTReference provides support to discover BT devices and services,
// and to communicate with them" — on top of the raw controller it adds
// the abstractions the providers need: a discovery cache (inquiries cost
// 13 s and 5 J; consumers share results), serialized concurrent inquiry
// requests, and listener multiplexing (the controller has single handler
// slots; the GPS provider and the ad hoc provider both need data and
// disconnect events). Link drops are reported to the ResourcesMonitor,
// which is what triggers the Fig. 5 failover.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "common/slot_table.hpp"
#include "core/references/reference.hpp"
#include "net/bluetooth.hpp"
#include "sim/simulation.hpp"

namespace contory::core {

class BTReference final : public Reference {
 public:
  /// `controller` may be null: the device simply has no BT module.
  BTReference(sim::Simulation& sim, net::BluetoothController* controller);

  [[nodiscard]] const char* name() const noexcept override {
    return "BTReference";
  }
  [[nodiscard]] bool Available() const override {
    return controller_ != nullptr && controller_->enabled();
  }
  [[nodiscard]] net::BluetoothController* controller() noexcept {
    return controller_;
  }

  // --- Discovery with cache ---------------------------------------------
  using DiscoverCallback =
      std::function<void(Result<std::vector<net::BtDeviceInfo>>)>;
  /// Reports devices in range. Served from cache when the last inquiry is
  /// younger than `max_age`; otherwise runs an inquiry (13 s). Concurrent
  /// calls share one inquiry.
  void Discover(SimDuration max_age, DiscoverCallback done);
  /// Drops the cache (e.g. after a failure, to force re-discovery).
  void InvalidateDiscoveryCache() { cache_.reset(); }
  [[nodiscard]] bool HasFreshDiscovery(SimDuration max_age) const;
  [[nodiscard]] const std::vector<net::BtDeviceInfo>* CachedDevices() const {
    return cache_.has_value() ? &cache_->devices : nullptr;
  }

  // --- Listener multiplexing ----------------------------------------------
  using ListenerId = std::uint64_t;
  using DataListener = std::function<void(
      net::BtLinkId, net::NodeId from, const std::vector<std::byte>&)>;
  using DisconnectListener =
      std::function<void(net::BtLinkId, net::NodeId peer)>;

  /// A frame or link drop is dispatched to the listeners present when
  /// dispatch starts, in registration order: one added by a listener
  /// hears the next event, one removed by a listener still hears this
  /// one. A ListenerId is a SlotTable handle (common/slot_table.hpp), so
  /// removing an unknown, already removed or 0 id is a no-op.
  ListenerId AddDataListener(DataListener listener);
  void RemoveDataListener(ListenerId id);
  ListenerId AddDisconnectListener(DisconnectListener listener);
  void RemoveDisconnectListener(ListenerId id);

 private:
  /// A listener and its registration number (slots are reused, so slot
  /// order is not registration order).
  template <typename Fn>
  struct Listener {
    std::uint64_t seq;
    Fn fn;
  };
  template <typename Fn>
  using Listeners = SlotTable<Listener<Fn>>;

  /// Calls a copy of the present listeners in registration order, so a
  /// listener may add or remove listeners.
  template <typename Fn, typename... Args>
  static void Dispatch(const Listeners<Fn>& listeners, const Args&... args) {
    std::vector<Listener<Fn>> present;
    present.reserve(listeners.size());
    listeners.ForEach(
        [&present](const Listener<Fn>& l) { present.push_back(l); });
    std::sort(present.begin(), present.end(),
              [](const Listener<Fn>& a, const Listener<Fn>& b) {
                return a.seq < b.seq;
              });
    for (const Listener<Fn>& l : present) l.fn(args...);
  }

  struct DiscoveryCache {
    std::vector<net::BtDeviceInfo> devices;
    SimTime at;
  };

  sim::Simulation& sim_;
  net::BluetoothController* controller_;
  std::optional<DiscoveryCache> cache_;
  std::vector<DiscoverCallback> pending_discoveries_;
  Listeners<DataListener> data_listeners_;
  Listeners<DisconnectListener> disconnect_listeners_;
  std::uint64_t next_listener_seq_ = 0;
};

}  // namespace contory::core
