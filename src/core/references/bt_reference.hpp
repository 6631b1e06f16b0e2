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
  /// one. Removing an unknown, already removed or 0 id is a no-op.
  ListenerId AddDataListener(DataListener listener);
  void RemoveDataListener(ListenerId id);
  ListenerId AddDisconnectListener(DisconnectListener listener);
  void RemoveDisconnectListener(ListenerId id);

 private:
  /// Listeners sorted by id: ids are monotonic, so an append keeps them
  /// sorted and registration order is id order. The ids sit in their own
  /// vector, so Remove's binary search reads 8 bytes per probe. A removed
  /// listener leaves a tombstone (an empty fn); tombstones are compacted
  /// away once they make up half the list.
  template <typename Fn>
  class Listeners {
   public:
    void Add(ListenerId id, Fn fn) {
      ids_.push_back(id);
      fns_.push_back(std::move(fn));
    }

    void Remove(ListenerId id) {
      const std::size_t i = Find(id);
      if (i == ids_.size() || !fns_[i]) return;
      fns_[i] = nullptr;
      if (2 * ++removed_ >= ids_.size()) Compact();
    }

    /// Calls a copy of the present listeners, so a listener may add or
    /// remove listeners.
    template <typename... Args>
    void Dispatch(const Args&... args) const {
      std::vector<Fn> present;
      present.reserve(fns_.size() - removed_);
      for (const Fn& fn : fns_) {
        if (fn) present.push_back(fn);
      }
      for (const Fn& fn : present) fn(args...);
    }

   private:
    /// Index of `id`, or ids_.size(). Ids are issued in order and removed
    /// at random, so they spread evenly over the list: a few probes
    /// interpolated between the range's ends land next to `id`, where a
    /// binary search over what is left finishes.
    [[nodiscard]] std::size_t Find(ListenerId id) const {
      std::size_t lo = 0;
      std::size_t hi = ids_.size();
      for (int probes = 0; probes < 4 && hi - lo > 8; ++probes) {
        const ListenerId first = ids_[lo];
        const ListenerId last = ids_[hi - 1];
        if (id < first || id > last) return ids_.size();
        const std::size_t mid =
            lo + static_cast<std::size_t>(
                     static_cast<double>(id - first) /
                     static_cast<double>(last - first) *
                     static_cast<double>(hi - 1 - lo));
        if (ids_[mid] == id) return mid;
        if (ids_[mid] < id) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      const auto begin = ids_.begin();
      const auto it = std::lower_bound(begin + static_cast<std::ptrdiff_t>(lo),
                                       begin + static_cast<std::ptrdiff_t>(hi),
                                       id);
      return it != ids_.end() && *it == id
                 ? static_cast<std::size_t>(it - begin)
                 : ids_.size();
    }

    void Compact() {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < fns_.size(); ++i) {
        if (!fns_[i]) continue;
        ids_[kept] = ids_[i];
        if (kept != i) fns_[kept] = std::move(fns_[i]);
        ++kept;
      }
      ids_.resize(kept);
      fns_.resize(kept);
      removed_ = 0;
    }

    std::vector<ListenerId> ids_;
    /// Index-aligned with ids_.
    std::vector<Fn> fns_;
    std::size_t removed_ = 0;
  };

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
  ListenerId next_listener_ = 1;
};

}  // namespace contory::core
