#include "core/references/bt_reference.hpp"

#include <utility>

namespace contory::core {

BTReference::BTReference(sim::Simulation& sim,
                         net::BluetoothController* controller)
    : sim_(sim), controller_(controller) {
  if (controller_ == nullptr) return;
  controller_->SetDataHandler(
      [this](net::BtLinkId link, net::NodeId from,
             const std::vector<std::byte>& data) {
        Dispatch(data_listeners_, link, from, data);
      });
  controller_->SetDisconnectHandler(
      [this](net::BtLinkId link, net::NodeId peer) {
        NotifyFailure("BT link " + std::to_string(link) + " to node " +
                      std::to_string(peer) + " dropped");
        Dispatch(disconnect_listeners_, link, peer);
      });
}

bool BTReference::HasFreshDiscovery(SimDuration max_age) const {
  return cache_.has_value() && sim_.Now() - cache_->at <= max_age;
}

BTReference::DiscoveryId BTReference::Discover(SimDuration max_age,
                                               DiscoverCallback done) {
  if (!done) return 0;
  if (controller_ == nullptr) {
    done(Unavailable("device has no bluetooth module"));
    return 0;
  }
  if (HasFreshDiscovery(max_age)) {
    done(cache_->devices);
    return 0;
  }
  const DiscoveryId id =
      pending_discoveries_.Insert({next_listener_seq_++, std::move(done)});
  if (inquiring_) return id;  // join the running inquiry
  inquiring_ = true;

  controller_->StartInquiry(
      [this](Result<std::vector<net::BtDeviceInfo>> result) {
        // The waiting callbacks leave the table before anything runs, so
        // a Discover from here on starts the next inquiry.
        const auto waiting = InOrder(pending_discoveries_);
        pending_discoveries_.Clear();
        inquiring_ = false;
        if (result.ok()) {
          cache_ = DiscoveryCache{*result, sim_.Now()};
        } else {
          NotifyFailure("BT inquiry failed: " + result.status().ToString());
        }
        for (const auto& cb : waiting) cb.fn(result);
      });
  return id;
}

BTReference::ListenerId BTReference::AddDataListener(DataListener listener) {
  return data_listeners_.Insert({next_listener_seq_++, std::move(listener)});
}

void BTReference::RemoveDataListener(ListenerId id) {
  data_listeners_.Erase(id);
}

BTReference::ListenerId BTReference::AddDisconnectListener(
    DisconnectListener listener) {
  return disconnect_listeners_.Insert(
      {next_listener_seq_++, std::move(listener)});
}

void BTReference::RemoveDisconnectListener(ListenerId id) {
  disconnect_listeners_.Erase(id);
}

}  // namespace contory::core
