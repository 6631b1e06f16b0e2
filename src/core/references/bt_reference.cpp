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

void BTReference::Discover(SimDuration max_age, DiscoverCallback done) {
  if (!done) return;
  if (controller_ == nullptr) {
    done(Unavailable("device has no bluetooth module"));
    return;
  }
  if (HasFreshDiscovery(max_age)) {
    done(cache_->devices);
    return;
  }
  pending_discoveries_.push_back(std::move(done));
  if (pending_discoveries_.size() > 1) return;  // inquiry already running

  controller_->StartInquiry(
      [this](Result<std::vector<net::BtDeviceInfo>> result) {
        auto waiting = std::move(pending_discoveries_);
        pending_discoveries_.clear();
        if (result.ok()) {
          cache_ = DiscoveryCache{*result, sim_.Now()};
        } else {
          NotifyFailure("BT inquiry failed: " + result.status().ToString());
        }
        for (auto& cb : waiting) cb(result);
      });
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
