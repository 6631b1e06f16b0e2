// LocalCxtProvider (Sec. 4.3).
//
// "LocalCxtProviders manage the access to local sensors which can be
// integrated in the device or be accessible via BT. These providers
// periodically pull sensor devices and report values that match WHERE and
// FRESHNESS requirements."
//
// Two transports:
//  * integrated sensors (InternalReference): sampled at the query rate;
//  * a Bluetooth GPS receiver for location/speed queries: discovery (via
//    the BTReference cache), SDP lookup of the NMEA service, connection,
//    then parsing the 1 Hz NMEA stream. A dropped GPS link is reported as
//    a provider failure, which is what lets the ContextFactory switch to
//    ad hoc provisioning in the Fig. 5 experiment.
#pragma once

#include <memory>
#include <optional>

#include "core/access_controller.hpp"
#include "core/providers/provider.hpp"
#include "core/references/bt_reference.hpp"
#include "core/references/internal_reference.hpp"
#include "sensors/gps.hpp"

namespace contory::core {

class LocalCxtProvider final : public CxtProvider {
 public:
  LocalCxtProvider(sim::Simulation& sim, query::CxtQuery query,
                   Callbacks callbacks, InternalReference& internal,
                   BTReference& bt, AccessController& access,
                   Client* client);
  ~LocalCxtProvider() override;

  [[nodiscard]] query::SourceSel kind() const noexcept override {
    return query::SourceSel::kIntSensor;
  }
  [[nodiscard]] const char* transport() const noexcept override {
    return gps_mode_ ? "BT-GPS" : "internal-sensor";
  }

  /// Can this device serve `q` locally at all (used by the factory's
  /// mechanism selection)?
  [[nodiscard]] static bool CanServe(const query::CxtQuery& q,
                                     const InternalReference& internal,
                                     const BTReference& bt);

 protected:
  void DoStart() override;
  void DoStop() override;
  void OnQueryUpdated() override;

 private:
  void StartSensorMode();
  void SampleSensorOnce();
  void StartGpsMode();
  void SearchGpsService(std::vector<net::BtDeviceInfo> devices,
                        std::size_t index);
  void ConnectGps(net::NodeId device, std::string device_name);
  void OnNmea(const std::vector<std::byte>& data);
  void DeliverFix();
  [[nodiscard]] CxtItem ItemFromFix(const sensors::GpsFix& fix,
                                    SimTime stamped_at) const;

  InternalReference& internal_;
  BTReference& bt_;
  AccessController& access_;
  Client* client_;
  bool gps_mode_ = false;
  std::unique_ptr<sim::PeriodicTask> poller_;
  BTReference::ListenerId data_listener_ = 0;
  BTReference::ListenerId disconnect_listener_ = 0;
  BTReference::DiscoveryId discovery_ = 0;
  net::BtLinkId gps_link_ = 0;
  std::string gps_device_name_;
  std::optional<sensors::GpsFix> latest_fix_;
  SimTime latest_fix_at_{};
  bool first_delivery_done_ = false;
  /// Outlives `this` in async BT callbacks.
  std::shared_ptr<bool> life_ = std::make_shared<bool>(true);
};

}  // namespace contory::core
