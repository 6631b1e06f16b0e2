// Experiment testbed builder.
//
// Assembles complete simulated worlds — phones with radios, GPS
// receivers, the environment, the cellular infrastructure, and Contory
// instances — the way the paper's testbed assembled Nokia phones, a
// BT-GPS and a remote repository. Used by the integration tests, every
// bench, and the examples, so that scenario construction lives in one
// audited place.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/contory.hpp"
#include "fault/fault_injector.hpp"
#include "infra/context_server.hpp"
#include "infra/regatta_service.hpp"
#include "sensors/environment.hpp"
#include "sensors/gps.hpp"

namespace contory::testbed {

struct DeviceOptions {
  std::string name = "phone";
  phone::PhoneProfile profile = phone::Nokia6630();
  net::Position position{0, 0};
  bool with_bt = true;
  bool with_wifi = false;   // 9500-class devices only, and it is expensive
  bool with_cellular = true;
  bool with_contory = true;
  /// Internal environment sensors to register (e.g. {vocab::kTemperature}).
  std::vector<std::string> internal_sensors{};
  /// Default extInfra address for this device's queries.
  std::string infra_address{};
  core::ContextFactoryConfig factory_config{};
};

class World;

/// One simulated device: a phone, its radios, and (optionally) Contory.
class Device {
 public:
  Device(World& world, const DeviceOptions& options);
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] net::NodeId node() const noexcept { return node_; }
  [[nodiscard]] phone::SmartPhone& phone() noexcept { return *phone_; }
  [[nodiscard]] net::BluetoothController* bt() noexcept { return bt_.get(); }
  [[nodiscard]] net::WifiController* wifi() noexcept { return wifi_.get(); }
  [[nodiscard]] sm::SmRuntime* sm() noexcept { return sm_.get(); }
  [[nodiscard]] net::CellularModem* modem() noexcept { return modem_.get(); }
  /// Requires with_contory.
  [[nodiscard]] core::ContextFactory& contory() noexcept {
    return *factory_;
  }
  [[nodiscard]] bool has_contory() const noexcept {
    return factory_ != nullptr;
  }

  void MoveTo(net::Position position);
  [[nodiscard]] net::Position position() const;

 private:
  World& world_;
  std::string name_;
  net::NodeId node_;
  std::unique_ptr<phone::SmartPhone> phone_;
  std::unique_ptr<net::BluetoothController> bt_;
  std::unique_ptr<net::WifiController> wifi_;
  std::unique_ptr<sm::SmRuntime> sm_;
  std::unique_ptr<net::CellularModem> modem_;
  std::unique_ptr<core::ContextFactory> factory_;
};

class World {
 public:
  explicit World(std::uint64_t seed = 1);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] net::Medium& medium() noexcept { return medium_; }
  [[nodiscard]] net::BluetoothBus& bt_bus() noexcept { return bt_bus_; }
  [[nodiscard]] net::WifiBus& wifi_bus() noexcept { return wifi_bus_; }
  [[nodiscard]] sm::SmBus& sm_bus() noexcept { return sm_bus_; }
  [[nodiscard]] net::CellularNetwork& cellular() noexcept {
    return cellular_;
  }
  [[nodiscard]] sensors::EnvironmentField& environment() noexcept {
    return environment_;
  }
  /// Chaos harness. Every radio, sensor, GPS and infrastructure service
  /// the builder creates is pre-registered: devices by name ("phone"),
  /// internal sensors as "<type>@<device>", services by address.
  [[nodiscard]] fault::FaultInjector& injector() noexcept {
    return injector_;
  }

  /// Creates a device; returned reference is stable for the World's life.
  Device& AddDevice(DeviceOptions options);
  [[nodiscard]] Device& device(std::size_t index) {
    return *devices_.at(index);
  }
  [[nodiscard]] std::size_t device_count() const noexcept {
    return devices_.size();
  }

  /// Creates a powered-on BT-GPS receiver at `position`.
  sensors::GpsDevice& AddGps(const std::string& name, net::Position position,
                             sensors::GpsConfig config = {});

  /// Infrastructure services (hosted in the fixed network).
  infra::ContextServer& AddContextServer(
      const std::string& address, infra::ContextServerConfig config = {});
  infra::RegattaService& AddRegattaService(
      const std::string& address, std::vector<GeoPoint> checkpoints,
      double radius_m = 150.0);

  // Convenience: the shorthand used by most benches/tests.
  void RunFor(SimDuration d) { sim_.RunFor(d); }
  [[nodiscard]] SimTime Now() const { return sim_.Now(); }

 private:
  sim::Simulation sim_;
  net::Medium medium_;
  net::BluetoothBus bt_bus_;
  net::WifiBus wifi_bus_;
  sm::SmBus sm_bus_;
  net::CellularNetwork cellular_;
  sensors::EnvironmentField environment_;
  fault::FaultInjector injector_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<std::unique_ptr<sensors::GpsDevice>> gps_devices_;
  std::vector<std::unique_ptr<infra::ContextServer>> servers_;
  std::vector<std::unique_ptr<infra::RegattaService>> regattas_;
  /// obs::Clock installation owned by this World (0 = superseded).
  std::uint64_t clock_token_ = 0;
};

/// Parses `text` and gives the query the next "q" id of `sim`, the way an
/// application builds a query before submitting it. Throws
/// std::runtime_error carrying the parser's Status text on failure.
[[nodiscard]] query::CxtQuery NewQuery(sim::Simulation& sim,
                                       const std::string& text);

}  // namespace contory::testbed
