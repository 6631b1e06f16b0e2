// Deterministic fault injection on a running simulation.
//
// The FaultInjector sits on sim::Simulation and replays a FaultPlan:
// each action is scheduled as an ordinary simulation event, so faults
// interleave with the system under test in the deterministic (time,
// insertion-order) total order every other event obeys. Two runs of the
// same plan against the same seed produce byte-identical event logs —
// which is exactly what the chaos tests assert.
//
// Targets register by name before Execute(); the injector validates the
// whole plan eagerly so a typo fails fast instead of silently skipping a
// fault mid-experiment. testbed::World auto-registers every device
// radio, sensor, GPS and infrastructure service it builds.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "fault/fault_plan.hpp"
#include "net/bluetooth.hpp"
#include "net/cellular.hpp"
#include "net/medium.hpp"
#include "net/wifi.hpp"
#include "sensors/environment.hpp"
#include "sensors/gps.hpp"
#include "sim/simulation.hpp"

namespace contory::fault {

class FaultInjector {
 public:
  explicit FaultInjector(sim::Simulation& sim) : sim_(sim) {}
  ~FaultInjector() { *life_ = false; }

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // --- Target registration (names must be unique per category) ----------
  void RegisterBluetooth(const std::string& name,
                         net::BluetoothController& bt);
  void RegisterWifi(const std::string& name, net::WifiController& wifi);
  void RegisterModem(const std::string& name, net::CellularModem& modem);
  void RegisterSensor(const std::string& name,
                      sensors::EnvironmentSensor& sensor);
  void RegisterGps(const std::string& name, sensors::GpsDevice& gps);
  /// Context servers — anything with an on/off outage switch.
  void RegisterOutageSwitch(const std::string& name,
                            std::function<void(bool down)> toggle);
  void RegisterNode(const std::string& name, net::Medium& medium,
                    net::NodeId node);

  /// Schedules every action of `plan` (validating targets eagerly).
  /// Windowed actions schedule both the fault and its revert.
  Status Execute(const FaultPlan& plan);
  /// Parses `schedule` and executes it.
  Status ExecuteText(const std::string& schedule);

  // --- Deterministic observability ---------------------------------------
  /// One line per applied fault transition, e.g.
  /// "t=155.000s gps.off gps-1 on". Byte-identical across same-seed runs.
  [[nodiscard]] const std::vector<std::string>& log() const noexcept {
    return log_;
  }
  [[nodiscard]] std::string LogAsText() const;
  [[nodiscard]] std::uint64_t injected() const noexcept { return injected_; }

 private:
  Status Validate(const FaultAction& action) const;
  /// Applies one transition (enter = fault on, !enter = revert).
  void Apply(const FaultAction& action, bool enter);
  void Log(const FaultAction& action, bool enter);

  sim::Simulation& sim_;
  std::map<std::string, net::BluetoothController*> bluetooth_;
  std::map<std::string, net::WifiController*> wifi_;
  std::map<std::string, net::CellularModem*> modems_;
  std::map<std::string, sensors::EnvironmentSensor*> sensors_;
  std::map<std::string, sensors::GpsDevice*> gps_;
  std::map<std::string, std::function<void(bool)>> outages_;
  std::map<std::string, std::pair<net::Medium*, net::NodeId>> nodes_;
  std::vector<std::string> log_;
  std::uint64_t injected_ = 0;
  std::shared_ptr<bool> life_ = std::make_shared<bool>(true);
};

}  // namespace contory::fault
