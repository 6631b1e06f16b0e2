// ResourcesMonitor (Sec. 4.3).
//
// "The ResourcesMonitor component is in charge of maintaining an updated
// view on the status of several hardware items (e.g., device drivers), on
// the device's overall power state, and on the available memory space.
// Each time, network, sensors, or device failures affect the functioning
// of a communication module, the corresponding Reference notifies the
// ResourcesMonitor module. This, in turn, will inform the ContextFactory
// which will enforce a reconfiguration strategy to take over."
//
// Monitored variables exposed to the rules engine:
//   batteryPercent  number   remaining battery, 0..100
//   batteryLevel    string   "low" | "medium" | "high"
//   powerDraw       number   instantaneous draw in mW
//   memoryItems     number   items held by the local repository
//   memoryLevel     string   "low" | "medium" | "high" pressure
//   activeQueries   number   queries the QueryTable tracks
//   activeProviders number   providers currently running
#pragma once

#include <functional>
#include <string>

#include "core/model/cxt_value.hpp"
#include "core/references/reference.hpp"
#include "core/rules.hpp"
#include "phone/smart_phone.hpp"
#include "sim/simulation.hpp"

namespace contory::core {

struct ResourcesMonitorConfig {
  /// Usable battery energy. BL-5C class cell: ~970 mAh x 3.7 V ~ 12.9 kJ.
  double battery_capacity_joules = 12'900.0;
};

class ResourcesMonitor {
 public:
  ResourcesMonitor(sim::Simulation& sim, phone::SmartPhone& phone,
                   ResourcesMonitorConfig config = {});

  /// Hooks `reference`'s failure channel into this monitor.
  void Attach(Reference& reference);

  /// The ContextFactory's reconfiguration entry point.
  using FailureHandler = std::function<void(const std::string& module,
                                            const std::string& reason)>;
  void SetFailureHandler(FailureHandler handler) {
    failure_handler_ = std::move(handler);
  }

  // Gauges supplied by the owning factory (repository size, query counts).
  void SetMemoryGauge(std::function<std::size_t()> gauge) {
    memory_gauge_ = std::move(gauge);
  }
  void SetQueryGauge(std::function<std::size_t()> gauge) {
    query_gauge_ = std::move(gauge);
  }
  void SetProviderGauge(std::function<std::size_t()> gauge) {
    provider_gauge_ = std::move(gauge);
  }

  [[nodiscard]] double BatteryPercent() const;
  [[nodiscard]] std::string BatteryLevel() const;
  [[nodiscard]] std::string MemoryLevel() const;

  /// VariableLookup for the rules engine.
  [[nodiscard]] Result<CxtValue> Lookup(const std::string& variable) const;
  [[nodiscard]] VariableLookup AsLookup() const;

  [[nodiscard]] std::uint64_t failures_observed() const noexcept {
    return failures_;
  }

 private:
  sim::Simulation& sim_;
  phone::SmartPhone& phone_;
  ResourcesMonitorConfig config_;
  FailureHandler failure_handler_;
  std::function<std::size_t()> memory_gauge_;
  std::function<std::size_t()> query_gauge_;
  std::function<std::size_t()> provider_gauge_;
  std::uint64_t failures_ = 0;
};

}  // namespace contory::core
