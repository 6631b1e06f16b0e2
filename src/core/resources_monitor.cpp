#include "core/resources_monitor.hpp"

#include <algorithm>

namespace contory::core {

ResourcesMonitor::ResourcesMonitor(sim::Simulation& sim,
                                   phone::SmartPhone& phone,
                                   ResourcesMonitorConfig config)
    : sim_(sim), phone_(phone), config_(config) {
  (void)sim_;
}

void ResourcesMonitor::Attach(Reference& reference) {
  const std::string module = reference.name();
  reference.SetFailureHandler([this, module](const std::string& reason) {
    ++failures_;
    if (failure_handler_) failure_handler_(module, reason);
  });
}

double ResourcesMonitor::BatteryPercent() const {
  const double used = phone_.energy().TotalEnergyJoules();
  const double frac =
      std::clamp(1.0 - used / config_.battery_capacity_joules, 0.0, 1.0);
  return frac * 100.0;
}

std::string ResourcesMonitor::BatteryLevel() const {
  const double pct = BatteryPercent();
  if (pct < 20.0) return "low";
  if (pct < 50.0) return "medium";
  return "high";
}

std::string ResourcesMonitor::MemoryLevel() const {
  const std::size_t items = memory_gauge_ ? memory_gauge_() : 0;
  if (items >= 128) return "high";  // repository items
  if (items >= 64) return "medium";
  return "low";
}

Result<CxtValue> ResourcesMonitor::Lookup(const std::string& variable) const {
  if (variable == "batteryPercent") return CxtValue{BatteryPercent()};
  if (variable == "batteryLevel") return CxtValue{BatteryLevel()};
  if (variable == "powerDraw") {
    return CxtValue{phone_.energy().CurrentPowerMilliwatts()};
  }
  if (variable == "memoryItems") {
    return CxtValue{static_cast<double>(memory_gauge_ ? memory_gauge_() : 0)};
  }
  if (variable == "memoryLevel") return CxtValue{MemoryLevel()};
  if (variable == "activeQueries") {
    return CxtValue{static_cast<double>(query_gauge_ ? query_gauge_() : 0)};
  }
  if (variable == "activeProviders") {
    return CxtValue{
        static_cast<double>(provider_gauge_ ? provider_gauge_() : 0)};
  }
  return NotFound("unknown monitored variable '" + variable + "'");
}

VariableLookup ResourcesMonitor::AsLookup() const {
  return [this](const std::string& variable) { return Lookup(variable); };
}

}  // namespace contory::core
