#include "fault/fault_injector.hpp"

#include <cstdio>

#include "obs/observability.hpp"

namespace contory::fault {

void FaultInjector::RegisterBluetooth(const std::string& name,
                                      net::BluetoothController& bt) {
  bluetooth_[name] = &bt;
}

void FaultInjector::RegisterWifi(const std::string& name,
                                 net::WifiController& wifi) {
  wifi_[name] = &wifi;
}

void FaultInjector::RegisterModem(const std::string& name,
                                  net::CellularModem& modem) {
  modems_[name] = &modem;
}

void FaultInjector::RegisterSensor(const std::string& name,
                                   sensors::EnvironmentSensor& sensor) {
  sensors_[name] = &sensor;
}

void FaultInjector::RegisterGps(const std::string& name,
                                sensors::GpsDevice& gps) {
  gps_[name] = &gps;
}

void FaultInjector::RegisterOutageSwitch(
    const std::string& name, std::function<void(bool down)> toggle) {
  outages_[name] = std::move(toggle);
}

void FaultInjector::RegisterNode(const std::string& name, net::Medium& medium,
                                 net::NodeId node) {
  nodes_[name] = {&medium, node};
}

Status FaultInjector::Validate(const FaultAction& action) const {
  const auto missing = [&](const char* category) {
    return NotFound("fault target '" + action.target + "' (" + category +
                    ") is not registered for " +
                    FaultKindName(action.kind));
  };
  switch (action.kind) {
    case FaultKind::kBtFail:
    case FaultKind::kBtLoss:
    case FaultKind::kBtLatency:
      if (!bluetooth_.contains(action.target)) return missing("bluetooth");
      break;
    case FaultKind::kWifiFail:
    case FaultKind::kWifiLoss:
    case FaultKind::kWifiLatency:
      if (!wifi_.contains(action.target)) return missing("wifi");
      break;
    case FaultKind::kCellOff:
    case FaultKind::kCellConnectFail:
    case FaultKind::kCellAbort:
      if (!modems_.contains(action.target)) return missing("modem");
      break;
    case FaultKind::kBrokerOutage:
      if (!outages_.contains(action.target)) return missing("outage switch");
      break;
    case FaultKind::kSensorFail:
    case FaultKind::kSensorNan:
      if (!sensors_.contains(action.target)) return missing("sensor");
      break;
    case FaultKind::kGpsOff:
      if (!gps_.contains(action.target)) return missing("gps");
      break;
    case FaultKind::kNodeLeave:
      if (!nodes_.contains(action.target)) return missing("node");
      break;
  }
  return Status::Ok();
}

Status FaultInjector::Execute(const FaultPlan& plan) {
  for (const FaultAction& action : plan.actions()) {
    if (const Status s = Validate(action); !s.ok()) return s;
  }
  for (const FaultAction& action : plan.actions()) {
    sim_.ScheduleAt(action.at, [this, action, life = life_] {
      if (!*life) return;
      Apply(action, /*enter=*/true);
    }, "fault.enter");
    if (action.duration > SimDuration::zero() &&
        action.kind != FaultKind::kNodeLeave) {
      sim_.ScheduleAt(action.at + action.duration,
                      [this, action, life = life_] {
                        if (!*life) return;
                        Apply(action, /*enter=*/false);
                      }, "fault.revert");
    }
  }
  return Status::Ok();
}

Status FaultInjector::ExecuteText(const std::string& schedule) {
  const auto plan = ParseFaultPlan(schedule);
  if (!plan.ok()) return plan.status();
  return Execute(*plan);
}

void FaultInjector::Apply(const FaultAction& action, bool enter) {
  switch (action.kind) {
    case FaultKind::kBtFail:
      bluetooth_.at(action.target)->SetFailed(enter);
      break;
    case FaultKind::kBtLoss:
      bluetooth_.at(action.target)->SetLossRate(enter ? action.param : 0.0);
      break;
    case FaultKind::kBtLatency:
      bluetooth_.at(action.target)
          ->SetExtraLatency(enter ? FromMillis(action.param)
                                  : SimDuration::zero());
      break;
    case FaultKind::kWifiFail:
      wifi_.at(action.target)->SetFailed(enter);
      break;
    case FaultKind::kWifiLoss:
      wifi_.at(action.target)->SetLossRate(enter ? action.param : 0.0);
      break;
    case FaultKind::kWifiLatency:
      wifi_.at(action.target)
          ->SetExtraLatency(enter ? FromMillis(action.param)
                                  : SimDuration::zero());
      break;
    case FaultKind::kCellOff:
      modems_.at(action.target)->SetRadioOn(!enter);
      break;
    case FaultKind::kCellConnectFail:
      modems_.at(action.target)
          ->SetConnectFailureRate(enter ? action.param : 0.0);
      break;
    case FaultKind::kCellAbort:
      modems_.at(action.target)
          ->SetTransferAbortRate(enter ? action.param : 0.0);
      break;
    case FaultKind::kBrokerOutage:
      outages_.at(action.target)(enter);
      break;
    case FaultKind::kSensorFail:
      sensors_.at(action.target)->SetFailed(enter);
      break;
    case FaultKind::kSensorNan:
      sensors_.at(action.target)->SetNanBurst(enter);
      break;
    case FaultKind::kGpsOff:
      if (enter) {
        gps_.at(action.target)->PowerOff();
      } else {
        gps_.at(action.target)->PowerOn();
      }
      break;
    case FaultKind::kNodeLeave: {
      // Churn is permanent: Medium ids are never reused, so a departed
      // node cannot rejoin under the same identity.
      const auto& [medium, node] = nodes_.at(action.target);
      medium->Unregister(node);
      break;
    }
  }
  ++injected_;
  COBS({
    obs::Observability::metrics()
        .GetCounter("faults_injected_total",
                    {{"kind", FaultKindName(action.kind)},
                     {"phase", enter ? "enter" : "revert"}})
        .Inc();
    // Every live query's root span records the fault windows it lived
    // through, so a slow or failed span can be read next to its cause.
    obs::Observability::tracer().NoteOpenRoots(
        std::string("fault:") + FaultKindName(action.kind) + ':' +
        action.target + (enter ? ":on" : ":off"));
  });
  Log(action, enter);
}

void FaultInjector::Log(const FaultAction& action, bool enter) {
  std::string line = FormatTime(sim_.Now());
  line += ' ';
  line += FaultKindName(action.kind);
  line += ' ';
  line += action.target;
  line += enter ? " on" : " off";
  if (enter && action.param != 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " param=%g", action.param);
    line += buf;
  }
  log_.push_back(std::move(line));
}

std::string FaultInjector::LogAsText() const {
  std::string out;
  for (const std::string& line : log_) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace contory::fault
