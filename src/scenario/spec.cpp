#include "scenario/spec.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>

#include "core/query/parser.hpp"

namespace contory::scenario {
namespace {

using fault::ParseScheduleDuration;

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

/// Strips a trailing comment ('#' preceded by start-of-line or space).
std::string StripComment(const std::string& line) {
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '#' && (i == 0 || std::isspace(line[i - 1]) != 0)) {
      return line.substr(0, i);
    }
  }
  return line;
}

Status LineError(int line, const std::string& what) {
  return InvalidArgument("line " + std::to_string(line) + ": " + what);
}

Result<double> ParseNumber(int line, const std::string& token) {
  try {
    std::size_t used = 0;
    const double v = std::stod(token, &used);
    if (used != token.size()) {
      return LineError(line, "bad number '" + token + "'");
    }
    return v;
  } catch (const std::exception&) {
    return LineError(line, "bad number '" + token + "'");
  }
}

Result<net::Position> ParsePos(int line, const std::string& token) {
  const auto comma = token.find(',');
  if (comma == std::string::npos) {
    return LineError(line, "position must be <x>,<y>, got '" + token + "'");
  }
  const auto x = ParseNumber(line, token.substr(0, comma));
  if (!x.ok()) return x.status();
  const auto y = ParseNumber(line, token.substr(comma + 1));
  if (!y.ok()) return y.status();
  return net::Position{*x, *y};
}

Result<bool> ParseOnOff(int line, const std::string& key,
                        const std::string& value) {
  if (value == "on") return true;
  if (value == "off") return false;
  return LineError(line, key + "= expects on|off, got '" + value + "'");
}

Result<SimDuration> ParseDur(int line, const std::string& token) {
  auto d = ParseScheduleDuration(token);
  if (!d.ok()) {
    return LineError(line, std::string(d.status().message()));
  }
  return *d;
}

/// key=value split; returns false when the token has no '='.
bool SplitKv(const std::string& token, std::string& key, std::string& value) {
  const auto eq = token.find('=');
  if (eq == std::string::npos) return false;
  key = token.substr(0, eq);
  value = token.substr(eq + 1);
  return true;
}

/// Parse-time symbol tables for cross-reference validation.
struct Symbols {
  struct Device {
    bool bt = false;
    bool wifi = false;
    bool cell = false;
    std::set<std::string> sensors;
  };
  std::map<std::string, Device> devices;
  std::set<std::string> gps;
  std::set<std::string> servers;
  std::set<std::string> queries;
};

Status ValidateFaultTarget(int line, const fault::FaultAction& action,
                           const Symbols& sym) {
  using fault::FaultKind;
  const std::string& t = action.target;
  const auto device = sym.devices.find(t);
  switch (action.kind) {
    case FaultKind::kBtFail:
    case FaultKind::kBtLoss:
    case FaultKind::kBtLatency:
      if (device == sym.devices.end() || !device->second.bt) {
        return LineError(line, "fault target '" + t +
                                   "' is not a declared device with bt=on");
      }
      return Status::Ok();
    case FaultKind::kWifiFail:
    case FaultKind::kWifiLoss:
    case FaultKind::kWifiLatency:
      if (device == sym.devices.end() || !device->second.wifi) {
        return LineError(line, "fault target '" + t +
                                   "' is not a declared device with wifi=on");
      }
      return Status::Ok();
    case FaultKind::kCellOff:
    case FaultKind::kCellConnectFail:
    case FaultKind::kCellAbort:
      if (device == sym.devices.end() || !device->second.cell) {
        return LineError(line, "fault target '" + t +
                                   "' is not a declared device with cell=on");
      }
      return Status::Ok();
    case FaultKind::kSensorFail:
    case FaultKind::kSensorNan: {
      const auto at = t.find('@');
      if (at == std::string::npos) {
        return LineError(line, "sensor fault target must be <type>@<device>");
      }
      const std::string type = t.substr(0, at);
      const auto owner = sym.devices.find(t.substr(at + 1));
      if (owner == sym.devices.end() ||
          !owner->second.sensors.contains(type)) {
        return LineError(line, "no declared sensor '" + t + "'");
      }
      return Status::Ok();
    }
    case FaultKind::kGpsOff:
      if (!sym.gps.contains(t)) {
        return LineError(line, "'" + t + "' is not a declared gps");
      }
      return Status::Ok();
    case FaultKind::kBrokerOutage:
      if (!sym.servers.contains(t)) {
        return LineError(line, "'" + t + "' is not a declared server");
      }
      return Status::Ok();
    case FaultKind::kNodeLeave:
      if (!sym.devices.contains(t) && !sym.gps.contains(t)) {
        return LineError(line, "'" + t + "' is not a declared device or gps");
      }
      return Status::Ok();
  }
  return LineError(line, "unhandled fault kind");
}

const std::set<std::string> kQueryNumProps = {
    "items",      "stale_items", "fresh_items",          "errors",
    "completions", "submitted",  "refused",              "degraded",
    "active",     "retry_hint",  "staleness_increasing", "last_stale"};
const std::set<std::string> kQueryTextProps = {"last_source", "mechanism",
                                               "error_text", "status"};
const std::set<std::string> kDeviceProps = {
    "active",   "invalid_transitions", "completed",
    "admitted", "switches",            "retries",
    "degraded_deliveries", "providers", "last_switch"};
const std::set<std::string> kFacades = {"intSensor", "extInfra",
                                        "adHocNetwork"};

Result<ExpectSpec::Op> ParseOp(int line, const std::string& token) {
  using Op = ExpectSpec::Op;
  if (token == "==") return Op::kEq;
  if (token == "!=") return Op::kNe;
  if (token == ">=") return Op::kGe;
  if (token == "<=") return Op::kLe;
  if (token == ">") return Op::kGt;
  if (token == "<") return Op::kLt;
  if (token == "contains") return Op::kContains;
  return LineError(line, "unknown comparison '" + token + "'");
}

Result<ExpectSpec> ParseExpect(int line,
                               const std::vector<std::string>& tokens,
                               const Symbols& sym) {
  if (tokens.size() < 2) {
    return LineError(line, "expect needs a selector");
  }
  ExpectSpec e;
  e.line = line;
  e.raw = tokens[1];

  // Decompose the dotted selector.
  std::vector<std::string> parts;
  {
    std::string part;
    std::istringstream in(tokens[1]);
    while (std::getline(in, part, '.')) parts.push_back(part);
  }
  if (parts.empty()) return LineError(line, "empty selector");

  if (parts[0] == "q") {
    if (parts.size() != 3) {
      return LineError(line, "query selector must be q.<name>.<property>");
    }
    if (!sym.queries.contains(parts[1])) {
      return LineError(line, "invariant on undeclared query '" + parts[1] +
                                 "'");
    }
    e.domain = ExpectSpec::Domain::kQuery;
    e.entity = parts[1];
    e.property = parts[2];
    if (!kQueryNumProps.contains(e.property) &&
        !kQueryTextProps.contains(e.property)) {
      return LineError(line, "unknown query property '" + e.property + "'");
    }
  } else if (parts[0] == "d") {
    if (parts.size() != 3 && parts.size() != 4) {
      return LineError(line,
                       "device selector must be d.<name>.<property>[.facade]");
    }
    if (!sym.devices.contains(parts[1])) {
      return LineError(line, "invariant on undeclared device '" + parts[1] +
                                 "'");
    }
    e.domain = ExpectSpec::Domain::kDevice;
    e.entity = parts[1];
    e.property = parts[2];
    if (parts.size() == 4) {
      if (e.property != "originals" && e.property != "providers") {
        return LineError(line, "only originals/providers take a facade");
      }
      if (!kFacades.contains(parts[3])) {
        return LineError(line, "unknown facade '" + parts[3] + "'");
      }
      e.facade = parts[3];
    } else if (!kDeviceProps.contains(e.property)) {
      return LineError(line, "unknown device property '" + e.property + "'");
    }
  } else if (parts[0] == "srv") {
    // Server addresses contain dots: srv.<address>.dropped.
    if (parts.size() < 3 || parts.back() != "dropped") {
      return LineError(line, "server selector must be srv.<address>.dropped");
    }
    e.domain = ExpectSpec::Domain::kServer;
    e.property = parts.back();
    for (std::size_t i = 1; i + 1 < parts.size(); ++i) {
      e.entity += (i > 1 ? "." : "") + parts[i];
    }
    if (!sym.servers.contains(e.entity)) {
      return LineError(line, "invariant on undeclared server '" + e.entity +
                                 "'");
    }
  } else if (parts[0] == "tracer") {
    if (parts.size() != 2 ||
        (parts[1] != "open_spans" && parts[1] != "double_closes")) {
      return LineError(line,
                       "tracer selector must be tracer.open_spans or "
                       "tracer.double_closes");
    }
    e.domain = ExpectSpec::Domain::kTracer;
    e.property = parts[1];
  } else if (parts[0] == "injector") {
    if (parts.size() != 2 || parts[1] != "injected") {
      return LineError(line, "injector selector must be injector.injected");
    }
    e.domain = ExpectSpec::Domain::kInjector;
    e.property = parts[1];
  } else if (parts[0] == "metric") {
    if (parts.size() != 2 || parts[1].empty()) {
      return LineError(line, "metric selector must be metric.<name>");
    }
    e.domain = ExpectSpec::Domain::kMetric;
    e.entity = parts[1];
  } else {
    return LineError(line, "unknown selector domain '" + parts[0] +
                               "' (expected q/d/srv/tracer/injector/metric)");
  }

  const bool text_prop = (e.domain == ExpectSpec::Domain::kQuery &&
                          kQueryTextProps.contains(e.property)) ||
                         (e.domain == ExpectSpec::Domain::kDevice &&
                          e.property == "last_switch");

  if (tokens.size() == 2) {
    // Bare selector: truthy.
    if (text_prop) {
      return LineError(line, "'" + e.property + "' needs an operator");
    }
    e.op = ExpectSpec::Op::kGe;
    e.number = 1.0;
    return e;
  }
  if (tokens.size() != 4) {
    return LineError(line, "expect wants: expect <selector> <op> <value>");
  }
  const auto op = ParseOp(line, tokens[2]);
  if (!op.ok()) return op.status();
  e.op = *op;

  if (text_prop || e.op == ExpectSpec::Op::kContains) {
    if (!text_prop) {
      return LineError(line, "'contains' only applies to string properties");
    }
    if (e.op != ExpectSpec::Op::kEq && e.op != ExpectSpec::Op::kNe &&
        e.op != ExpectSpec::Op::kContains) {
      return LineError(line, "string properties support ==, != and contains");
    }
    e.is_text = true;
    e.text = tokens[3];
    return e;
  }
  const auto number = ParseNumber(line, tokens[3]);
  if (!number.ok()) return number.status();
  e.number = *number;
  return e;
}

}  // namespace

Result<ScenarioSpec> ParseScenario(const std::string& text) {
  ScenarioSpec spec;
  Symbols sym;
  std::set<std::string> clients;
  SimDuration offset = SimDuration::zero();

  std::istringstream in(text);
  std::string raw_line;
  int line_no = 0;
  while (std::getline(in, raw_line)) {
    ++line_no;
    const std::string line = StripComment(raw_line);
    const std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) continue;
    const std::string& directive = tokens[0];
    Step step;
    step.line = line_no;

    if (directive == "scenario") {
      std::string title;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        if (!title.empty()) title += ' ';
        title += tokens[i];
      }
      spec.title = title;
      continue;
    }

    if (directive == "seed") {
      if (tokens.size() != 2) return LineError(line_no, "seed <uint64>");
      try {
        spec.seed = std::stoull(tokens[1]);
      } catch (const std::exception&) {
        return LineError(line_no, "bad seed '" + tokens[1] + "'");
      }
      continue;
    }

    if (directive == "device") {
      if (tokens.size() < 2) return LineError(line_no, "device needs a name");
      DeviceSpec d;
      d.line = line_no;
      d.name = tokens[1];
      if (sym.devices.contains(d.name)) {
        return LineError(line_no, "duplicate device '" + d.name + "'");
      }
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        std::string key;
        std::string value;
        if (!SplitKv(tokens[i], key, value)) {
          return LineError(line_no, "expected key=value, got '" + tokens[i] +
                                        "'");
        }
        if (key == "profile") {
          if (value != "6630" && value != "9500") {
            return LineError(line_no, "profile= expects 6630|9500");
          }
          d.profile = value;
        } else if (key == "pos") {
          auto p = ParsePos(line_no, value);
          if (!p.ok()) return p.status();
          d.position = *p;
        } else if (key == "bt" || key == "wifi" || key == "cell") {
          auto b = ParseOnOff(line_no, key, value);
          if (!b.ok()) return b.status();
          (key == "bt" ? d.bt : key == "wifi" ? d.wifi : d.cell) = *b;
        } else if (key == "sensors") {
          std::string sensor;
          std::istringstream list(value);
          while (std::getline(list, sensor, '+')) {
            if (!sensor.empty()) d.sensors.push_back(sensor);
          }
          if (d.sensors.empty()) {
            return LineError(line_no, "sensors= lists types joined with '+'");
          }
        } else if (key == "infra") {
          d.infra_address = value;
        } else if (key == "merging") {
          auto b = ParseOnOff(line_no, key, value);
          if (!b.ok()) return b.status();
          d.factory.enable_query_merging = *b;
        } else if (key == "degraded") {
          auto b = ParseOnOff(line_no, key, value);
          if (!b.ok()) return b.status();
          d.factory.failover.enable_degraded_mode = *b;
        } else if (key == "probe") {
          auto dur = ParseDur(line_no, value);
          if (!dur.ok()) return dur.status();
          d.factory.failover.recovery_probe_period = *dur;
        } else if (key == "retries") {
          auto n = ParseNumber(line_no, value);
          if (!n.ok()) return n.status();
          d.factory.retry.max_attempts = static_cast<int>(*n);
        } else if (key == "retry_deadline") {
          auto dur = ParseDur(line_no, value);
          if (!dur.ok()) return dur.status();
          d.factory.retry.total_deadline = *dur;
        } else if (key == "retry_timeout") {
          auto dur = ParseDur(line_no, value);
          if (!dur.ok()) return dur.status();
          d.factory.retry.attempt_timeout = *dur;
        } else if (key == "retry_backoff") {
          auto dur = ParseDur(line_no, value);
          if (!dur.ok()) return dur.status();
          d.factory.retry.initial_backoff = *dur;
        } else if (key == "retry_backoff_max") {
          auto dur = ParseDur(line_no, value);
          if (!dur.ok()) return dur.status();
          d.factory.retry.max_backoff = *dur;
        } else if (key == "admit_rate") {
          auto n = ParseNumber(line_no, value);
          if (!n.ok()) return n.status();
          d.factory.overload.admit_rate_per_s = *n;
        } else if (key == "admit_burst") {
          auto n = ParseNumber(line_no, value);
          if (!n.ok()) return n.status();
          d.factory.overload.admit_burst = *n;
        } else if (key == "shed_high") {
          auto n = ParseNumber(line_no, value);
          if (!n.ok()) return n.status();
          d.factory.overload.shed_high_watermark =
              static_cast<std::size_t>(*n);
        } else if (key == "shed_standard") {
          auto n = ParseNumber(line_no, value);
          if (!n.ok()) return n.status();
          d.factory.overload.shed_standard_watermark =
              static_cast<std::size_t>(*n);
        } else if (key == "stale_fastpath") {
          auto b = ParseOnOff(line_no, key, value);
          if (!b.ok()) return b.status();
          d.factory.overload.stale_fast_path = *b;
        } else if (key == "stale_max_age") {
          auto dur = ParseDur(line_no, value);
          if (!dur.ok()) return dur.status();
          d.factory.overload.stale_answer_max_age = *dur;
        } else {
          return LineError(line_no, "unknown device key '" + key + "'");
        }
      }
      if (d.wifi && d.profile != "9500") {
        return LineError(line_no,
                         "wifi=on needs profile=9500 (communicator class)");
      }
      Symbols::Device entry;
      entry.bt = d.bt;
      entry.wifi = d.wifi;
      entry.cell = d.cell;
      entry.sensors.insert(d.sensors.begin(), d.sensors.end());
      sym.devices.emplace(d.name, std::move(entry));
      step.kind = Step::Kind::kDevice;
      step.device = std::move(d);
      spec.steps.push_back(std::move(step));
      continue;
    }

    if (directive == "gps") {
      if (tokens.size() != 3) {
        return LineError(line_no, "gps <name> pos=<x>,<y>");
      }
      GpsSpec g;
      g.line = line_no;
      g.name = tokens[1];
      if (sym.gps.contains(g.name)) {
        return LineError(line_no, "duplicate gps '" + g.name + "'");
      }
      std::string key;
      std::string value;
      if (!SplitKv(tokens[2], key, value) || key != "pos") {
        return LineError(line_no, "gps <name> pos=<x>,<y>");
      }
      auto p = ParsePos(line_no, value);
      if (!p.ok()) return p.status();
      g.position = *p;
      sym.gps.insert(g.name);
      step.kind = Step::Kind::kGps;
      step.gps = std::move(g);
      spec.steps.push_back(std::move(step));
      continue;
    }

    if (directive == "server") {
      if (tokens.size() != 2) return LineError(line_no, "server <addr>");
      if (sym.servers.contains(tokens[1])) {
        return LineError(line_no, "duplicate server '" + tokens[1] + "'");
      }
      sym.servers.insert(tokens[1]);
      step.kind = Step::Kind::kServer;
      step.server = {line_no, tokens[1]};
      spec.steps.push_back(std::move(step));
      continue;
    }

    if (directive == "feed") {
      if (tokens.size() < 4) {
        return LineError(line_no,
                         "feed <addr> type=<type> every=<dur> value=<num>");
      }
      FeedSpec f;
      f.line = line_no;
      f.server = tokens[1];
      if (!sym.servers.contains(f.server)) {
        return LineError(line_no, "'" + f.server +
                                      "' is not a declared server");
      }
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        std::string key;
        std::string value;
        if (!SplitKv(tokens[i], key, value)) {
          return LineError(line_no, "expected key=value, got '" + tokens[i] +
                                        "'");
        }
        if (key == "type") {
          f.type = value;
        } else if (key == "every") {
          auto dur = ParseDur(line_no, value);
          if (!dur.ok()) return dur.status();
          f.every = *dur;
        } else if (key == "value") {
          auto n = ParseNumber(line_no, value);
          if (!n.ok()) return n.status();
          f.value = *n;
        } else if (key == "accuracy") {
          auto n = ParseNumber(line_no, value);
          if (!n.ok()) return n.status();
          f.accuracy = *n;
        } else {
          return LineError(line_no, "unknown feed key '" + key + "'");
        }
      }
      if (f.type.empty() || f.every == SimDuration::zero()) {
        return LineError(line_no, "feed needs type= and every=");
      }
      step.kind = Step::Kind::kFeed;
      step.feed = std::move(f);
      spec.steps.push_back(std::move(step));
      continue;
    }

    if (directive == "publish") {
      if (tokens.size() < 3) {
        return LineError(line_no, "publish <device> type=<type> ...");
      }
      PublishSpec p;
      p.line = line_no;
      p.device = tokens[1];
      if (!sym.devices.contains(p.device)) {
        return LineError(line_no, "'" + p.device +
                                      "' is not a declared device");
      }
      bool once = false;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        if (tokens[i] == "once") {
          once = true;
          continue;
        }
        if (tokens[i] == "location") {
          p.location = true;
          continue;
        }
        std::string key;
        std::string value;
        if (!SplitKv(tokens[i], key, value)) {
          return LineError(line_no, "expected key=value, got '" + tokens[i] +
                                        "'");
        }
        if (key == "type") {
          p.type = value;
        } else if (key == "every") {
          auto dur = ParseDur(line_no, value);
          if (!dur.ok()) return dur.status();
          p.every = *dur;
        } else if (key == "value") {
          auto n = ParseNumber(line_no, value);
          if (!n.ok()) return n.status();
          p.value = *n;
        } else if (key == "accuracy") {
          auto n = ParseNumber(line_no, value);
          if (!n.ok()) return n.status();
          p.accuracy = *n;
        } else {
          return LineError(line_no, "unknown publish key '" + key + "'");
        }
      }
      if (p.type.empty()) return LineError(line_no, "publish needs type=");
      if (once && p.every != SimDuration::zero()) {
        return LineError(line_no, "publish takes once or every=, not both");
      }
      if (!once && p.every == SimDuration::zero()) {
        return LineError(line_no, "publish needs once or every=<dur>");
      }
      step.kind = Step::Kind::kPublish;
      step.publish = std::move(p);
      spec.steps.push_back(std::move(step));
      continue;
    }

    if (directive == "warm") {
      if (tokens.size() != 4) {
        return LineError(line_no, "warm <device> type=<type> value=<num>");
      }
      WarmSpec w;
      w.line = line_no;
      w.device = tokens[1];
      if (!sym.devices.contains(w.device)) {
        return LineError(line_no, "'" + w.device +
                                      "' is not a declared device");
      }
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        std::string key;
        std::string value;
        if (!SplitKv(tokens[i], key, value)) {
          return LineError(line_no, "expected key=value, got '" + tokens[i] +
                                        "'");
        }
        if (key == "type") {
          w.type = value;
        } else if (key == "value") {
          auto n = ParseNumber(line_no, value);
          if (!n.ok()) return n.status();
          w.value = *n;
        } else {
          return LineError(line_no, "unknown warm key '" + key + "'");
        }
      }
      if (w.type.empty()) return LineError(line_no, "warm needs type=");
      step.kind = Step::Kind::kWarm;
      step.warm = std::move(w);
      spec.steps.push_back(std::move(step));
      continue;
    }

    if (directive == "fault") {
      // The remainder of the line is one FaultPlan schedule line.
      std::string schedule;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        if (!schedule.empty()) schedule += ' ';
        schedule += tokens[i];
      }
      auto plan = fault::ParseFaultPlan(schedule + "\n");
      if (!plan.ok()) {
        std::string msg(plan.status().message());
        // Replace the plan's own "fault plan line 1: " prefix with this
        // spec's line number.
        const std::string prefix = "fault plan line 1: ";
        if (msg.rfind(prefix, 0) == 0) msg = msg.substr(prefix.size());
        return LineError(line_no, msg);
      }
      if (plan->size() != 1) {
        return LineError(line_no, "fault takes exactly one schedule line");
      }
      const fault::FaultAction& action = plan->actions().front();
      if (auto s = ValidateFaultTarget(line_no, action, sym); !s.ok()) {
        return s;
      }
      if (action.at < kSimEpoch + offset) {
        return LineError(
            line_no,
            "fault at " + FormatTime(action.at) +
                " is in the simulation's past (timeline already at " +
                FormatTime(kSimEpoch + offset) + ")");
      }
      step.kind = Step::Kind::kFault;
      step.fault = action;
      spec.steps.push_back(std::move(step));
      continue;
    }

    if (directive == "query") {
      // query <name> on <device> [client=<name>] : <query text>
      const auto colon = line.find(" : ");
      if (colon == std::string::npos) {
        return LineError(line_no,
                         "query <name> on <device> [client=<c>] : <text>");
      }
      const std::vector<std::string> head =
          Tokenize(line.substr(0, colon));
      if (head.size() < 4 || head[2] != "on") {
        return LineError(line_no,
                         "query <name> on <device> [client=<c>] : <text>");
      }
      QuerySpec q;
      q.line = line_no;
      q.name = head[1];
      q.device = head[3];
      if (sym.queries.contains(q.name)) {
        return LineError(line_no, "duplicate query '" + q.name + "'");
      }
      if (!sym.devices.contains(q.device)) {
        return LineError(line_no, "query on undeclared device '" + q.device +
                                      "'");
      }
      for (std::size_t i = 4; i < head.size(); ++i) {
        std::string key;
        std::string value;
        if (!SplitKv(head[i], key, value) || key != "client") {
          return LineError(line_no, "unknown query argument '" + head[i] +
                                        "'");
        }
        q.client = value;
      }
      q.text = line.substr(colon + 3);
      auto parsed = query::ParseQuery(q.text);
      if (!parsed.ok()) {
        return LineError(line_no, "bad query: " +
                                      std::string(
                                          parsed.status().message()));
      }
      q.parsed = *std::move(parsed);
      sym.queries.insert(q.name);
      if (!q.client.empty()) clients.insert(q.client);
      step.kind = Step::Kind::kQuery;
      step.query = std::move(q);
      spec.steps.push_back(std::move(step));
      continue;
    }

    if (directive == "run") {
      if (tokens.size() != 2) return LineError(line_no, "run <dur>");
      auto dur = ParseDur(line_no, tokens[1]);
      if (!dur.ok()) return dur.status();
      offset += *dur;
      step.kind = Step::Kind::kRun;
      step.run = *dur;
      spec.steps.push_back(std::move(step));
      continue;
    }

    if (directive == "cancel") {
      if (tokens.size() != 2) return LineError(line_no, "cancel <query>");
      if (!sym.queries.contains(tokens[1])) {
        return LineError(line_no, "cancel of undeclared query '" + tokens[1] +
                                      "'");
      }
      step.kind = Step::Kind::kCancel;
      step.target = tokens[1];
      spec.steps.push_back(std::move(step));
      continue;
    }

    if (directive == "stopall") {
      if (tokens.size() != 2) return LineError(line_no, "stopall <device>");
      if (!sym.devices.contains(tokens[1])) {
        return LineError(line_no, "stopall on undeclared device '" +
                                      tokens[1] + "'");
      }
      step.kind = Step::Kind::kStopAll;
      step.target = tokens[1];
      spec.steps.push_back(std::move(step));
      continue;
    }

    if (directive == "move") {
      if (tokens.size() != 3) return LineError(line_no, "move <device> <x>,<y>");
      if (!sym.devices.contains(tokens[1])) {
        return LineError(line_no, "move of undeclared device '" + tokens[1] +
                                      "'");
      }
      auto p = ParsePos(line_no, tokens[2]);
      if (!p.ok()) return p.status();
      step.kind = Step::Kind::kMove;
      step.target = tokens[1];
      step.move_pos = *p;
      spec.steps.push_back(std::move(step));
      continue;
    }

    if (directive == "policy") {
      if (tokens.size() != 3) {
        return LineError(line_no, "policy <device> reduceLoad|reducePower");
      }
      if (!sym.devices.contains(tokens[1])) {
        return LineError(line_no, "policy on undeclared device '" +
                                      tokens[1] + "'");
      }
      step.kind = Step::Kind::kPolicy;
      step.target = tokens[1];
      if (tokens[2] == "reduceLoad") {
        step.policy_action = core::RuleAction::kReduceLoad;
      } else if (tokens[2] == "reducePower") {
        step.policy_action = core::RuleAction::kReducePower;
      } else {
        return LineError(line_no, "unknown policy action '" + tokens[2] +
                                      "'");
      }
      spec.steps.push_back(std::move(step));
      continue;
    }

    if (directive == "expect") {
      auto e = ParseExpect(line_no, tokens, sym);
      if (!e.ok()) return e.status();
      step.kind = Step::Kind::kExpect;
      step.expect = *std::move(e);
      spec.steps.push_back(std::move(step));
      continue;
    }

    return LineError(line_no, "unknown directive '" + directive + "'");
  }

  spec.total_run = offset;
  return spec;
}

}  // namespace contory::scenario
