#include "scenario/runner.hpp"

#include <deque>
#include <map>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "core/pipeline/overload_governor.hpp"
#include "net/wifi.hpp"
#include "obs/observability.hpp"
#include "sensors/sensor.hpp"
#include "testbed/testbed.hpp"

namespace contory::scenario {
namespace {

std::string OpName(ExpectSpec::Op op) {
  switch (op) {
    case ExpectSpec::Op::kEq: return "==";
    case ExpectSpec::Op::kNe: return "!=";
    case ExpectSpec::Op::kGe: return ">=";
    case ExpectSpec::Op::kLe: return "<=";
    case ExpectSpec::Op::kGt: return ">";
    case ExpectSpec::Op::kLt: return "<";
    case ExpectSpec::Op::kContains: return "contains";
  }
  return "?";
}

bool CompareNumber(double lhs, ExpectSpec::Op op, double rhs) {
  switch (op) {
    case ExpectSpec::Op::kEq: return lhs == rhs;
    case ExpectSpec::Op::kNe: return lhs != rhs;
    case ExpectSpec::Op::kGe: return lhs >= rhs;
    case ExpectSpec::Op::kLe: return lhs <= rhs;
    case ExpectSpec::Op::kGt: return lhs > rhs;
    case ExpectSpec::Op::kLt: return lhs < rhs;
    case ExpectSpec::Op::kContains: return false;
  }
  return false;
}

bool CompareText(const std::string& lhs, ExpectSpec::Op op,
                 const std::string& rhs) {
  switch (op) {
    case ExpectSpec::Op::kEq: return lhs == rhs;
    case ExpectSpec::Op::kNe: return lhs != rhs;
    case ExpectSpec::Op::kContains:
      return lhs.find(rhs) != std::string::npos;
    default:
      return false;
  }
}

std::string FormatNumber(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

query::SourceSel FacadeKind(const std::string& name) {
  if (name == "intSensor") return query::SourceSel::kIntSensor;
  if (name == "extInfra") return query::SourceSel::kExtInfra;
  return query::SourceSel::kAdHocNetwork;
}

/// One submitted query's bookkeeping. The client pointer is shared when
/// the spec named a shared client; item/error selectors then read the
/// combined vectors.
struct QueryRun {
  const QuerySpec* spec = nullptr;
  testbed::Device* device = nullptr;
  core::CollectingClient* client = nullptr;
  std::string id;
  Status submit_status;
};

struct RunState {
  std::unique_ptr<testbed::World> world;
  std::map<std::string, testbed::Device*> devices;
  std::map<std::string, sensors::GpsDevice*> gps;
  std::map<std::string, infra::ContextServer*> servers;
  /// Stable addresses: clients are handed to the factory by reference.
  std::deque<core::CollectingClient> clients;
  std::map<std::string, core::CollectingClient*> shared_clients;
  /// Per-device publisher client, registered once via RegisterCxtServer.
  std::map<std::string, core::CollectingClient*> publishers;
  std::map<std::string, QueryRun> queries;
  /// Feed/publish drivers; destroyed before the World (declared after).
  std::deque<sim::PeriodicTask> tasks;
};

class Execution {
 public:
  Execution(const ScenarioSpec& spec, const RunnerOptions& options)
      : spec_(spec), options_(options) {}

  RunReport Go() {
    obs::Observability::ResetForTest();
    st_.world = std::make_unique<testbed::World>(spec_.seed);
    for (const Step& step : spec_.steps) ExecuteStep(step);
    FinalAudit();
    report_.passed = report_.failures.empty();
    return std::move(report_);
  }

 private:
  void Fail(int line, const std::string& what) {
    report_.failures.push_back("line " + std::to_string(line) + ": " + what);
  }

  void Note(const std::string& what) {
    if (options_.verbose) report_.log.push_back(what);
  }

  void ExecuteStep(const Step& step) {
    switch (step.kind) {
      case Step::Kind::kDevice: return DoDevice(step.device);
      case Step::Kind::kGps: return DoGps(step.gps);
      case Step::Kind::kServer: return DoServer(step.server);
      case Step::Kind::kFeed: return DoFeed(step.feed);
      case Step::Kind::kPublish: return DoPublish(step);
      case Step::Kind::kWarm: return DoWarm(step.warm);
      case Step::Kind::kFault: return DoFault(step);
      case Step::Kind::kQuery: return DoQuery(step.query);
      case Step::Kind::kRun:
        Note("run " + FormatDuration(step.run));
        st_.world->RunFor(step.run);
        AuditSpanWindows(step.line);
        AuditNeighborLists(step.line);
        return;
      case Step::Kind::kCancel: return DoCancel(step);
      case Step::Kind::kStopAll: return DoStopAll(step);
      case Step::Kind::kMove:
        st_.devices.at(step.target)->MoveTo(step.move_pos);
        return;
      case Step::Kind::kPolicy: return DoPolicy(step);
      case Step::Kind::kExpect: return DoExpect(step.expect);
    }
  }

  void DoDevice(const DeviceSpec& d) {
    testbed::DeviceOptions opts;
    opts.name = d.name;
    opts.profile =
        d.profile == "9500" ? phone::Nokia9500() : phone::Nokia6630();
    opts.position = d.position;
    opts.with_bt = d.bt;
    opts.with_wifi = d.wifi;
    opts.with_cellular = d.cell;
    opts.internal_sensors = d.sensors;
    opts.infra_address = d.infra_address;
    opts.factory_config = d.factory;
    st_.devices[d.name] = &st_.world->AddDevice(std::move(opts));
    Note("device " + d.name);
  }

  void DoGps(const GpsSpec& g) {
    st_.gps[g.name] = &st_.world->AddGps(g.name, g.position);
    Note("gps " + g.name);
  }

  void DoServer(const ServerSpec& s) {
    st_.servers[s.address] = &st_.world->AddContextServer(s.address);
    Note("server " + s.address);
  }

  void DoFeed(const FeedSpec& f) {
    infra::ContextServer* server = st_.servers.at(f.server);
    sim::Simulation* sim = &st_.world->sim();
    st_.tasks.emplace_back(*sim, f.every, [server, sim, f] {
      infra::StoredItem stored;
      stored.item.id = sim->ids().NextId("feed");
      stored.item.type = f.type;
      stored.item.value = f.value;
      stored.item.timestamp = sim->Now();
      stored.item.metadata.accuracy = f.accuracy;
      stored.item.source = {SourceKind::kExtInfra, server->address()};
      stored.entity = "station-1";
      server->StoreDirect(std::move(stored));
    });
    Note("feed " + f.type + " -> " + f.server);
  }

  void DoPublish(const Step& step) {
    const PublishSpec& p = step.publish;
    testbed::Device* dev = st_.devices.at(p.device);
    core::CollectingClient*& pub = st_.publishers[p.device];
    if (pub == nullptr) {
      st_.clients.emplace_back();
      pub = &st_.clients.back();
      if (Status s = dev->contory().RegisterCxtServer(*pub); !s.ok()) {
        Fail(step.line, "publisher registration failed: " +
                            std::string(s.message()));
        return;
      }
    }
    testbed::World* world = st_.world.get();
    auto publish_once = [dev, world, p]() -> Status {
      CxtItem item;
      item.id = p.every == SimDuration::zero()
                    ? "pub-" + p.device + "-" + p.type
                    : world->sim().ids().NextId("pub");
      item.type = p.type;
      if (p.location) {
        item.value = sensors::ToGeo(dev->position());
      } else {
        item.value = p.value;
      }
      item.timestamp = world->Now();
      item.metadata.accuracy = p.accuracy;
      return dev->contory().PublishCxtItem(item, true);
    };
    if (p.every == SimDuration::zero()) {
      if (Status s = publish_once(); !s.ok()) {
        Fail(step.line, "publish failed: " + std::string(s.message()));
      }
    } else {
      st_.tasks.emplace_back(st_.world->sim(), p.every,
                             [publish_once] { (void)publish_once(); });
    }
    Note("publish " + p.type + " on " + p.device);
  }

  void DoWarm(const WarmSpec& w) {
    testbed::Device* dev = st_.devices.at(w.device);
    CxtItem item;
    item.id = st_.world->sim().ids().NextId("warm");
    item.type = w.type;
    item.value = w.value;
    item.timestamp = st_.world->Now();
    dev->contory().repository().Store(std::move(item));
    Note("warm " + w.type + " on " + w.device);
  }

  void DoFault(const Step& step) {
    fault::FaultPlan plan;
    plan.Add(step.fault);
    if (Status s = st_.world->injector().Execute(plan); !s.ok()) {
      Fail(step.line, "fault rejected: " + std::string(s.message()));
      return;
    }
    Note("fault " + step.fault.ToString());
  }

  void DoQuery(const QuerySpec& q) {
    testbed::Device* dev = st_.devices.at(q.device);
    core::CollectingClient* client = nullptr;
    if (q.client.empty()) {
      st_.clients.emplace_back();
      client = &st_.clients.back();
    } else {
      core::CollectingClient*& shared = st_.shared_clients[q.client];
      if (shared == nullptr) {
        st_.clients.emplace_back();
        shared = &st_.clients.back();
      }
      client = shared;
    }
    query::CxtQuery parsed = q.parsed;
    parsed.id = st_.world->sim().ids().NextId("q");
    QueryRun run;
    run.spec = &q;
    run.device = dev;
    run.client = client;
    run.id = parsed.id;
    auto result = dev->contory().ProcessCxtQuery(std::move(parsed), *client);
    run.submit_status = result.ok() ? Status::Ok() : result.status();
    if (result.ok()) run.id = *result;
    st_.queries[q.name] = std::move(run);
    Note("query " + q.name + (result.ok() ? " admitted" : " refused"));
  }

  void DoCancel(const Step& step) {
    QueryRun& run = st_.queries.at(step.target);
    if (run.submit_status.ok()) {
      run.device->contory().CancelCxtQuery(run.id);
    }
    Note("cancel " + step.target);
  }

  void DoStopAll(const Step& step) {
    core::ContextFactory& factory = st_.devices.at(step.target)->contory();
    for (auto kind :
         {query::SourceSel::kIntSensor, query::SourceSel::kExtInfra,
          query::SourceSel::kAdHocNetwork}) {
      factory.facade(kind).StopAll(
          ResourceExhausted("policy suspended the query"));
    }
    Note("stopall " + step.target);
  }

  void DoPolicy(const Step& step) {
    core::ContextRule rule;
    rule.name = "scenario-policy";
    // Always-true condition: batteryPercent < 101 holds on any device,
    // so the action engages at the next policy tick.
    rule.condition = core::RuleExpr::Leaf(
        {"batteryPercent", core::RuleOp::kLessThan, CxtValue{101.0}});
    rule.action = step.policy_action;
    st_.devices.at(step.target)->contory().AddControlPolicy(std::move(rule));
    Note("policy " + step.target);
  }

  // --- Expect evaluation -------------------------------------------------

  void DoExpect(const ExpectSpec& e) {
    ++report_.expects_checked;
    if (e.domain == ExpectSpec::Domain::kTracer && !COBS_ON()) {
      report_.log.push_back("line " + std::to_string(e.line) +
                            ": tracer expect skipped (obs disabled)");
      return;
    }
    if (e.is_text) {
      const std::string actual = TextValue(e);
      if (!CompareText(actual, e.op, e.text)) {
        Fail(e.line, "expect " + e.raw + " " + OpName(e.op) + " " + e.text +
                         " — actual \"" + actual + "\"");
      }
      return;
    }
    const double actual = NumberValue(e);
    if (!CompareNumber(actual, e.op, e.number)) {
      Fail(e.line, "expect " + e.raw + " " + OpName(e.op) + " " +
                       FormatNumber(e.number) + " — actual " +
                       FormatNumber(actual));
    }
  }

  std::string TextValue(const ExpectSpec& e) {
    if (e.domain == ExpectSpec::Domain::kDevice) {  // last_switch
      const auto& log = st_.devices.at(e.entity)->contory().switch_log();
      if (log.empty()) return "(none)";
      return std::string(query::SourceSelName(log.back().from)) + ">" +
             query::SourceSelName(log.back().to);
    }
    const QueryRun& run = st_.queries.at(e.entity);
    if (e.property == "status") {
      return StatusCodeName(run.submit_status.code());
    }
    if (e.property == "last_source") {
      if (run.client->items.empty()) return "(none)";
      return SourceKindName(run.client->items.back().source.kind);
    }
    if (e.property == "mechanism") {
      std::string joined;
      for (auto kind : run.device->contory().CurrentMechanisms(run.id)) {
        if (!joined.empty()) joined += '+';
        joined += query::SourceSelName(kind);
      }
      return joined;
    }
    // error_text: the submit refusal (if any) plus every InformError.
    std::string joined(run.submit_status.ok() ? ""
                                              : run.submit_status.message());
    for (const std::string& err : run.client->errors) {
      if (!joined.empty()) joined += " | ";
      joined += err;
    }
    return joined;
  }

  double NumberValue(const ExpectSpec& e) {
    switch (e.domain) {
      case ExpectSpec::Domain::kQuery: return QueryNumber(e);
      case ExpectSpec::Domain::kDevice: return DeviceNumber(e);
      case ExpectSpec::Domain::kServer:
        return static_cast<double>(
            st_.servers.at(e.entity)->dropped_requests());
      case ExpectSpec::Domain::kTracer:
        return e.property == "open_spans"
                   ? static_cast<double>(
                         obs::Observability::tracer().open_count())
                   : static_cast<double>(
                         obs::Observability::tracer().double_closes());
      case ExpectSpec::Domain::kInjector:
        return static_cast<double>(st_.world->injector().injected());
      case ExpectSpec::Domain::kMetric: {
        auto& registry = obs::Observability::metrics();
        if (const auto* counter = registry.FindCounter(e.entity)) {
          return static_cast<double>(counter->value());
        }
        if (const auto* gauge = registry.FindGauge(e.entity)) {
          return gauge->value();
        }
        return 0.0;
      }
    }
    return 0.0;
  }

  double QueryNumber(const ExpectSpec& e) {
    const QueryRun& run = st_.queries.at(e.entity);
    const auto& items = run.client->items;
    auto stale_count = [&items] {
      std::size_t n = 0;
      for (const CxtItem& item : items) {
        if (item.metadata.staleness_seconds.has_value()) ++n;
      }
      return n;
    };
    if (e.property == "items") return static_cast<double>(items.size());
    if (e.property == "stale_items") {
      return static_cast<double>(stale_count());
    }
    if (e.property == "fresh_items") {
      return static_cast<double>(items.size() - stale_count());
    }
    if (e.property == "errors") {
      return static_cast<double>(run.client->errors.size());
    }
    if (e.property == "last_stale") {
      return !items.empty() &&
                     items.back().metadata.staleness_seconds.has_value()
                 ? 1
                 : 0;
    }
    if (e.property == "completions") {
      std::size_t n = 0;
      for (const auto& done : run.device->contory().queries().completions()) {
        if (done.id == run.id) ++n;
      }
      return static_cast<double>(n);
    }
    if (e.property == "submitted") return run.submit_status.ok() ? 1 : 0;
    if (e.property == "refused") return run.submit_status.ok() ? 0 : 1;
    if (e.property == "degraded") {
      return run.submit_status.ok() &&
                     run.device->contory().IsDegraded(run.id)
                 ? 1
                 : 0;
    }
    if (e.property == "active") {
      return run.submit_status.ok() &&
                     run.device->contory().queries().Find(run.id) != nullptr
                 ? 1
                 : 0;
    }
    if (e.property == "retry_hint") {
      if (core::OverloadGovernor::ParseRetryAfterSeconds(
              std::string(run.submit_status.message())) > 0) {
        return 1;
      }
      for (const std::string& err : run.client->errors) {
        if (core::OverloadGovernor::ParseRetryAfterSeconds(err) > 0) return 1;
      }
      return 0;
    }
    // staleness_increasing: the degraded answers' reported age grows
    // monotonically over the window (Fig. 5's "stale but honest" check).
    double prev = -1.0;
    bool grew = false;
    bool monotone = true;
    for (const CxtItem& item : items) {
      if (!item.metadata.staleness_seconds.has_value()) continue;
      const double age = *item.metadata.staleness_seconds;
      if (prev >= 0.0) {
        if (age < prev) monotone = false;
        if (age > prev) grew = true;
      }
      prev = age;
    }
    return monotone && grew ? 1 : 0;
  }

  double DeviceNumber(const ExpectSpec& e) {
    core::ContextFactory& factory = st_.devices.at(e.entity)->contory();
    if (!e.facade.empty()) {
      core::Facade& facade = factory.facade(FacadeKind(e.facade));
      return static_cast<double>(e.property == "originals"
                                     ? facade.active_original_count()
                                     : facade.active_provider_count());
    }
    if (e.property == "active") {
      return static_cast<double>(factory.queries().active_count());
    }
    if (e.property == "invalid_transitions") {
      return static_cast<double>(factory.queries().invalid_transitions());
    }
    if (e.property == "completed") {
      return static_cast<double>(factory.queries().total_completed());
    }
    if (e.property == "admitted") {
      return static_cast<double>(factory.queries().total_admitted());
    }
    if (e.property == "switches") {
      return static_cast<double>(factory.switch_log().size());
    }
    if (e.property == "retries") {
      return static_cast<double>(factory.total_retries());
    }
    if (e.property == "degraded_deliveries") {
      return static_cast<double>(factory.degraded_deliveries());
    }
    return static_cast<double>(factory.active_provider_count());
  }

  /// Checked after every run step: each live query's span windows follow
  /// its record (see QueryRecord::ObsSpans).
  void AuditSpanWindows(int line) {
    if (!COBS_ON()) return;
    for (const auto& [name, dev] : st_.devices) {
      if (!dev->has_contory()) continue;
      const core::QueryTable& table = dev->contory().queries();
      for (const std::string& id : table.ActiveIds()) {
        const core::QueryRecord& r = *table.Find(id);
        std::string broken;
        for (const auto kind : {query::SourceSel::kIntSensor,
                                query::SourceSel::kExtInfra,
                                query::SourceSel::kAdHocNetwork}) {
          if ((r.obs.provision[static_cast<std::size_t>(kind)] != 0) !=
              r.assigned.contains(kind)) {
            broken += std::string(" provision:") + query::SourceSelName(kind);
          }
        }
        if ((r.obs.failover != 0) !=
            (r.state == core::QueryState::kFailingOver)) {
          broken += " failover";
        }
        if ((r.obs.degraded != 0) != r.degraded()) broken += " degraded";
        if (!broken.empty()) {
          Fail(line, "span windows of " + id + " on " + name + " (" +
                         core::QueryStateName(r.state) +
                         ") disagree with its record:" + broken);
        }
      }
    }
  }

  /// Checked after every run step: each radio's kept WiFi neighbor list
  /// is what a fresh Medium range scan returns, in the same order. The
  /// previous check left every list warm, so a topology change during
  /// the run that failed to invalidate one shows here.
  void AuditNeighborLists(int line) {
    const net::WifiBus& bus = st_.world->wifi_bus();
    for (const auto& [name, dev] : st_.devices) {
      const net::WifiController* wifi = dev->wifi();
      if (wifi == nullptr) continue;
      std::vector<net::NodeId> kept;
      wifi->NeighborsInto(kept);
      std::vector<net::NodeId> scanned;
      if (wifi->enabled()) {
        scanned = st_.world->medium().NodesWithin(
            wifi->node(), wifi->range_m(), [&bus](net::NodeId n) {
              const net::WifiController* peer = bus.Find(n);
              return peer != nullptr && peer->enabled();
            });
      }
      if (kept != scanned) {
        Fail(line, "WiFi neighbor list of " + name +
                       " differs from a fresh range scan");
      }
    }
  }

  /// Invariants every scenario must satisfy, checked without being asked:
  /// no device ever made an invalid lifecycle transition, the tracer
  /// never closed a span twice, and once every query table is empty no
  /// root span may remain open (the span-leak audit).
  void FinalAudit() {
    bool quiescent = true;
    for (const auto& [name, dev] : st_.devices) {
      if (!dev->has_contory()) continue;
      const auto invalid = dev->contory().queries().invalid_transitions();
      if (invalid != 0) {
        report_.failures.push_back(
            "post-run audit: device " + name + " made " +
            std::to_string(invalid) + " invalid lifecycle transition(s)");
      }
      if (dev->contory().queries().active_count() != 0) quiescent = false;
    }
    if (!COBS_ON()) return;
    auto& tracer = obs::Observability::tracer();
    if (tracer.double_closes() != 0) {
      report_.failures.push_back(
          "post-run audit: tracer recorded " +
          std::to_string(tracer.double_closes()) + " double close(s)");
    }
    if (quiescent && tracer.open_count() != 0) {
      report_.failures.push_back(
          "post-run audit: " + std::to_string(tracer.open_count()) +
          " tracer span(s) still open with no live queries (leak)");
    }
  }

  const ScenarioSpec& spec_;
  const RunnerOptions& options_;
  RunState st_;
  RunReport report_;
};

}  // namespace

std::string RunReport::Summary() const {
  std::ostringstream out;
  out << (passed ? "PASS" : "FAIL") << " (" << expects_checked
      << " invariants";
  if (!failures.empty()) out << ", " << failures.size() << " failed";
  out << ")";
  return out.str();
}

RunReport ScenarioRunner::Run(const ScenarioSpec& spec) {
  Execution execution(spec, options_);
  return execution.Go();
}

}  // namespace contory::scenario
