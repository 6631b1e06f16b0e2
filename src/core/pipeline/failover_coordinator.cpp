#include "core/pipeline/failover_coordinator.hpp"

#include "common/logging.hpp"
#include "core/model/vocabulary.hpp"
#include "obs/observability.hpp"
#include "sensors/gps.hpp"

namespace contory::core {
namespace {
constexpr const char* kModule = "failover";

obs::Gauge& DegradedGauge() {
  static obs::Gauge& g =
      obs::Observability::metrics().GetGauge("queries_degraded");
  return g;
}

}  // namespace

FailoverCoordinator::FailoverCoordinator(
    sim::Simulation& sim, FailoverConfig config, QueryTable& table,
    StrategyPlanner& planner, CxtRepository& repository,
    DeliveryRouter& router, const InternalReference& internal_ref,
    BTReference& bt_ref, Hooks hooks)
    : sim_(sim),
      config_(config),
      table_(table),
      planner_(planner),
      repository_(repository),
      router_(router),
      internal_ref_(internal_ref),
      bt_ref_(bt_ref),
      hooks_(std::move(hooks)) {
  if (!hooks_.assign || !hooks_.cancel) {
    throw std::invalid_argument("FailoverCoordinator: incomplete hooks");
  }
}

bool FailoverCoordinator::DegradeAtAdmission(QueryRecord& record,
                                             const Status& cause) {
  if (!config_.enable_degraded_mode) return false;
  return EnterDegradedMode(record, cause);
}

void FailoverCoordinator::OnFacadeFinished(query::SourceSel kind,
                                           QueryId qid,
                                           const Status& status) {
  QueryRecord* record = table_.FindById(qid);
  if (record == nullptr) return;
  record->assigned.erase(kind);
  COBS({
    // The mechanism's provision window ends here, successful or not.
    const auto i = static_cast<std::size_t>(kind);
    std::uint64_t& span = record->obs.provision[i];
    if (span != 0) {
      auto& tracer = obs::Observability::tracer();
      tracer.AddItems(span, record->obs.provision_items[i]);
      tracer.EndStage(span, sim_.Now(),
                      status.ok() ? "ok" : "failed: " + status.ToString());
      span = 0;
    }
    if (!status.ok()) {
      obs::Observability::metrics()
          .GetCounter("provider_failures_total",
                      {{"mechanism", query::SourceSelName(kind)}})
          .Inc();
    }
  });
  if (status.ok()) {
    // Duration complete on this mechanism; the query is over when no
    // facade still serves it.
    if (record->assigned.empty()) table_.FinishById(qid);
    return;
  }
  CLOG_INFO(kModule, "query %s failed on %s: %s", record->query.id.c_str(),
            query::SourceSelName(kind), status.ToString().c_str());
  record->failed.insert(kind);
  table_.Transition(*record, QueryState::kFailingOver);
  COBS({
    if (record->obs.failover == 0) {
      record->obs.failover = obs::Observability::tracer().BeginStage(
          record->obs.root, "failover", query::SourceSelName(kind),
          sim_.Now());
    }
  });
  TryFailover(*record, kind, status);
}

void FailoverCoordinator::TryFailover(QueryRecord& record,
                                      query::SourceSel failed_kind,
                                      const Status& status) {
  // "if a BT-GPS device suddenly disconnects, the location provisioning
  // task can be moved from a LocalLocationProvider ... to an
  // AdHocLocationProvider". Mechanisms that already failed — or still
  // serve the query — are not candidates.
  const auto replacement = planner_.SelectMechanism(
      record.query, record.failed | record.assigned);
  if (!replacement.ok()) {
    // Last resort before erroring out: serve whatever the repository
    // still holds, annotated with its age.
    if (config_.enable_degraded_mode && EnterDegradedMode(record, status)) {
      return;
    }
    if (record.client != nullptr) {
      record.client->InformError("query " + record.query.id +
                                 " lost its provisioning mechanism (" +
                                 status.ToString() +
                                 ") and no alternative is available");
    }
    if (record.assigned.empty()) {
      table_.FinishById(record.qid);
    } else {
      // Another mechanism still serves the query; resume normal life.
      table_.Transition(record, QueryState::kActive);
      COBS({
        if (record.obs.failover != 0) {
          obs::Observability::tracer().EndStage(record.obs.failover,
                                                sim_.Now(), "resumed");
          record.obs.failover = 0;
        }
      });
    }
    return;
  }
  const Status s = hooks_.assign(record, *replacement);
  if (!s.ok()) {
    record.failed.insert(*replacement);
    TryFailover(record, failed_kind, status);
    return;
  }
  table_.Transition(record, QueryState::kActive);
  COBS({
    obs::Observability::metrics()
        .GetCounter("failovers_total",
                    {{"from", query::SourceSelName(failed_kind)},
                     {"to", query::SourceSelName(*replacement)}})
        .Inc();
    if (record.obs.failover != 0) {
      obs::Observability::tracer().EndStage(
          record.obs.failover, sim_.Now(),
          std::string("switched:") + query::SourceSelName(*replacement));
      record.obs.failover = 0;
    }
  });
  switch_log_.push_back(SwitchEvent{sim_.Now(), record.query.id,
                                    failed_kind, *replacement});
  CLOG_INFO(kModule, "query %s switched %s -> %s", record.query.id.c_str(),
            query::SourceSelName(failed_kind),
            query::SourceSelName(*replacement));
  if (record.client != nullptr) {
    record.client->InformError(
        std::string("provisioning switched from ") +
        query::SourceSelName(failed_kind) + " to " +
        query::SourceSelName(*replacement));
  }
  // Arm the switch-back probe toward the preferred mechanism.
  if (record.plan.preferred == failed_kind) StartRecoveryProbe(record);
}

void FailoverCoordinator::StartRecoveryProbe(QueryRecord& record) {
  if (record.recovery_probe != nullptr) return;
  record.recovery_probe = std::make_unique<sim::PeriodicTask>(
      sim_, config_.recovery_probe_period,
      [this, qid = record.qid] { ProbeRecovery(qid); });
}

bool FailoverCoordinator::SwitchBackToPreferred(QueryRecord& record) {
  const QueryId qid = record.qid;
  const query::SourceSel preferred = record.plan.preferred;
  // Tear down the stopgap mechanism(s) and switch back.
  for (const query::SourceSel kind : record.assigned) {
    hooks_.cancel(record, kind);
  }
  const query::MechanismSet old = record.assigned;
  record.assigned.clear();
  record.failed.erase(preferred);
  if (!hooks_.assign(record, preferred).ok()) return false;
  // The client may have cancelled from inside a synchronous delivery.
  if (table_.FindById(qid) == nullptr) return false;
  switch_log_.push_back(SwitchEvent{sim_.Now(), record.query.id,
                                    old.empty() ? preferred : *old.begin(),
                                    preferred});
  record.recovery_probe.reset();  // safe: PeriodicTask survives this
  return true;
}

void FailoverCoordinator::ProbeRecovery(QueryId qid) {
  QueryRecord* record = table_.FindById(qid);
  if (record == nullptr) return;
  const query::SourceSel preferred = record->plan.preferred;
  if (record->assigned.contains(preferred)) {
    record->recovery_probe.reset();
    return;
  }
  // The only probe that needs real work is the BT-GPS one: re-run
  // discovery (this is the 163-292 mW cost Fig. 5 attributes to the
  // switches) and look for the NMEA service.
  if (preferred == query::SourceSel::kIntSensor &&
      (record->query.select_type == vocab::kLocation ||
       record->query.select_type == vocab::kSpeed) &&
      !internal_ref_.HasSourceOfType(record->query.select_type)) {
    if (!bt_ref_.Available()) return;
    bt_ref_.InvalidateDiscoveryCache();
    bt_ref_.Discover(
        SimDuration::zero(),
        [this, qid](Result<std::vector<net::BtDeviceInfo>> devices) {
          if (!devices.ok() || devices->empty()) return;
          if (table_.FindById(qid) == nullptr) return;
          // Check each device for the GPS service, then switch back.
          const auto device = devices->front();
          bt_ref_.controller()->DiscoverServices(
              device.node, sensors::kGpsServiceName,
              [this, qid](Result<std::vector<net::ServiceRecord>> records) {
                if (!records.ok() || records->empty()) return;
                QueryRecord* record = table_.FindById(qid);
                if (record == nullptr) return;
                const query::SourceSel preferred = record->plan.preferred;
                if (record->assigned.contains(preferred)) return;
                if (SwitchBackToPreferred(*record)) {
                  CLOG_INFO(kModule, "query %s switched back to %s",
                            record->query.id.c_str(),
                            query::SourceSelName(preferred));
                  if (record->client != nullptr) {
                    record->client->InformError(
                        std::string("provisioning restored to ") +
                        query::SourceSelName(preferred));
                  }
                }
              });
        });
    return;
  }
  // Generic probe: switch back as soon as CanServe holds again.
  query::MechanismSet all_but_preferred{query::SourceSel::kIntSensor,
                                        query::SourceSel::kExtInfra,
                                        query::SourceSel::kAdHocNetwork};
  all_but_preferred.erase(preferred);
  const auto available =
      planner_.SelectMechanism(record->query, all_but_preferred);
  if (!available.ok()) return;
  SwitchBackToPreferred(*record);
}

bool FailoverCoordinator::EnterDegradedMode(QueryRecord& record,
                                            const Status& cause) {
  if (record.client == nullptr) return false;
  if (record.degraded()) return true;
  // Degradation is whole-query: while any mechanism still serves it,
  // live data beats stale data and the record stays ACTIVE.
  if (!record.assigned.empty()) return false;
  const std::string& id = record.query.id;
  const QueryId qid = record.qid;
  if (!repository_.Latest(record.query.select_type).ok()) {
    return false;  // nothing cached: a stale answer is not possible
  }
  table_.Transition(record, QueryState::kDegraded);
  COBS({
    auto& tracer = obs::Observability::tracer();
    if (record.obs.failover != 0) {
      tracer.EndStage(record.obs.failover, sim_.Now(), "degraded");
      record.obs.failover = 0;
    }
    if (record.obs.degraded == 0) {
      record.obs.degraded =
          tracer.BeginStage(record.obs.root, "degraded", nullptr, sim_.Now());
      record.obs.degraded_items = 0;
    }
    obs::Observability::metrics()
        .GetCounter("queries_degraded_total")
        .Inc();
    DegradedGauge().Add(1.0);
  });
  CLOG_INFO(kModule, "query %s degraded (%s): serving stale repository data",
            id.c_str(), cause.ToString().c_str());
  record.client->InformError("query " + id +
                             " degraded to stale repository data (" +
                             cause.ToString() +
                             "); no live provisioning mechanism");
  if (record.query.mode() == query::InteractionMode::kOnDemand) {
    // One stale answer completes an on-demand round.
    DeliverDegraded(qid);
    table_.FinishById(qid);
    return true;
  }
  record.degraded_task = std::make_unique<sim::PeriodicTask>(
      sim_, record.query.every.value_or(std::chrono::seconds{5}),
      [this, qid] { DeliverDegraded(qid); });
  // First stale answer now, not one period from now.
  DeliverDegraded(qid);
  // The client may have cancelled from inside that delivery.
  QueryRecord* live = table_.FindById(qid);
  if (live == nullptr) return true;
  live->recovery_probe = std::make_unique<sim::PeriodicTask>(
      sim_, config_.recovery_probe_period,
      [this, qid] { ProbeDegradedRecovery(qid); });
  return true;
}

void FailoverCoordinator::DeliverDegraded(QueryId qid) {
  QueryRecord* record = table_.FindById(qid);
  if (record == nullptr) return;
  if (!record->degraded() || record->client == nullptr) {
    record->degraded_task.reset();
    return;
  }
  auto item = repository_.Latest(record->query.select_type);
  if (!item.ok()) return;  // cache expired under us; the probe keeps trying
  ++degraded_deliveries_;
  router_.DeliverStale(*record, *std::move(item));
}

void FailoverCoordinator::ProbeDegradedRecovery(QueryId qid) {
  QueryRecord* record = table_.FindById(qid);
  if (record == nullptr) return;
  if (!record->degraded()) {
    record->recovery_probe.reset();
    return;
  }
  // While degraded, any live mechanism beats stale data: reconsider them
  // all, including ones that failed earlier.
  const auto kind = planner_.SelectMechanism(record->query, {});
  if (!kind.ok()) return;  // everything still down
  if (!hooks_.assign(*record, *kind).ok()) return;  // next probe retries
  // The client may have cancelled from inside a synchronous delivery.
  if (table_.FindById(qid) == nullptr) return;
  table_.Transition(*record, QueryState::kActive);
  COBS({
    if (record->obs.degraded != 0) {
      auto& tracer = obs::Observability::tracer();
      tracer.AddItems(record->obs.degraded, record->obs.degraded_items);
      tracer.EndStage(record->obs.degraded, sim_.Now(),
                      std::string("recovered:") + query::SourceSelName(*kind));
      record->obs.degraded = 0;
    }
    DegradedGauge().Add(-1.0);
    obs::Observability::metrics()
        .GetCounter("degraded_recoveries_total")
        .Inc();
  });
  record->failed.clear();
  record->degraded_task.reset();
  // `from` approximates: degraded mode has no SourceSel of its own.
  switch_log_.push_back(SwitchEvent{sim_.Now(), record->query.id,
                                    record->plan.preferred, *kind});
  CLOG_INFO(kModule, "query %s recovered from degraded mode to %s",
            record->query.id.c_str(), query::SourceSelName(*kind));
  record->client->InformError(std::string("provisioning restored to ") +
                              query::SourceSelName(*kind) +
                              " after degraded mode");
  record->recovery_probe.reset();  // safe: PeriodicTask survives this
}

}  // namespace contory::core
