#include "core/pipeline/failover_coordinator.hpp"

#include "core/model/vocabulary.hpp"
#include "obs/observability.hpp"
#include "sensors/gps.hpp"

namespace contory::core {

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
  if (status.ok()) {
    // Duration complete on this mechanism; the query is over when no
    // facade still serves it.
    table_.Unassign(*record, kind, "ok");
    if (record->assigned.empty()) table_.FinishById(qid);
    return;
  }
  table_.Unassign(*record, kind, "failed: " + status.ToString());
  COBS(obs::Observability::metrics()
           .GetCounter("provider_failures_total",
                       {{"mechanism", query::SourceSelName(kind)}})
           .Inc());
  record->failed.insert(kind);
  table_.Transition(*record, QueryState::kFailingOver, kind);
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
    }
    return;
  }
  const Status s = hooks_.assign(record, *replacement);
  if (!s.ok()) {
    record.failed.insert(*replacement);
    TryFailover(record, failed_kind, status);
    return;
  }
  table_.Transition(record, QueryState::kActive, *replacement);
  COBS(obs::Observability::metrics()
           .GetCounter("failovers_total",
                       {{"from", query::SourceSelName(failed_kind)},
                        {"to", query::SourceSelName(*replacement)}})
           .Inc());
  switch_log_.push_back(SwitchEvent{sim_.Now(), record.query.id,
                                    failed_kind, *replacement});
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
  const query::MechanismSet old = record.assigned;
  const std::string how =
      std::string("switched-back:") + query::SourceSelName(preferred);
  for (const query::SourceSel kind : old) {
    hooks_.cancel(record, kind);
    table_.Unassign(record, kind, how);
  }
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
  COBS(obs::Observability::metrics()
           .GetCounter("queries_degraded_total")
           .Inc());
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
  table_.Transition(*record, QueryState::kActive, *kind);
  COBS(obs::Observability::metrics()
           .GetCounter("degraded_recoveries_total")
           .Inc());
  record->failed.clear();
  record->degraded_task.reset();
  // `from` approximates: degraded mode has no SourceSel of its own.
  switch_log_.push_back(SwitchEvent{sim_.Now(), record->query.id,
                                    record->plan.preferred, *kind});
  record->client->InformError(std::string("provisioning restored to ") +
                              query::SourceSelName(*kind) +
                              " after degraded mode");
  record->recovery_probe.reset();  // safe: PeriodicTask survives this
}

}  // namespace contory::core
