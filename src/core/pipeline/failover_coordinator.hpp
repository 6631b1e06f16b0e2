// FailoverCoordinator (pipeline stage 3½: what happens when stage 3
// fails).
//
// Owns everything that reacts to a mechanism dying under an active
// query: re-planning against the StrategyPlanner's preference order
// ("if a BT-GPS device suddenly disconnects, the location provisioning
// task can be moved from a LocalLocationProvider ... to an
// AdHocLocationProvider"), the switch-back recovery probes (the Fig. 5
// cycle), and graceful degradation to stale repository data when nothing
// is left. All lifecycle effects go through the QueryTable's state
// machine: ACTIVE -> FAILING_OVER -> ACTIVE | DEGRADED -> ... -> DONE.
// The table's Unassign and Transition also open and close the spans
// those changes imply; the coordinator only counts events.
// The probes and degraded tasks live in the query's record and hold
// only its QueryId, so finishing the record stops them, and a callback
// that outlives its query (a BT discovery in flight) finds nothing.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/pipeline/delivery_router.hpp"
#include "core/pipeline/query_table.hpp"
#include "core/pipeline/strategy_planner.hpp"
#include "core/references/bt_reference.hpp"
#include "core/references/internal_reference.hpp"
#include "core/repository.hpp"
#include "sim/simulation.hpp"

namespace contory::core {

/// Log entry for one provisioning switch: (time, query id, from, to).
struct SwitchEvent {
  SimTime at;
  std::string query_id;
  query::SourceSel from;
  query::SourceSel to;
};

struct FailoverConfig {
  /// Recovery-probe interval after a failover (Fig. 5: how soon the
  /// factory notices the GPS is back).
  SimDuration recovery_probe_period = std::chrono::seconds{30};
  /// When failover has nowhere left to go, answer from the local
  /// repository with explicit staleness metadata instead of erroring.
  /// Degraded delivery runs at the query's EVERY, or every 5 s.
  bool enable_degraded_mode = true;
};

class FailoverCoordinator {
 public:
  /// Facade operations the coordinator drives but the composition root
  /// owns (provider construction policy lives with the factory).
  struct Hooks {
    /// Submits `record`'s query to the facade of `kind` (through
    /// QueryTable::Assign, undone when the facade refuses).
    std::function<Status(QueryRecord&, query::SourceSel)> assign;
    /// Cancels one original query on the facade of `kind`.
    std::function<void(QueryRecord&, query::SourceSel)> cancel;
  };

  FailoverCoordinator(sim::Simulation& sim, FailoverConfig config,
                      QueryTable& table, StrategyPlanner& planner,
                      CxtRepository& repository, DeliveryRouter& router,
                      const InternalReference& internal_ref,
                      BTReference& bt_ref, Hooks hooks);

  /// A facade finished one original query: duration complete (Ok) or a
  /// transport failure that triggers failover / degradation.
  void OnFacadeFinished(query::SourceSel kind, QueryId qid,
                        const Status& status);

  /// Admission-time stale fast path (OverloadGovernor): moves a freshly
  /// ADMITTED record straight into degraded mode — one stale answer and
  /// done for on-demand queries, degraded polling plus recovery probes
  /// for the rest. Returns false when the repository has nothing left
  /// to serve (the caller falls back to the shed refusal). Requires
  /// degraded mode to be enabled; the record's root span must already
  /// be materialized.
  bool DegradeAtAdmission(QueryRecord& record, const Status& cause);

  [[nodiscard]] const std::vector<SwitchEvent>& switch_log() const noexcept {
    return switch_log_;
  }
  /// Stale items handed out by degraded mode so far.
  [[nodiscard]] std::uint64_t degraded_deliveries() const noexcept {
    return degraded_deliveries_;
  }

 private:
  void TryFailover(QueryRecord& record, query::SourceSel failed_kind,
                   const Status& status);
  void StartRecoveryProbe(QueryRecord& record);
  void ProbeRecovery(QueryId qid);
  /// Cancels every assigned facade and re-assigns the preferred one;
  /// shared by both recovery probes. Returns true on success, when the
  /// query is still live afterwards.
  bool SwitchBackToPreferred(QueryRecord& record);

  /// Degraded mode: serve stale repository data when every mechanism is
  /// down. Returns false when there is nothing cached to serve (the
  /// caller falls back to the hard error path).
  bool EnterDegradedMode(QueryRecord& record, const Status& cause);
  void DeliverDegraded(QueryId qid);
  void ProbeDegradedRecovery(QueryId qid);

  sim::Simulation& sim_;
  FailoverConfig config_;
  QueryTable& table_;
  StrategyPlanner& planner_;
  CxtRepository& repository_;
  DeliveryRouter& router_;
  const InternalReference& internal_ref_;
  BTReference& bt_ref_;
  Hooks hooks_;

  std::vector<SwitchEvent> switch_log_;
  std::uint64_t degraded_deliveries_ = 0;
};

}  // namespace contory::core
