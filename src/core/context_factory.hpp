// ContextFactory (Sec. 4.3, 4.4) — the core of Contory.
//
// "One ContextFactory is instantiated on each device and made accessible
// to multiple applications. Based on the Factory Method design pattern,
// ... the ContextFactory offers an interface to submit context queries,
// but lets Facade components (subclasses) decide which ContextProvider
// components (classes) to instantiate."
//
// The factory is a thin composition root over the four-stage query
// lifecycle pipeline (docs/ARCHITECTURE.md):
//   1. Admission        — validation, access control, policy gates
//   2. StrategyPlanner  — FROM clause -> ProvisioningPlan
//   3. Facades          — provider clustering per mechanism
//   4. DeliveryRouter   — dedup, fusion, repository, client queues
// with the FailoverCoordinator reacting to mechanism failures and the
// QueryTable owning every query's lifecycle record. What remains here:
// provider construction (the Factory Method itself), facade wiring,
// the publish/store paths, and control-policy enforcement.
#pragma once

#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "common/retry.hpp"
#include "core/access_controller.hpp"
#include "core/client.hpp"
#include "core/device_services.hpp"
#include "core/facade.hpp"
#include "core/pipeline/admission.hpp"
#include "core/pipeline/delivery_router.hpp"
#include "core/pipeline/failover_coordinator.hpp"
#include "core/pipeline/query_table.hpp"
#include "core/pipeline/strategy_planner.hpp"
#include "core/policy_enforcer.hpp"
#include "core/providers/adhoc_provider.hpp"
#include "core/providers/aggregator.hpp"
#include "core/publisher.hpp"
#include "core/references/bt_reference.hpp"
#include "core/references/cellular_reference.hpp"
#include "core/references/internal_reference.hpp"
#include "core/references/wifi_reference.hpp"
#include "core/repository.hpp"
#include "core/resources_monitor.hpp"
#include "core/rules.hpp"

namespace contory::core {

struct ContextFactoryConfig {
  CxtRepositoryConfig repository;
  AccessControllerConfig access;
  ResourcesMonitorConfig resources;
  /// Recovery-probe period after a failover, and whether a query with no
  /// live mechanism left degrades to stale repository data instead of
  /// erroring (probing for recovery in the background).
  FailoverConfig failover;
  /// On-demand SM-FINDER rounds lost to mobility are relaunched this many
  /// times before the query fails.
  int adhoc_finder_retries = 1;
  /// Disables query merging entirely (ablation benches); when on, queries
  /// with the same SELECT share a provider (query::Mergeable).
  bool enable_query_merging = true;
  /// Retry/backoff policy providers apply to transient transport failures
  /// (coverage gaps, broker outages, radio flaps) before escalating to
  /// failover. Set max_attempts = 1 to disable retries.
  RetryPolicyConfig retry;
  /// Completion-log bound (0 = unbounded; lifecycle-audit tests opt in).
  std::size_t completion_log_capacity = 4096;
  /// Overload protection in front of admission: per-client token
  /// buckets, priority-class load shedding, stale-answer fast path.
  /// Inert by default (no rate, no watermarks); see
  /// docs/ADMISSION.md for tuning.
  OverloadGovernorConfig overload;
};

class ContextFactory {
 public:
  ContextFactory(DeviceServices services, ContextFactoryConfig config = {});
  ~ContextFactory();

  ContextFactory(const ContextFactory&) = delete;
  ContextFactory& operator=(const ContextFactory&) = delete;

  // --- The paper's ContextFactory interface (Sec. 4.4) -----------------

  /// Submits a context query on behalf of `client`; returns the assigned
  /// query id. The query's FROM clause (or its absence) drives facade
  /// assignment.
  Result<std::string> ProcessCxtQuery(query::CxtQuery query, Client& client);

  /// Cancels an active query.
  void CancelCxtQuery(const std::string& query_id);

  /// Publishes (or, with publish=false, withdraws) a context item in the
  /// ad hoc network. Requires prior registerCxtServer authentication.
  /// A non-empty `access_key` selects authenticated access mode.
  Status PublishCxtItem(const CxtItem& item, bool publish,
                        std::string access_key = {});

  /// Stores an item locally and in the remote infrastructure repository.
  /// `done` (optional) reports the remote acknowledgement — this is the
  /// paper's extInfra publishCxtItem round trip.
  void StoreCxtItem(const CxtItem& item,
                    std::function<void(Status)> done = {});

  /// Registers a client as an authenticated context server (publisher).
  Status RegisterCxtServer(Client& client);
  void DeregisterCxtServer(Client& client);

  /// Enables result aggregation for an active query — "combining results
  /// collected through different context mechanisms allows applications
  /// to partly relieve the uncertainty of single context sources".
  /// Numeric fusion replaces each delivery with the accuracy-weighted
  /// combination of the recent window.
  Status EnableFusion(const std::string& query_id,
                      AggregatorConfig config = {});

  // --- Control policies --------------------------------------------------
  void AddControlPolicy(ContextRule rule);
  /// Actions active at the last policy evaluation.
  [[nodiscard]] const std::set<RuleAction>& active_actions() const noexcept {
    return policy_.active_actions();
  }

  // --- Introspection (tests, benches, examples) ------------------------
  [[nodiscard]] QueryTable& queries() noexcept { return table_; }
  [[nodiscard]] const QueryTable& queries() const noexcept { return table_; }
  [[nodiscard]] ResourcesMonitor& resources() noexcept { return monitor_; }
  [[nodiscard]] AccessController& access() noexcept { return access_; }
  [[nodiscard]] CxtRepository& repository() noexcept { return repository_; }
  [[nodiscard]] CxtPublisher& publisher() noexcept { return *publisher_; }
  [[nodiscard]] DeliveryRouter& router() noexcept { return router_; }
  [[nodiscard]] FailoverCoordinator& failover() noexcept {
    return coordinator_;
  }
  [[nodiscard]] OverloadGovernor& overload() noexcept { return governor_; }
  [[nodiscard]] InternalReference& internal_reference() noexcept {
    return internal_ref_;
  }
  [[nodiscard]] BTReference& bt_reference() noexcept { return bt_ref_; }
  [[nodiscard]] WiFiReference& wifi_reference() noexcept { return wifi_ref_; }
  [[nodiscard]] CellularReference& cellular_reference() noexcept {
    return cell_ref_;
  }
  /// Throws std::out_of_range for a kind without a facade (kAuto).
  [[nodiscard]] Facade& facade(query::SourceSel kind) {
    const auto i = static_cast<std::size_t>(kind);
    if (i >= facades_.size() || facades_[i] == nullptr) {
      throw std::out_of_range("ContextFactory: no facade for this kind");
    }
    return *facades_[i];
  }
  [[nodiscard]] std::size_t active_provider_count() const {
    std::size_t n = 0;
    for (const auto& facade : facades_) {
      if (facade != nullptr) n += facade->active_provider_count();
    }
    return n;
  }

  /// The mechanism currently provisioning `query_id` (diagnostics; the
  /// Fig. 5 bench reads this to timestamp the switches).
  [[nodiscard]] query::MechanismSet CurrentMechanisms(
      const std::string& query_id) const;

  /// Log of provisioning switches: (time, query id, from, to).
  using SwitchEvent = core::SwitchEvent;
  [[nodiscard]] const std::vector<SwitchEvent>& switch_log() const noexcept {
    return coordinator_.switch_log();
  }

  /// True while `query_id` is served from the local repository because no
  /// mechanism is live.
  [[nodiscard]] bool IsDegraded(const std::string& query_id) const;
  /// Stale items handed out by degraded mode so far.
  [[nodiscard]] std::uint64_t degraded_deliveries() const noexcept {
    return coordinator_.degraded_deliveries();
  }
  /// Transient-failure retries across all facades' providers.
  [[nodiscard]] std::uint64_t total_retries() const;

 private:
  void WireReferences();
  void BuildFacades();
  [[nodiscard]] std::unique_ptr<CxtProvider> MakeProvider(
      query::SourceSel kind, QueryId first, query::CxtQuery q,
      CxtProvider::Callbacks callbacks);

  Status AssignToFacade(QueryRecord& record, query::SourceSel kind);
  /// Cancels the record's query on the facade of `kind`, through the
  /// cluster handle Submit gave it.
  void CancelOnFacade(const QueryRecord& record, query::SourceSel kind);
  /// The query's DURATION is over: cancels it on its facades and
  /// finishes it as a normal completion (queued items still arrive).
  void Expire(QueryId qid);

  /// Stale-answer-first fast path for a shed-but-warm admission: hands
  /// the ADMITTED record to the degraded-mode machinery.
  Result<std::string> DegradeAtAdmission(
      QueryId qid, const OverloadGovernor::Decision& decision);

  DeviceServices services_;
  ContextFactoryConfig config_;

  InternalReference internal_ref_;
  BTReference bt_ref_;
  WiFiReference wifi_ref_;
  CellularReference cell_ref_;

  ResourcesMonitor monitor_;
  AccessController access_;
  CxtRepository repository_;
  std::unique_ptr<CxtPublisher> publisher_;
  RulesEngine rules_;
  FacadeArray facades_;
  PolicyEnforcer policy_;

  // Pipeline stages (construction order matters: the planner reads the
  // enforcer's active-action set; the coordinator wires everything
  // together).
  QueryTable table_;
  StrategyPlanner planner_;
  OverloadGovernor governor_;
  AdmissionController admission_;
  DeliveryRouter router_;
  FailoverCoordinator coordinator_;

  std::set<Client*> registered_servers_;
  std::unique_ptr<sim::PeriodicTask> policy_task_;
  std::shared_ptr<bool> life_ = std::make_shared<bool>(true);
};

}  // namespace contory::core
