// StrategyPlanner (pipeline stage 2 of 4).
//
// Turns a query's FROM clause — or its absence — into a data-driven
// ProvisioningPlan: which facades start now, and the preference order
// failover walks later. This is the paper's transparent source selection
// ("in resource-rich environments, powerful context infrastructures can
// provide applications with required context data ... Conversely, in
// resource-impoverished environments, devices can rely either on their
// own sensors ... or on neighboring devices") expressed as data instead
// of ad hoc branches in the factory.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/pipeline/query_table.hpp"
#include "core/query/query.hpp"
#include "core/references/bt_reference.hpp"
#include "core/references/cellular_reference.hpp"
#include "core/references/internal_reference.hpp"
#include "core/references/wifi_reference.hpp"
#include "core/rules.hpp"

namespace contory::core {

/// Read-only availability view the planner consults. Wired once by the
/// composition root; the pointed-to objects outlive the planner.
struct PlannerEnv {
  const InternalReference* internal = nullptr;
  const BTReference* bt = nullptr;
  const WiFiReference* wifi = nullptr;
  const CellularReference* cell = nullptr;
  const std::string* default_infra_address = nullptr;
  /// Control-policy actions active right now (reducePower demotes the
  /// 2G/3G mechanism below everything).
  const std::set<RuleAction>* active_actions = nullptr;
};

class StrategyPlanner {
 public:
  explicit StrategyPlanner(PlannerEnv env);

  /// Builds the provisioning plan for a freshly admitted query: the
  /// initial facade set (one transparently chosen mechanism, or every
  /// source the FROM clause lists) plus the failover preference order.
  [[nodiscard]] Result<ProvisioningPlan> Plan(const query::CxtQuery& q) const;

  /// One mechanism that can serve `q` right now, walking the preference
  /// order and skipping `excluded` kinds. Shared by admission-time
  /// transparent selection, failover re-planning, and recovery probes.
  [[nodiscard]] Result<query::SourceSel> SelectMechanism(
      const query::CxtQuery& q,
      const std::set<query::SourceSel>& excluded) const;

  /// Preference order: own sensors (cheapest), then the ad hoc network,
  /// then the infrastructure (the 14 J hammer).
  [[nodiscard]] const std::vector<query::SourceSel>& preference_order()
      const noexcept {
    return preference_order_;
  }

 private:
  [[nodiscard]] bool CanServe(query::SourceSel kind,
                              const query::CxtQuery& q) const;

  PlannerEnv env_;
  std::vector<query::SourceSel> preference_order_;
};

}  // namespace contory::core
