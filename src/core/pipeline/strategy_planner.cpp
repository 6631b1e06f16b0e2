#include "core/pipeline/strategy_planner.hpp"

#include <stdexcept>

#include "core/providers/adhoc_provider.hpp"
#include "core/providers/infra_provider.hpp"
#include "core/providers/local_provider.hpp"

namespace contory::core {

StrategyPlanner::StrategyPlanner(PlannerEnv env)
    : env_(env) {
  if (env_.internal == nullptr || env_.bt == nullptr ||
      env_.wifi == nullptr || env_.cell == nullptr ||
      env_.default_infra_address == nullptr ||
      env_.active_actions == nullptr) {
    throw std::invalid_argument("StrategyPlanner: incomplete environment");
  }
}

bool StrategyPlanner::CanServe(query::SourceSel kind,
                               const query::CxtQuery& q) const {
  switch (kind) {
    case query::SourceSel::kIntSensor:
      return LocalCxtProvider::CanServe(q, *env_.internal, *env_.bt);
    case query::SourceSel::kAdHocNetwork:
      return AdHocCxtProvider::CanServe(*env_.bt, *env_.wifi);
    case query::SourceSel::kExtInfra:
      if (env_.active_actions->contains(RuleAction::kReducePower)) {
        return false;
      }
      return InfraCxtProvider::CanServe(*env_.cell,
                                        *env_.default_infra_address);
    case query::SourceSel::kAuto:
      break;
  }
  return false;
}

Result<query::SourceSel> StrategyPlanner::SelectMechanism(
    const query::CxtQuery& q, query::MechanismSet excluded) const {
  for (const query::SourceSel kind : kPreferenceOrder) {
    if (excluded.contains(kind)) continue;
    if (CanServe(kind, q)) return kind;
  }
  return Unavailable("no provisioning mechanism can serve '" +
                     q.select_type + "'");
}

Result<ProvisioningPlan> StrategyPlanner::Plan(
    const query::CxtQuery& q) const {
  ProvisioningPlan plan;
  if (q.from.IsAuto()) {
    const auto kind = SelectMechanism(q, {});
    if (!kind.ok()) return kind.status();
    plan.initial.insert(*kind);
    plan.preferred = *kind;
    return plan;
  }
  // Explicit FROM clause: every listed source gets a facade; an auto
  // source inside a FROM list means "the infrastructure decides", which
  // resolves to extInfra as in the prototype.
  for (const auto& src : q.from.sources) {
    plan.initial.insert(src.kind == query::SourceSel::kAuto
                            ? query::SourceSel::kExtInfra
                            : src.kind);
  }
  plan.preferred = *plan.initial.begin();
  return plan;
}

}  // namespace contory::core
