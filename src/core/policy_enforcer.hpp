// Control-policy enforcement (Sec. 4.5 contextRules).
//
// Periodically evaluates the contextRules against the ResourcesMonitor
// and enforces actions that just became active: reducePower suspends the
// 2G/3G queries, reduceMemory halves the repository rings, reduceLoad
// caps the provider population. Kept apart from the query pipeline — the
// rules cut across every stage (admission consults the active set, the
// planner demotes extInfra, the facades get StopAll'd).
#pragma once

#include <set>

#include "core/facade.hpp"
#include "core/repository.hpp"
#include "core/resources_monitor.hpp"
#include "core/rules.hpp"

namespace contory::core {

class PolicyEnforcer {
 public:
  PolicyEnforcer(RulesEngine& rules, ResourcesMonitor& monitor,
                 CxtRepository& repository, FacadeArray& facades)
      : rules_(rules),
        monitor_(monitor),
        repository_(repository),
        facades_(facades) {}

  /// Re-evaluates the rules and enforces newly activated actions.
  void Evaluate();

  /// Actions active at the last evaluation. Stable storage: the planner
  /// and admission stage hold a pointer to this set.
  [[nodiscard]] const std::set<RuleAction>& active_actions() const noexcept {
    return active_actions_;
  }

 private:
  void EnforceReducePower();
  void EnforceReduceMemory();
  void EnforceReduceLoad();

  RulesEngine& rules_;
  ResourcesMonitor& monitor_;
  CxtRepository& repository_;
  FacadeArray& facades_;
  std::set<RuleAction> active_actions_;
};

}  // namespace contory::core
