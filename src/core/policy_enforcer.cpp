#include "core/policy_enforcer.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace contory::core {
namespace {
constexpr const char* kModule = "policy";
}

void PolicyEnforcer::Evaluate() {
  const auto actions = rules_.Evaluate(monitor_.AsLookup());
  const auto newly_active = [&](RuleAction a) {
    return actions.contains(a) && !active_actions_.contains(a);
  };
  const bool power = newly_active(RuleAction::kReducePower);
  const bool memory = newly_active(RuleAction::kReduceMemory);
  const bool load = newly_active(RuleAction::kReduceLoad);
  active_actions_ = actions;
  if (power) EnforceReducePower();
  if (memory) EnforceReduceMemory();
  if (load) EnforceReduceLoad();
}

void PolicyEnforcer::EnforceReducePower() {
  // "the activation of the reducePower action can cause the suspension or
  // termination of high energy-consuming queries (e.g., those using the
  // 2G/3GReference)".
  CLOG_INFO(kModule, "reducePower active: suspending extInfra queries");
  facades_[static_cast<std::size_t>(query::SourceSel::kExtInfra)]->StopAll(
      ResourceExhausted("reducePower policy suspended the query"));
}

void PolicyEnforcer::EnforceReduceMemory() {
  const std::size_t target =
      std::max<std::size_t>(1, repository_.capacity_per_type() / 2);
  CLOG_INFO(kModule, "reduceMemory active: repository rings -> %zu", target);
  repository_.Shrink(target);
}

void PolicyEnforcer::EnforceReduceLoad() {
  // Keep at most reduce_load_provider_cap providers: suspend the rest,
  // preferring to keep the cheap mechanisms.
  std::size_t active = 0;
  for (const auto& facade : facades_) {
    if (facade != nullptr) active += facade->active_provider_count();
  }
  if (active <= config_.reduce_load_provider_cap) return;
  CLOG_INFO(kModule, "reduceLoad active: %zu providers > cap %zu", active,
            config_.reduce_load_provider_cap);
  for (const query::SourceSel kind :
       {query::SourceSel::kExtInfra, query::SourceSel::kAdHocNetwork,
        query::SourceSel::kIntSensor}) {
    if (active <= config_.reduce_load_provider_cap) break;
    Facade& f = *facades_[static_cast<std::size_t>(kind)];
    const std::size_t here = f.active_provider_count();
    if (here == 0) continue;
    f.StopAll(ResourceExhausted("reduceLoad policy suspended the query"));
    active -= here;
  }
}

}  // namespace contory::core
