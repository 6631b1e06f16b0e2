// Admission (pipeline stage 1 of 4).
//
// Everything that can reject a query before any provisioning work
// happens: the OverloadGovernor gate (rate limiting + load shedding),
// structural validation, id assignment, AccessController screening of
// the FROM sources, and control-policy gates. A query that passes is
// registered in the QueryTable in state ADMITTED.
#pragma once

#include <set>

#include "common/status.hpp"
#include "core/access_controller.hpp"
#include "core/client.hpp"
#include "core/pipeline/overload_governor.hpp"
#include "core/pipeline/query_table.hpp"
#include "core/query/query.hpp"
#include "core/rules.hpp"
#include "sim/simulation.hpp"

namespace contory::core {

class AdmissionController {
 public:
  /// `governor` may be null (no overload protection; tests that build
  /// the stage in isolation).
  AdmissionController(sim::Simulation& sim, AccessController& access,
                      QueryTable& table,
                      OverloadGovernor* governor = nullptr)
      : sim_(sim), access_(access), table_(table), governor_(governor) {}

  /// Validates `query`, assigns an id when it has none, applies the
  /// overload, access-control and policy gates, and registers the
  /// lifecycle record. On error nothing is registered; on success the
  /// returned id (and `query.id`) name the ADMITTED record.
  ///
  /// The governor gate runs first. A non-null `decision_out` receives
  /// its decision, so the caller can route kDegrade records to the
  /// stale fast path.
  Result<QueryId> Admit(query::CxtQuery& query, Client& client,
                        const std::set<RuleAction>& active_actions,
                        OverloadGovernor::Decision* decision_out = nullptr);

 private:
  Result<QueryId> DoAdmit(query::CxtQuery& query, Client& client,
                          const std::set<RuleAction>& active_actions,
                          OverloadGovernor::Decision* decision_out);

  sim::Simulation& sim_;
  AccessController& access_;
  QueryTable& table_;
  OverloadGovernor* governor_;
};

}  // namespace contory::core
