#include "core/pipeline/admission.hpp"

#include "obs/observability.hpp"

namespace contory::core {
namespace {

void CountAdmissionOutcome(const Status& s) {
  if (s.ok()) {
    static obs::Counter& admitted =
        obs::Observability::metrics().GetCounter("queries_admitted_total");
    admitted.Inc();
  } else {
    obs::Observability::metrics()
        .GetCounter("queries_rejected_total",
                    {{"code", StatusCodeName(s.code())}})
        .Inc();
  }
}

}  // namespace

Result<QueryId> AdmissionController::Admit(
    query::CxtQuery& query, Client& client,
    const std::set<RuleAction>& active_actions,
    OverloadGovernor::Decision* decision_out) {
  Result<QueryId> result =
      DoAdmit(query, client, active_actions, decision_out);
  COBS(CountAdmissionOutcome(result.ok() ? Status::Ok() : result.status()));
  return result;
}

Result<QueryId> AdmissionController::DoAdmit(
    query::CxtQuery& query, Client& client,
    const std::set<RuleAction>& active_actions,
    OverloadGovernor::Decision* decision_out) {
  // Overload gate, in front of everything: an overloaded factory spends
  // nothing on a query it is about to shed.
  OverloadGovernor::Decision decision;
  if (governor_ != nullptr) {
    decision = governor_->Decide(query, client, active_actions,
                                 table_.active_count());
  }
  if (decision_out != nullptr) *decision_out = decision;
  if (decision.outcome == OverloadGovernor::Decision::Outcome::kShed) {
    return decision.status;
  }

  if (const Status s = query.Validate(); !s.ok()) return s;
  if (query.id.empty()) query.id = sim_.ids().NextId("q");

  // AccessController screening: a FROM source naming a blocked address is
  // refused outright ("the AccessController keeps track ... of blocked
  // context sources").
  bool extinfra_only = !query.from.IsAuto();
  for (const auto& src : query.from.sources) {
    if (!src.address.empty() && access_.IsBlocked(src.address)) {
      return PermissionDenied("FROM source '" + src.address +
                              "' is blocked by the access controller");
    }
    // An auto source inside an explicit FROM resolves to extInfra.
    if (src.kind != query::SourceSel::kExtInfra &&
        src.kind != query::SourceSel::kAuto) {
      extinfra_only = false;
    }
  }

  // Policy gate: while reducePower is active, new queries that could only
  // ever use the 2G/3G mechanism are refused at the door — admitting them
  // just to StopAll them at the next policy tick wastes a connection
  // setup (the paper's "suspension or termination of high
  // energy-consuming queries", applied at admission).
  if (extinfra_only && active_actions.contains(RuleAction::kReducePower)) {
    return ResourceExhausted(
        "reducePower policy refuses new extInfra-only queries");
  }

  return table_.Admit(query, client);
}

}  // namespace contory::core
