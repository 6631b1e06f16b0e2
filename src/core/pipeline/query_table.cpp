#include "core/pipeline/query_table.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"
#include "obs/observability.hpp"

namespace contory::core {
namespace {
constexpr const char* kModule = "querytable";

/// Cached registry handles (stable across Reset(); see MetricsRegistry).
obs::Gauge& LiveGauge() {
  static obs::Gauge& g =
      obs::Observability::metrics().GetGauge("queries_live");
  return g;
}

obs::Gauge& DegradedGauge() {
  static obs::Gauge& g =
      obs::Observability::metrics().GetGauge("queries_degraded");
  return g;
}

obs::Counter& CompletedCounter(QueryState from) {
  static obs::Counter* by_state[5] = {};
  auto& slot = by_state[static_cast<std::size_t>(from)];
  if (slot == nullptr) {
    slot = &obs::Observability::metrics().GetCounter(
        "queries_completed_total", {{"state", QueryStateName(from)}});
  }
  return *slot;
}

}  // namespace

const char* QueryStateName(QueryState state) noexcept {
  switch (state) {
    case QueryState::kAdmitted: return "ADMITTED";
    case QueryState::kActive: return "ACTIVE";
    case QueryState::kFailingOver: return "FAILING_OVER";
    case QueryState::kDegraded: return "DEGRADED";
    case QueryState::kDone: return "DONE";
  }
  return "?";
}

QueryTable::QueryTable(sim::Simulation& sim,
                       std::size_t completion_log_capacity)
    : sim_(sim), completion_cap_(completion_log_capacity) {}

QueryTable::~QueryTable() {
  COBS(records_.ForEach([this](QueryRecord& record) {
    CloseSpans(record, "torn-down", "torn-down");
  }));
}

void QueryTable::CloseSpans(QueryRecord& record, const char* how,
                            const char* root_status) {
  for (const query::SourceSel kind : record.assigned) {
    Unassign(record, kind, how);
  }
  EndStateSpan(record, how);
  QueryRecord::ObsSpans& spans = record.obs;
  if (spans.root != 0) {
    auto& tracer = obs::Observability::tracer();
    tracer.AddItems(spans.root, spans.root_items);
    tracer.EndQuery(spans.root, sim_.Now(), root_status);
    spans.root = 0;
    LiveGauge().Add(-1.0);
  }
}

void QueryTable::EndStateSpan(QueryRecord& record, std::string_view how) {
  auto& tracer = obs::Observability::tracer();
  QueryRecord::ObsSpans& spans = record.obs;
  if (record.state == QueryState::kFailingOver) {
    tracer.EndStage(spans.failover, sim_.Now(), std::string(how));
    spans.failover = 0;
  } else if (record.state == QueryState::kDegraded) {
    tracer.AddItems(spans.degraded, spans.degraded_items);
    tracer.EndStage(spans.degraded, sim_.Now(), std::string(how));
    spans.degraded = 0;
    DegradedGauge().Add(-1.0);
  }
}

Result<QueryId> QueryTable::Admit(query::CxtQuery query, Client& client) {
  if (query.id.empty()) {
    return InvalidArgument("query must have an id before registration");
  }
  const auto [id_it, inserted] = ids_.try_emplace(query.id, kInvalidQueryId);
  if (!inserted) {
    return AlreadyExists("query '" + query.id + "' already active");
  }
  const QueryId qid = records_.Emplace();
  id_it->second = qid;
  ++total_admitted_;
  QueryRecord& record = *records_.Find(qid);
  record.client = &client;
  record.qid = qid;
  record.submitted = sim_.Now();
  COBS({
    record.obs.root = obs::Observability::tracer().BeginQuery(
        query.id, record.submitted, energy_probe_);
    LiveGauge().Add(1.0);
  });
  record.query = std::move(query);
  return qid;
}

QueryRecord* QueryTable::FindById(QueryId qid) {
  return records_.Find(qid);
}

QueryRecord* QueryTable::Find(const std::string& id) {
  const auto it = ids_.find(id);
  return it == ids_.end() ? nullptr : FindById(it->second);
}

const QueryRecord* QueryTable::Find(const std::string& id) const {
  return const_cast<QueryTable*>(this)->Find(id);
}

bool QueryTable::ValidEdge(QueryState from, QueryState to) noexcept {
  if (from == QueryState::kDone) return false;  // terminal
  switch (to) {
    case QueryState::kAdmitted:
      return false;  // admission happens once, via Admit()
    case QueryState::kActive:
      // Assignment, failover success, or degraded recovery.
      return from == QueryState::kAdmitted ||
             from == QueryState::kFailingOver ||
             from == QueryState::kDegraded;
    case QueryState::kFailingOver:
      return from == QueryState::kActive;
    case QueryState::kDegraded:
      // Failover exhaustion, or the admission-time stale fast path
      // (OverloadGovernor shed with a warm repository).
      return from == QueryState::kFailingOver ||
             from == QueryState::kAdmitted;
    case QueryState::kDone:
      return true;  // any live state may finish (cancel, expiry, error)
  }
  return false;
}

bool QueryTable::Transition(QueryRecord& record, QueryState to,
                            query::SourceSel via) {
  const QueryState from = record.state;
  if (from == to) return true;  // idempotent self-edge
  if (!ValidEdge(from, to)) {
    if (++invalid_transitions_ == 1) {
      CLOG_WARN(kModule,
                "first refused state-machine edge observed — a pipeline "
                "stage is driving the lifecycle out of order");
    }
    COBS(obs::Observability::metrics()
             .GetCounter("query_invalid_transitions_total")
             .Inc());
    CLOG_WARN(kModule, "query %s: refused %s -> %s",
              record.query.id.c_str(), QueryStateName(from),
              QueryStateName(to));
    return false;
  }
  COBS({
    const char* kind = query::SourceSelName(via);
    if (from == QueryState::kFailingOver) {
      EndStateSpan(record, to == QueryState::kDegraded ? "degraded"
                           : via == query::SourceSel::kAuto
                               ? "resumed"
                               : std::string("switched:") + kind);
    } else if (from == QueryState::kDegraded) {
      EndStateSpan(record, std::string("recovered:") + kind);
    }
    auto& tracer = obs::Observability::tracer();
    QueryRecord::ObsSpans& spans = record.obs;
    if (to == QueryState::kFailingOver) {
      spans.failover =
          tracer.BeginStage(spans.root, "failover", kind, sim_.Now());
    } else if (to == QueryState::kDegraded) {
      spans.degraded =
          tracer.BeginStage(spans.root, "degraded", nullptr, sim_.Now());
      spans.degraded_items = 0;
      DegradedGauge().Add(1.0);
    }
  });
  record.state = to;
  return true;
}

bool QueryTable::Assign(QueryRecord& record, query::SourceSel kind) {
  if (!record.assigned.insert(kind)) return false;
  COBS({
    const auto i = static_cast<std::size_t>(kind);
    record.obs.provision[i] = obs::Observability::tracer().BeginStage(
        record.obs.root, "provision", query::SourceSelName(kind), sim_.Now());
    record.obs.provision_items[i] = 0;
  });
  return true;
}

void QueryTable::Unassign(QueryRecord& record, query::SourceSel kind,
                          std::string_view how) {
  record.assigned.erase(kind);
  COBS({
    const auto i = static_cast<std::size_t>(kind);
    auto& tracer = obs::Observability::tracer();
    tracer.AddItems(record.obs.provision[i], record.obs.provision_items[i]);
    tracer.EndStage(record.obs.provision[i], sim_.Now(), std::string(how));
    record.obs.provision[i] = 0;
  });
}

void QueryTable::FinishById(QueryId qid) {
  QueryRecord* record = records_.Find(qid);
  if (record == nullptr) return;
  const QueryState from = record->state;
  COBS({
    // Single close point for the whole span tree: any stage span still
    // open at the terminal transition is force-closed here, then the
    // root closes exactly once with the state the query finished from.
    CloseSpans(*record, "closed-at-finish", QueryStateName(from));
    CompletedCounter(from).Inc();
  });
  std::string id = std::move(record->query.id);
  ids_.erase(id);
  // From here on the qid misses, and a resubmission under the same id
  // string gets a fresh record. Erasing stops the record's timers and
  // drops its fusion window.
  records_.Erase(qid);
  const SimTime now = sim_.Now();
  ++total_completed_;
  completions_.push_back(Completion{std::move(id), from, now});
  if (completion_cap_ != 0) {
    while (completions_.size() > completion_cap_) {
      completions_.pop_front();
      ++completions_dropped_;
    }
    COBS({
      static obs::Gauge& dropped = obs::Observability::metrics().GetGauge(
          "completion_log_dropped");
      dropped.Set(static_cast<double>(completions_dropped_));
    });
  }
}

bool QueryTable::RecordDelivery(QueryRecord& record,
                                const std::string& item_id) {
  if (record.plan.initial.size() > 1) {  // see QueryRecord::DedupWindow
    if (record.dedup == nullptr) {
      record.dedup = std::make_unique<QueryRecord::DedupWindow>();
      record.dedup->ring.reserve(kSeenCap);
    }
    QueryRecord::DedupWindow& window = *record.dedup;
    std::vector<std::string>& ring = window.ring;
    if (std::find(ring.begin(), ring.end(), item_id) != ring.end()) {
      if (record.assigned.size() > 1) return false;  // across mechanisms
    } else if (ring.size() < kSeenCap) {
      ring.push_back(item_id);
    } else {
      // FIFO window: the new id overwrites the oldest in place.
      ring[window.oldest] = item_id;
      window.oldest = (window.oldest + 1) % kSeenCap;
    }
  }
  ++record.items_delivered;
  return true;
}

std::vector<std::string> QueryTable::ActiveIds() const {
  std::vector<std::string> ids;
  ids.reserve(ids_.size());
  for (const auto& [id, qid] : ids_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace contory::core
