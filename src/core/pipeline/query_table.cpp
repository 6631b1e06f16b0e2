#include "core/pipeline/query_table.hpp"

#include <algorithm>
#include <iterator>
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
  COBS({
    const SimTime now = sim_.Now();
    records_.ForEach([now](QueryRecord& record) {
      CloseSpans(record.obs, record.state, now, "torn-down", "torn-down");
    });
  });
}

void QueryTable::CloseSpans(QueryRecord::ObsSpans& spans, QueryState from,
                            SimTime now, const char* how,
                            const char* root_status) {
  auto& tracer = obs::Observability::tracer();
  for (std::size_t i = 0; i < std::size(spans.provision); ++i) {
    std::uint64_t& sid = spans.provision[i];
    if (sid != 0) {
      tracer.AddItems(sid, spans.provision_items[i]);
      tracer.EndStage(sid, now, how);
    }
    sid = 0;
  }
  if (spans.failover != 0) {
    tracer.EndStage(spans.failover, now, how);
    spans.failover = 0;
  }
  if (spans.degraded != 0) {
    tracer.AddItems(spans.degraded, spans.degraded_items);
    tracer.EndStage(spans.degraded, now, how);
    spans.degraded = 0;
  }
  if (spans.root != 0) {
    tracer.AddItems(spans.root, spans.root_items);
    tracer.EndQuery(spans.root, now, root_status);
    spans.root = 0;
    LiveGauge().Add(-1.0);
  }
  if (from == QueryState::kDegraded) {
    obs::Observability::metrics().GetGauge("queries_degraded").Add(-1.0);
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

const QueryRecord* QueryTable::FindById(QueryId qid) const {
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

bool QueryTable::Transition(QueryRecord& record, QueryState to) {
  if (record.state == to) return true;  // idempotent self-edge
  if (!ValidEdge(record.state, to)) {
    if (++invalid_transitions_ == 1) {
      CLOG_WARN(kModule,
                "first refused state-machine edge observed — a pipeline "
                "stage is driving the lifecycle out of order");
    }
    COBS(obs::Observability::metrics()
             .GetCounter("query_invalid_transitions_total")
             .Inc());
    CLOG_WARN(kModule, "query %s: refused %s -> %s",
              record.query.id.c_str(), QueryStateName(record.state),
              QueryStateName(to));
    return false;
  }
  record.state = to;
  return true;
}

void QueryTable::FinishById(QueryId qid) {
  QueryRecord* record = records_.Find(qid);
  if (record == nullptr) return;
  const QueryState from = record->state;
  QueryRecord::ObsSpans spans = record->obs;
  std::string id = std::move(record->query.id);
  ids_.erase(id);
  // Erase before closing spans: from here on the qid misses, and a
  // resubmission under the same id string gets a fresh record. Erasing
  // stops the record's timers and drops its fusion window.
  records_.Erase(qid);
  const SimTime now = sim_.Now();
  COBS({
    // Single close point for the whole span tree: any stage span still
    // open at the terminal transition is force-closed here, then the
    // root closes exactly once with the state the query finished from.
    CloseSpans(spans, from, now, "closed-at-finish", QueryStateName(from));
    CompletedCounter(from).Inc();
  });
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
