#include "core/pipeline/query_table.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"
#include "obs/observability.hpp"

namespace contory::core {
namespace {
constexpr const char* kModule = "querytable";

/// A QueryId is (generation << 32) | slot (see the header).
constexpr QueryId kNextGeneration = QueryId{1} << 32;
std::size_t SlotOf(QueryId qid) { return qid & 0xffffffffu; }

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
    for (const auto& record : slots_) {
      if (record != nullptr) CloseSpans(*record, now, "torn-down", "torn-down");
    }
  });
}

void QueryTable::CloseSpans(QueryRecord& record, SimTime now,
                            const char* how, const char* root_status) {
  auto& tracer = obs::Observability::tracer();
  QueryRecord::ObsSpans& spans = record.obs;
  for (std::uint64_t& sid : spans.provision) {
    if (sid != 0) tracer.EndStage(sid, now, how);
    sid = 0;
  }
  if (spans.failover != 0) {
    tracer.EndStage(spans.failover, now, how);
    spans.failover = 0;
  }
  if (spans.degraded != 0) {
    tracer.EndStage(spans.degraded, now, how);
    spans.degraded = 0;
  }
  if (spans.root != 0) {
    tracer.EndQuery(spans.root, now, root_status);
    spans.root = 0;
    LiveGauge().Add(-1.0);
  }
  if (record.state == QueryState::kDegraded) {
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
  // The newest freed slot under its next generation, or a new slot.
  QueryId qid;
  if (free_.empty()) {
    qid = kNextGeneration | slots_.size();
    slots_.emplace_back();
  } else {
    qid = free_.back() + kNextGeneration;
    free_.pop_back();
  }
  id_it->second = qid;
  ++total_admitted_;
  QueryRecord& record =
      *(slots_[SlotOf(qid)] = std::make_unique<QueryRecord>());
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
  if (SlotOf(qid) >= slots_.size()) return nullptr;
  QueryRecord* record = slots_[SlotOf(qid)].get();
  return record != nullptr && record->qid == qid ? record : nullptr;
}

const QueryRecord* QueryTable::FindById(QueryId qid) const {
  return const_cast<QueryTable*>(this)->FindById(qid);
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
  if (FindById(qid) == nullptr) return;
  // Unlink before closing spans: from here on the id misses, and a
  // resubmission under the same id string gets a fresh record. A slot
  // whose generation is exhausted is retired, so no id ever repeats.
  const std::unique_ptr<QueryRecord> owned = std::move(slots_[SlotOf(qid)]);
  if ((qid >> 32) != 0xffffffffu) free_.push_back(qid);
  QueryRecord& record = *owned;
  ids_.erase(record.query.id);
  const QueryState from = record.state;
  const SimTime now = sim_.Now();
  COBS({
    // Single close point for the whole span tree: any stage span still
    // open at the terminal transition is force-closed here, then the
    // root closes exactly once with the state the query finished from.
    CloseSpans(record, now, "closed-at-finish", QueryStateName(from));
    CompletedCounter(from).Inc();
  });
  ++total_completed_;
  completions_.push_back(Completion{std::move(record.query.id), from, now});
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
    }
    QueryRecord::DedupWindow& window = *record.dedup;
    if (!window.seen_items.insert(item_id).second) {
      if (record.assigned.size() > 1) return false;  // across mechanisms
    } else if (window.order.size() < kSeenCap) {
      window.order.push_back(item_id);
    } else {
      // FIFO window, O(1) eviction: the new id overwrites the oldest.
      std::string& oldest = window.order[window.oldest];
      window.seen_items.erase(oldest);
      oldest = item_id;
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
