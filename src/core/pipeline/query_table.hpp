// QueryTable: the single source of truth for query lifecycle state.
//
// The paper's QueryManager (Sec. 4.3) "is responsible for maintaining an
// updated list of all active queries". The table owns one record per
// query, and the record is the only home of that query's state: its
// lifecycle, plan, assigned facades, dedup window, tracer spans, fusion
// window, DURATION expiry and failover timers (recovery probe, degraded
// task). Erasing the record in FinishById tears all of it down, so
// finishing a query needs no per-module teardown hook. Every pipeline
// stage reads and writes the record through an explicit state machine:
//
//        Admit           Assign            mechanism fails
//   ---> ADMITTED ------> ACTIVE <------------> FAILING_OVER
//           |               ^  \                  |
//           |      recovery |   \ cancel/expiry   | nothing left,
//           |               v    v                v repository warm
//           |            DEGRADED ------------> DONE <---- (any state,
//           +--------------^                      ^         cancel)
//            shed at admission,                   |
//            stale fast path                      terminal; the record is
//            (OverloadGovernor)                   erased and a Completion
//                                                 is logged exactly once
//
// Invariant (tested): every admitted query reaches DONE exactly once, no
// matter how cancel, failover, degraded delivery and policy enforcement
// interleave.
//
// Structure: records live in a SlotTable (common/slot_table.hpp), so
// memory follows the peak of live queries and a QueryId is the record's
// table handle: unique, never reused, never 0. Inside the pipeline and
// the facades a query is named only by its QueryId; the id strings are
// resolved once, at the public API, through the table's one map. The
// factory leans on two properties:
//   - records never move, so a facade Submit that admits a query
//     reentrantly cannot move the record its caller is holding;
//   - a QueryId held across a reentrant cancel (or captured by a timer
//     or discovery callback) misses afterwards, even when the client
//     resubmits under the same id string into the same slot.
// The terminal Completion log is bounded (oldest dropped, drops counted)
// so a million finishes cannot grow memory without bound; tests that
// audit full lifecycle history construct the table with capacity 0
// (unbounded).
//
// Threading contract: none. The simulation is single-threaded, and
// every call happens on its thread.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/slot_table.hpp"
#include "common/status.hpp"
#include "core/client.hpp"
#include "core/providers/aggregator.hpp"
#include "core/query/query.hpp"
#include "obs/tracer.hpp"
#include "sim/simulation.hpp"

namespace contory::core {

enum class QueryState : std::uint8_t {
  kAdmitted,     // registered; no facade assigned yet
  kActive,       // at least one facade provisions it
  kFailingOver,  // a mechanism failed; re-planning in progress
  kDegraded,     // served stale repository data; probing for recovery
  kDone,         // terminal; the record has been erased
};

[[nodiscard]] const char* QueryStateName(QueryState state) noexcept;

/// Data-driven provisioning strategy for one query, produced by the
/// StrategyPlanner at admission: which facades start immediately, and
/// which one failover switches back to.
struct ProvisioningPlan {
  /// Facade kinds assigned at submission (one for transparent queries,
  /// every listed source for explicit FROM clauses).
  query::MechanismSet initial;
  /// The mechanism the planner preferred originally (switch-back target).
  query::SourceSel preferred = query::SourceSel::kAuto;
};

struct QueryRecord {
  // The fields the router reads for every item it routes come first,
  // up to and including the span item counters: with the SlotTable's
  // slot header, they fit in the record's first two cache lines.

  Client* client = nullptr;
  /// Handle for query.id; set at admission, stable for life.
  QueryId qid = kInvalidQueryId;
  QueryState state = QueryState::kAdmitted;
  /// Items that passed the dedup window (RecordDelivery) plus stale
  /// deliveries.
  std::uint32_t items_delivered = 0;
  /// Fusion window (EnableFusion); null delivers items unfused.
  std::unique_ptr<CxtAggregator> fusion;
  /// Ids of the newest QueryTable::kSeenCap items delivered, in a ring
  /// that is overwritten in place once full. Only plans that start on
  /// several mechanisms get one: failover is break-before-make, so no
  /// other query is ever served by two facades at once.
  struct DedupWindow {
    std::vector<std::string> ring;
    /// The slot the next id overwrites once the ring is full.
    std::size_t oldest = 0;
  };
  std::unique_ptr<DedupWindow> dedup;
  ProvisioningPlan plan;

  /// Tracer span handles (0 = no span). Plain uint64 fields — the hot
  /// path must never do a string-keyed lookup to find its span. One
  /// provision slot per SourceSel mechanism (indexed by its enum value),
  /// opened at facade assignment and closed when that facade finishes.
  ///
  /// Item counts: the router bumps the counters here, one per span that
  /// counts items, and never calls the tracer per item. Each site that
  /// closes the root, a provision or the degraded span first writes its
  /// counter into the span with one AddItems; opening a span resets its
  /// counter. The counters are 32-bit to keep the record small.
  struct ObsSpans {
    /// Items handed to the client (after dedup and fusion), stale ones
    /// included.
    std::uint32_t root_items = 0;
    /// Items each mechanism delivered while its provision span was open.
    std::uint32_t provision_items[4] = {0, 0, 0, 0};
    /// Stale items delivered while the degraded span was open.
    std::uint32_t degraded_items = 0;
    std::uint64_t root = 0;
    std::uint64_t provision[4] = {0, 0, 0, 0};
    std::uint64_t failover = 0;
    std::uint64_t degraded = 0;
  };
  ObsSpans obs;

  query::CxtQuery query;
  /// Facade kinds currently provisioning this query.
  query::MechanismSet assigned;
  /// The facade cluster serving this query, per SourceSel mechanism
  /// (indexed by its enum value): what Facade::Submit returned, and what
  /// Facade::Cancel takes back. A ref outlived by its cluster misses.
  ClusterRef cluster[4] = {};
  /// Mechanisms that failed for this query (excluded from re-selection).
  query::MechanismSet failed;
  SimTime submitted{};

  /// The time DURATION's end, armed at admission for submitted +
  /// DURATION and never moved: merging, failover and degraded mode all
  /// leave it alone. Empty for sample-count DURATIONs.
  std::optional<sim::Timer> expiry;
  /// Failover timers: the switch-back (or degraded-recovery) probe and
  /// the stale-delivery task while degraded. Their callbacks hold only
  /// this record's qid.
  std::unique_ptr<sim::PeriodicTask> recovery_probe;
  std::unique_ptr<sim::PeriodicTask> degraded_task;

  [[nodiscard]] bool degraded() const noexcept {
    return state == QueryState::kDegraded;
  }
};

class QueryTable {
 public:
  /// One terminal transition, logged when a record reaches DONE.
  struct Completion {
    std::string id;
    /// The state the query was in when it finished (kActive for a normal
    /// duration expiry, kDegraded for a stale-served query, ...).
    QueryState from = QueryState::kAdmitted;
    SimTime at{};
  };

  /// `completion_log_capacity` bounds the Completion log; oldest
  /// entries drop beyond it (drops are counted). 0 = unbounded.
  explicit QueryTable(sim::Simulation& sim,
                      std::size_t completion_log_capacity = 4096);
  /// Force-closes the spans of any still-live record so the tracer never
  /// leaks open spans (and never calls an energy probe after teardown).
  ~QueryTable();

  QueryTable(const QueryTable&) = delete;
  QueryTable& operator=(const QueryTable&) = delete;

  /// Energy source for tracer spans: the owning device's cumulative
  /// energy ledger (Joules). Set once by the factory that owns this
  /// table; queries admitted while unset simply carry no energy.
  void SetEnergyProbe(obs::QueryTracer::EnergyProbe probe) {
    energy_probe_ = std::move(probe);
  }

  /// Registers a submitted query in state ADMITTED and opens its root
  /// tracer span; assigns nothing yet. Returns the query's fresh id.
  Result<QueryId> Admit(query::CxtQuery query, Client& client);

  /// Resolves a public id string (the API boundary); everything behind
  /// it uses FindById.
  [[nodiscard]] QueryRecord* Find(const std::string& id);
  [[nodiscard]] const QueryRecord* Find(const std::string& id) const;
  [[nodiscard]] QueryRecord* FindById(QueryId qid);
  [[nodiscard]] const QueryRecord* FindById(QueryId qid) const;

  /// Moves `record` along a legal (non-terminal) edge of the state
  /// machine. Illegal edges are refused (returns false) and counted —
  /// a refused transition is a pipeline bug, not a crash.
  bool Transition(QueryRecord& record, QueryState to);

  /// Terminal transition: logs a Completion exactly once and erases the
  /// record, which stops its timers and drops its fusion window.
  /// Finishing an unknown qid is a harmless no-op (cancel racing a
  /// duration expiry).
  void FinishById(QueryId qid);

  /// Counts a delivery, or returns false when `item_id` already reached
  /// the query while two of its mechanisms serve it (drop it). One
  /// mechanism re-delivering an unchanged observation is a new round.
  bool RecordDelivery(QueryRecord& record, const std::string& item_id);

  /// Live queries.
  [[nodiscard]] std::size_t active_count() const noexcept {
    return ids_.size();
  }

  /// All live ids, sorted. Diagnostics only — allocates O(active_count).
  [[nodiscard]] std::vector<std::string> ActiveIds() const;

  /// Terminal log, newest last, bounded by the completion-log capacity
  /// (lifecycle invariant tests run under the default capacity or opt
  /// into 0 = unbounded).
  [[nodiscard]] const std::deque<Completion>& completions() const noexcept {
    return completions_;
  }
  /// Completions evicted from the bounded log (total_completed() still
  /// counts them).
  [[nodiscard]] std::uint64_t completions_dropped() const noexcept {
    return completions_dropped_;
  }
  /// Queries ever finished (== total_admitted - live, invariant-tested).
  [[nodiscard]] std::uint64_t total_completed() const noexcept {
    return total_completed_;
  }
  /// Refused state-machine edges observed (should stay zero).
  [[nodiscard]] std::uint64_t invalid_transitions() const noexcept {
    return invalid_transitions_;
  }
  /// Queries ever admitted (diagnostics; admitted == completed + live).
  [[nodiscard]] std::uint64_t total_admitted() const noexcept {
    return total_admitted_;
  }

 private:
  static constexpr std::size_t kSeenCap = 128;

  [[nodiscard]] static bool ValidEdge(QueryState from,
                                      QueryState to) noexcept;
  /// Closes the spans of a record leaving the table from state `from`.
  static void CloseSpans(QueryRecord::ObsSpans& spans, QueryState from,
                         SimTime now, const char* how,
                         const char* root_status);

  sim::Simulation& sim_;
  /// Public id string -> handle, for the string-keyed boundary API.
  std::unordered_map<std::string, QueryId> ids_;
  /// Every live record, by QueryId.
  SlotTable<QueryRecord> records_;
  std::uint64_t total_admitted_ = 0;
  std::uint64_t total_completed_ = 0;
  std::uint64_t invalid_transitions_ = 0;
  std::deque<Completion> completions_;
  const std::size_t completion_cap_;
  std::uint64_t completions_dropped_ = 0;
  obs::QueryTracer::EnergyProbe energy_probe_;
};

}  // namespace contory::core
