// QueryTracer: per-query lifecycle spans.
//
// Every admitted query owns exactly one root span, opened at admission
// and closed exactly once at the QueryTable's terminal Completion. Child
// spans nest under the root across the pipeline seams:
//
//   query (root) ....... admission -> terminal Completion
//     provision:<mech> .. facade assignment -> facade finished (one per
//                         mechanism ever assigned; carries item counts)
//     failover .......... ACTIVE -> FAILING_OVER window, closed with the
//                         outcome (switched / degraded / exhausted)
//     degraded .......... stale-served window, closed on recovery/finish
//
// Spans carry sim-time start/end, the provisioning mechanism, fault
// annotations (the FaultInjector notes every transition on all open
// roots), and energy attributed through the per-query EnergyProbe (the
// device's energy ledger sampled at open and close) — which is exactly
// the paper's Table 1 (per-operation latency) and Table 2 (per-item
// energy) accounting, per query instead of per bench.
//
// Span times are *simulated* time: admission/planning happen inside one
// simulation event and therefore produce zero-width spans by design;
// the measurable content lives in provision/failover/degraded windows
// and the root's full lifetime.
//
// Cost discipline: spans are identified by plain uint64 handles the
// instrumented objects keep (QueryRecord.obs): an open span's handle in
// one SlotTable (common/slot_table.hpp), so finding it is a bounds check
// plus a generation compare, opening one reuses the newest freed slot (no
// hashing), and memory follows the peak of *concurrently* open spans, not
// spans ever started.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/slot_table.hpp"
#include "common/time.hpp"

namespace contory::obs {

struct Span {
  /// Samples the owning device's cumulative energy (Joules). Set on open
  /// root spans and on hop spans (which meter the *sending* device, not
  /// the query's owner); cleared at close so retained spans never call
  /// into torn-down devices. Plain stage spans read their root's probe.
  std::function<double()> probe;
  std::uint64_t id = 0;
  /// 0 for root spans; the root's id for stage spans.
  std::uint64_t parent = 0;
  std::string query_id;
  /// "query" for roots; "provision", "failover", "degraded", ... else.
  std::string name;
  /// SourceSelName of the mechanism, or "" when not mechanism-bound.
  std::string mechanism;
  SimTime start{};
  SimTime end{};
  /// Terminal status, set at close ("ok", "ACTIVE", "failed: ...").
  std::string status;
  /// Free-form annotations (fault transitions, switches, cancel notes).
  std::vector<std::string> notes;
  double energy_start_j = 0.0;
  double energy_end_j = 0.0;
  /// Context items delivered while this span was open.
  std::uint64_t items = 0;
  bool open = true;

  [[nodiscard]] double energy_joules() const noexcept {
    return energy_end_j - energy_start_j;
  }
  [[nodiscard]] SimDuration duration() const noexcept { return end - start; }
};

class QueryTracer {
 public:
  /// Samples the owning device's cumulative energy (Joules); wired per
  /// query at BeginQuery (the QueryTable holds its factory's probe).
  using EnergyProbe = std::function<double()>;

  QueryTracer() = default;
  QueryTracer(const QueryTracer&) = delete;
  QueryTracer& operator=(const QueryTracer&) = delete;

  /// Opens the root span for `query_id`. Returns its handle: unique and
  /// never 0, but not sequential (slots are reused under a new
  /// generation).
  std::uint64_t BeginQuery(const std::string& query_id, SimTime now,
                           EnergyProbe probe = {});

  /// Opens a stage span nested under root `root_id`. Energy is sampled
  /// through the root's probe. Returns 0 (a harmless no-op handle) when
  /// the root is unknown or already closed.
  std::uint64_t BeginStage(std::uint64_t root_id, const char* name,
                           const char* mechanism, SimTime now);

  /// Opens a hop span nested under *any* open span (`parent_id` may be a
  /// root or a stage — SM hop chains hang off the provision span when one
  /// exists). Unlike BeginStage, the span carries its own EnergyProbe:
  /// hops are sent by a different device than the one owning the query
  /// root, so energy is sampled from the sender's ledger at open and
  /// close. Returns 0 when the parent is unknown or already closed.
  std::uint64_t BeginHop(std::uint64_t parent_id, std::string name,
                         SimTime now, EnergyProbe probe = {});

  /// Appends a note to an open span; no-op for unknown/closed handles.
  void AddNote(std::uint64_t span_id, std::string note);
  /// Annotates every open *root* span (fault transitions are global
  /// events; each live query records the faults it lived through).
  void NoteOpenRoots(const std::string& note);
  /// Counts delivered items on an open span.
  void AddItems(std::uint64_t span_id, std::uint64_t n = 1);

  /// Closes a stage span; returns the finished span (valid until the
  /// next tracer call) or nullptr when `span_id` is 0/unknown. Closing
  /// an already-closed span is counted in double_closes().
  const Span* EndStage(std::uint64_t span_id, SimTime now,
                       std::string status);
  /// Closes the root span exactly once; same contract as EndStage.
  const Span* EndQuery(std::uint64_t root_id, SimTime now,
                       std::string status);

  // --- Introspection (tests, exporters, bench/table12_report) ----------
  [[nodiscard]] std::size_t open_count() const noexcept {
    return open_.size();
  }
  /// Finished spans in completion order, bounded by capacity (oldest
  /// dropped first; drops counted in spans_dropped()).
  [[nodiscard]] const std::deque<Span>& finished() const noexcept {
    return finished_;
  }
  /// All finished spans of one query, roots and stages.
  [[nodiscard]] std::vector<Span> FinishedFor(
      const std::string& query_id) const;
  /// The open span behind `span_id`, or nullptr. The pointer is valid
  /// until that span closes.
  [[nodiscard]] const Span* FindOpen(std::uint64_t span_id) const {
    return open_.Find(span_id);
  }
  [[nodiscard]] std::uint64_t spans_started() const noexcept {
    return started_;
  }
  [[nodiscard]] std::uint64_t spans_dropped() const noexcept {
    return dropped_;
  }
  /// Close attempts on already-closed (or force-closed) spans. A nonzero
  /// value means an instrumentation site fired twice for one lifecycle.
  [[nodiscard]] std::uint64_t double_closes() const noexcept {
    return double_closes_;
  }
  /// Slots in the open-span table: the peak of concurrently open spans
  /// since construction or Reset().
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return open_.slot_count();
  }

  void SetCapacity(std::size_t finished_cap);
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  void Reset();

 private:
  /// A fresh open span, with its handle set.
  Span& Open();
  const Span* Close(std::uint64_t span_id, SimTime now, std::string status,
                    bool is_root);
  void PushFinished(Span&& span);

  /// Open spans by handle.
  SlotTable<Span> open_;
  std::deque<Span> finished_;
  std::uint64_t started_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t double_closes_ = 0;
  std::size_t cap_ = 8192;
};

}  // namespace contory::obs
