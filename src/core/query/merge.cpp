#include "core/query/merge.hpp"

#include <algorithm>

#include "core/query/predicate.hpp"

namespace contory::query {
namespace {

/// Are the FROM clauses compatible for merging? Destinations (region/
/// entity) must match exactly; source kinds must overlap structurally.
bool FromCompatible(const FromClause& a, const FromClause& b) {
  if (a.IsAuto() || b.IsAuto()) return a.IsAuto() == b.IsAuto();
  if (a.sources.size() != b.sources.size()) return false;
  for (std::size_t i = 0; i < a.sources.size(); ++i) {
    const auto& sa = a.sources[i];
    const auto& sb = b.sources[i];
    if (sa.kind != sb.kind) return false;
    if (sa.address != sb.address) return false;
    if (sa.region != sb.region) return false;
    if (sa.entity != sb.entity) return false;
    // scopes may differ: that is exactly what merging widens.
  }
  return true;
}

Status NotInOneCluster(const CxtQuery& a, const CxtQuery& b) {
  return FailedPrecondition("queries '" + a.id + "' and '" + b.id +
                            "' are not in the same cluster");
}

/// The merge rules of the header, applied to `m` in place; `m` and `b`
/// are Mergeable. Every field `m` does not widen stays `m`'s own.
void FoldInto(CxtQuery& m, const CxtQuery& b) {
  // FROM: widest scope per source.
  for (std::size_t i = 0; i < m.from.sources.size(); ++i) {
    auto& scope = m.from.sources[i].scope;
    const auto& other = b.from.sources[i].scope;
    if (!scope.has_value() || !other.has_value()) continue;
    AdHocScope widened;
    widened.num_hops = std::max(scope->num_hops, other->num_hops);
    widened.num_nodes = (scope->all_nodes() || other->all_nodes())
                            ? AdHocScope::kAllNodes
                            : std::max(scope->num_nodes, other->num_nodes);
    scope = widened;
  }

  // WHERE: identical -> keep; else drop and rely on post-extraction.
  if (m.where != b.where) m.where.reset();

  // FRESHNESS: loosest requirement (max), per the paper's example
  // (10 sec + 20 sec -> 20 sec).
  if (m.freshness.has_value() && b.freshness.has_value()) {
    m.freshness = std::max(*m.freshness, *b.freshness);
  } else {
    m.freshness.reset();  // one side is unconstrained
  }

  // DURATION: longest. Sample-count durations take the max count; a mix
  // of time and samples keeps the time form with the max time.
  if (m.duration.time.has_value() && b.duration.time.has_value()) {
    m.duration.time = std::max(*m.duration.time, *b.duration.time);
    m.duration.samples.reset();
  } else if (m.duration.samples.has_value() &&
             b.duration.samples.has_value()) {
    m.duration.samples = std::max(*m.duration.samples, *b.duration.samples);
    m.duration.time.reset();
  } else {
    // Mixed: be conservative, keep whichever time exists (a time-bounded
    // superset also covers a sample-bounded query in practice because the
    // provider keeps counting samples per original query).
    if (!m.duration.time.has_value()) m.duration.time = b.duration.time;
    m.duration.samples.reset();
  }

  // EVERY: fastest rate (min), per the example (15 sec + 30 sec -> 15 sec).
  if (m.every.has_value() && b.every.has_value()) {
    m.every = std::min(*m.every, *b.every);
  }
  // EVENT: identical by the gate; already m's.
}

}  // namespace

bool Mergeable(const CxtQuery& a, const CxtQuery& b) {
  // On-demand merges with on-demand, periodic with periodic; an
  // event-based query only merges with an identical-EVENT one.
  return a.select_type == b.select_type && a.event == b.event &&
         a.mode() == b.mode() && FromCompatible(a.from, b.from);
}

Result<CxtQuery> Merge(const CxtQuery& a, const CxtQuery& b) {
  if (!Mergeable(a, b)) return NotInOneCluster(a, b);
  CxtQuery m = a;  // keeps a's id
  FoldInto(m, b);
  return m;
}

Status MergeInto(CxtQuery& acc, const CxtQuery& b) {
  if (!Mergeable(acc, b)) return NotInOneCluster(acc, b);
  FoldInto(acc, b);
  return Status::Ok();
}

bool PostExtract(const CxtQuery& q, const CxtItem& item, SimTime now) {
  if (item.type != q.select_type) return false;
  if (item.IsExpired(now)) return false;
  if (q.freshness.has_value() && !item.IsFresh(now, *q.freshness)) {
    return false;
  }
  if (q.where.has_value()) {
    const auto match = EvalWhere(*q.where, item);
    if (!match.ok() || !*match) return false;
  }
  return true;
}

Result<CxtQuery> MergeAll(std::span<const CxtQuery> queries) {
  if (queries.empty()) return InvalidArgument("no queries to merge");
  CxtQuery acc = queries.front();
  for (std::size_t i = 1; i < queries.size(); ++i) {
    if (Status s = MergeInto(acc, queries[i]); !s.ok()) return s;
  }
  return acc;
}

bool SameMergeBounds(const CxtQuery& a, const CxtQuery& b) {
  return a.from == b.from && a.where == b.where &&
         a.freshness == b.freshness && a.duration == b.duration &&
         a.every == b.every;
}

}  // namespace contory::query
