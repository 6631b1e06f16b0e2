// Query aggregation: merging and post-extraction (Sec. 4.3).
//
// "the Facade performs query aggregation. This process consists of two
// sub-processes: query merging and post-extraction. ... The merge function
// implements a simplified version of the clustering algorithm defined in
// [Crespo et al.]. This algorithm builds on the definition of a 'distance'
// metric between queries. The algorithm computes the distance between each
// pair of queries and if it is below a certain threshold, the two queries
// are put in the same cluster. In our design, for simplicity, we put in
// the same cluster queries with the same SELECT clause."
//
// The clustering rule here is that simplification, made structural:
// queries share a cluster when they could share one provider (Mergeable).
//
// The merged query must *subsume* both inputs so that post-extraction can
// recover each original's results:
//   FROM      -> widest ad hoc scope (all > k nodes; max hops)
//   WHERE     -> kept only when identical, else dropped (post-extraction
//                re-applies each original's WHERE)
//   FRESHNESS -> loosest (max)
//   DURATION  -> longest (max); only the wire query reads it, since each
//                original's clock lives in its QueryRecord
//   EVERY     -> fastest rate (min), per the paper's example
//   EVENT     -> queries with different EVENT clauses do not merge
#pragma once

#include <span>

#include "common/status.hpp"
#include "common/time.hpp"
#include "core/model/cxt_item.hpp"
#include "core/query/query.hpp"

namespace contory::query {

/// True when the two queries land in the same cluster: same SELECT, same
/// interaction mode, same EVENT, and the same FROM sources up to ad hoc
/// scope (which merging widens).
[[nodiscard]] bool Mergeable(const CxtQuery& a, const CxtQuery& b);

/// q3 = merge(q1, q2). Fails when !Mergeable. The result keeps q1's id.
[[nodiscard]] Result<CxtQuery> Merge(const CxtQuery& a, const CxtQuery& b);

/// acc = merge(acc, b), folded in place without copying acc. Fails, and
/// leaves acc unchanged, when !Mergeable.
[[nodiscard]] Status MergeInto(CxtQuery& acc, const CxtQuery& b);

/// Post-extraction: does `item`, produced by a merged query, match the
/// *original* query `q` (WHERE + FRESHNESS at time `now`)?
[[nodiscard]] bool PostExtract(const CxtQuery& q, const CxtItem& item,
                               SimTime now);

/// Merges a whole cluster into one query (left fold in place; keeps the
/// first id).
[[nodiscard]] Result<CxtQuery> MergeAll(std::span<const CxtQuery> queries);

/// True when two queries of one cluster carry equal FROM, WHERE,
/// FRESHNESS, DURATION and EVERY clauses. Each of those folds as a max,
/// min, or "kept only if all agree", so dropping one of the two from a
/// cluster leaves MergeAll of the cluster unchanged, except for what the
/// fold takes from the front query alone: its id, its priority, and
/// whether each ad hoc source has a scope at all.
[[nodiscard]] bool SameMergeBounds(const CxtQuery& a, const CxtQuery& b);

}  // namespace contory::query
