// DeliveryRouter (pipeline stage 4 of 4).
//
// Everything between a facade's post-extracted delivery and the client:
// cross-facade dedup, the query's fusion window (QueryRecord::fusion,
// installed by EnableFusion), the repository write-through, staleness
// annotation for degraded answers, and the hand-over to the client. A
// facade hands over each provider item once, with the QueryIds of the
// originals it matched; the router writes the raw item to the
// repository at most once per provider item, however many queries it
// fans out to (fused products are stored per query). The router holds
// no per-query state of its own: a query's state lives in its record,
// and only items still queued for a client name it, by QueryId.
//
// Delivery is synchronous (deterministic timing) and never reenters a
// client: an item goes straight to ReceiveCxtItem, uncopied, unless its
// client is already inside that callback (it submitted a query that
// delivers synchronously). Then it queues in the client's drain frame,
// on a stack that is almost always 0 or 1 deep, and the outer call
// hands it over after the current item, in rounds. A cancel purges its
// query's queued items, never the round being handed over.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "core/model/cxt_item.hpp"
#include "core/pipeline/query_table.hpp"
#include "core/repository.hpp"
#include "sim/simulation.hpp"

namespace contory::core {

class DeliveryRouter {
 public:
  DeliveryRouter(sim::Simulation& sim, QueryTable& table,
                 CxtRepository& repository)
      : sim_(sim), table_(table), repository_(repository) {}

  /// Facade delivery entry, once per provider item: for each matched
  /// query, dedup across mechanisms, fusion, repository store, then the
  /// client. A qid that misses (cancelled earlier in the same
  /// span) is skipped. `mechanism` names the facade kind that produced
  /// the item (delivery metrics + span attribution).
  void OnFacadeDelivery(std::span<const QueryId> matched, const CxtItem& item,
                        query::SourceSel mechanism);

  /// Degraded-mode delivery: annotates the item's age before routing
  /// ("explicit staleness metadata instead of erroring").
  void DeliverStale(QueryRecord& record, CxtItem item);

  /// The query was cancelled: purge its queued undelivered items. (A
  /// query that finishes normally lets queued items reach the client.)
  void OnQueryCancelled(QueryId qid);

  /// Items handed to clients so far (diagnostics).
  [[nodiscard]] std::uint64_t items_routed() const noexcept {
    return items_routed_;
  }

 private:
  struct Pending {
    QueryId qid;
    CxtItem item;
  };
  /// A client inside its callback and the items queued for it meanwhile.
  struct Drain {
    Client* client;
    std::vector<Pending> queued;
  };

  void Route(QueryRecord& record, const CxtItem& item);

  sim::Simulation& sim_;
  QueryTable& table_;
  CxtRepository& repository_;
  /// Innermost last; a deque, so frames never move.
  std::deque<Drain> draining_;
  std::uint64_t items_routed_ = 0;
};

}  // namespace contory::core
