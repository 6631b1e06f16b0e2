// DeliveryRouter (pipeline stage 4 of 4).
//
// Everything between a facade's post-extracted delivery and the client:
// cross-facade dedup, the query's fusion window (QueryRecord::fusion,
// installed by EnableFusion), the repository write-through, staleness
// annotation for degraded answers, and per-client delivery queues. A
// facade hands over each provider item once, with the QueryIds of the
// originals it matched; the router writes the raw item to the
// repository at most once per provider item, however many queries it
// fans out to (fused products are stored per query). The router holds
// no per-query state of its own: a query's state lives in its record,
// and only items still queued for a client name it, by QueryId.
//
// The queues make delivery reentrancy-safe: a client that submits or
// cancels queries from inside the delivery callback can trigger nested
// deliveries, which are appended to its queue and handed over in order
// by the outermost drain — all within the same simulation event, so
// timing stays deterministic. The drain hands each round over as one
// ReceiveCxtItems batch (one virtual dispatch per drain, not per item);
// a nested cancel purges items still queued, never a batch already
// handed over.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <span>

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
  /// per-client queue. A qid that misses (cancelled earlier in the same
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
  struct ClientQueue {
    std::deque<Pending> items;
    /// True while the outermost Route() call is handing items over;
    /// nested Route() calls only append.
    bool draining = false;
  };

  void Route(QueryRecord& record, const CxtItem& item);

  sim::Simulation& sim_;
  QueryTable& table_;
  CxtRepository& repository_;
  /// std::map, not unordered_map: node-based, so the reference a drain
  /// loop holds stays valid when a nested delivery inserts a new client.
  std::map<Client*, ClientQueue> queues_;
  std::uint64_t items_routed_ = 0;
};

}  // namespace contory::core
