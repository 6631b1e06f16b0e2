// DeliveryRouter (pipeline stage 4 of 4).
//
// Everything between a facade's post-extracted delivery and the client:
// cross-facade dedup, optional fusion windows (EnableFusion), the
// repository write-through, staleness annotation for degraded answers,
// and per-client delivery queues. The queues make delivery reentrancy-
// safe: a client that submits or cancels queries from inside the
// delivery callback can trigger nested deliveries, which are appended to
// its queue and handed over in order by the outermost drain — all within
// the same simulation event, so timing stays deterministic. The drain
// hands each round over as one ReceiveCxtItems batch (one virtual
// dispatch per drain, not per item); a nested cancel purges items still
// queued, never a batch already handed over.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "common/status.hpp"
#include "core/model/cxt_item.hpp"
#include "core/pipeline/query_table.hpp"
#include "core/providers/aggregator.hpp"
#include "core/repository.hpp"
#include "sim/simulation.hpp"

namespace contory::core {

class DeliveryRouter {
 public:
  DeliveryRouter(sim::Simulation& sim, QueryTable& table,
                 CxtRepository& repository)
      : sim_(sim), table_(table), repository_(repository) {}

  /// Facade delivery entry: dedup across mechanisms, fusion, repository
  /// store, then the per-client queue. `mechanism` names the facade kind
  /// that produced the item (delivery metrics + span attribution).
  void OnFacadeDelivery(const std::string& query_id, const CxtItem& item,
                        query::SourceSel mechanism);

  /// Degraded-mode delivery: annotates the item's age before routing
  /// ("explicit staleness metadata instead of erroring").
  void DeliverStale(QueryRecord& record, CxtItem item);

  /// Installs (or replaces) a fusion window for an active query.
  Status EnableFusion(const std::string& query_id, AggregatorConfig config);

  /// The query finished normally: drop its fusion state but let already-
  /// queued items reach the client.
  void OnQueryFinished(const std::string& query_id);
  /// The query was cancelled: additionally purge queued undelivered items.
  void OnQueryCancelled(const std::string& query_id);

  /// Items handed to clients so far (diagnostics).
  [[nodiscard]] std::uint64_t items_routed() const noexcept {
    return items_routed_;
  }

 private:
  struct Pending {
    std::string query_id;
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
  std::map<std::string, CxtAggregator> aggregators_;
  /// std::map, not unordered_map: node-based, so the reference a drain
  /// loop holds stays valid when a nested delivery inserts a new client.
  std::map<Client*, ClientQueue> queues_;
  std::uint64_t items_routed_ = 0;
};

}  // namespace contory::core
