#include "core/pipeline/delivery_router.hpp"

#include <optional>
#include <utility>

#include "obs/observability.hpp"

namespace contory::core {
namespace {

/// Cached per-mechanism delivery counter — one delivery per item makes
/// this the densest hook; handles are stable across Reset().
obs::Counter& DeliveredCounter(query::SourceSel kind) {
  static obs::Counter* by_kind[4] = {};
  auto& slot = by_kind[static_cast<std::size_t>(kind)];
  if (slot == nullptr) {
    slot = &obs::Observability::metrics().GetCounter(
        "items_delivered_total",
        {{"mechanism", query::SourceSelName(kind)}});
  }
  return *slot;
}

/// Delivery bookkeeping fired just before an item is handed to the
/// client queue: the per-mechanism counter, the record's span item
/// counters (written into the spans when they close), and the query's
/// time-to-first-item (the paper's getCxtItem latency, measured from
/// submission to the first context item).
void NoteDelivered(QueryRecord& record, query::SourceSel mechanism,
                   std::uint32_t items_before, SimTime now) {
  DeliveredCounter(mechanism).Inc();
  ++record.obs.root_items;
  ++record.obs.provision_items[static_cast<std::size_t>(mechanism)];
  if (items_before == 0) {
    obs::Observability::metrics()
        .GetHistogram("first_delivery_latency_ms",
                      {{"mechanism", query::SourceSelName(mechanism)}})
        .Observe(ToMillis(now - record.submitted));
  }
}

}  // namespace

void DeliveryRouter::OnFacadeDelivery(std::span<const QueryId> matched,
                                      const CxtItem& item,
                                      query::SourceSel mechanism) {
  bool stored = false;
  for (const QueryId qid : matched) {
    QueryRecord* record = table_.FindById(qid);
    if (record == nullptr || record->client == nullptr) continue;
    const std::uint32_t items_before = record->items_delivered;
    if (!table_.RecordDelivery(*record, item.id)) continue;
    std::optional<CxtItem> fused;
    if (record->fusion != nullptr) {
      fused = record->fusion->Process(item);
      if (!fused.has_value()) continue;
      repository_.Store(*fused);
    } else if (!stored) {
      // The raw item is one observation however many queries match it.
      repository_.Store(item);
      stored = true;
    }
    // Hooks fire before Route(): a client cancelling from inside
    // ReceiveCxtItem erases the record, so it must not be touched after.
    COBS(NoteDelivered(*record, mechanism, items_before, sim_.Now()));
    Route(*record, fused.has_value() ? *fused : item);
  }
}

void DeliveryRouter::DeliverStale(QueryRecord& record, CxtItem item) {
  item.metadata.staleness_seconds =
      ToSeconds(sim_.Now() - item.timestamp);
  ++record.items_delivered;
  COBS({
    obs::Observability::metrics()
        .GetCounter("degraded_deliveries_total")
        .Inc();
    ++record.obs.root_items;
    ++record.obs.degraded_items;
  });
  Route(record, item);
}

void DeliveryRouter::Route(QueryRecord& record, const CxtItem& item) {
  Client* const client = record.client;
  for (Drain& frame : draining_) {
    if (frame.client == client) {
      // The client is inside a callback: the outer call hands it over.
      frame.queued.push_back(Pending{record.qid, item});
      return;
    }
  }
  Drain& frame = draining_.emplace_back(Drain{client, {}});
  ++items_routed_;
  client->ReceiveCxtItem(item);
  std::vector<Pending> round;
  while (!frame.queued.empty()) {
    round.swap(frame.queued);
    items_routed_ += round.size();
    for (const Pending& pending : round) client->ReceiveCxtItem(pending.item);
    round.clear();
  }
  draining_.pop_back();
}

void DeliveryRouter::OnQueryCancelled(QueryId qid) {
  for (Drain& frame : draining_) {
    std::erase_if(frame.queued,
                  [qid](const Pending& p) { return p.qid == qid; });
  }
}

}  // namespace contory::core
