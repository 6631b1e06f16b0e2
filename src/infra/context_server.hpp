// External context infrastructure (the extInfra provisioning substrate).
//
// "These shared context services are in charge of discovering suitable
// context sources and processing, storing, and disseminating gathered
// context data. Multiple context providers on different applications can
// pull or subscribe to these services to retrieve context information
// related to certain context entities" (Sec. 2). The DYNAMOS remote
// repository the paper's tests query over UMTS is this component.
//
// Protocol (all frames event-notification sized, see event_envelope.hpp):
//   kStore          entity, [location], CxtItem    -> ack
//   kQuery          CxtQuery                       -> ack + items
//   kRegisterQuery  CxtQuery                       -> ack; pushes follow
//   kCancelQuery    query id                       -> ack
//
// Long-running queries: EVERY queries push matching items each period;
// EVENT queries are evaluated against the stored window on every store.
// Registrations expire with the query's DURATION.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "core/model/cxt_item.hpp"
#include "core/query/query.hpp"
#include "net/cellular.hpp"
#include "sim/simulation.hpp"

namespace contory::infra {

enum class ServerOp : std::uint8_t {
  kStore = 1,
  kQuery = 2,
  kRegisterQuery = 3,
  kCancelQuery = 4,
};

/// Client-side encoding of one kStore request frame (the extInfra
/// storeCxtItem round trip), padded to the event-notification size.
[[nodiscard]] std::vector<std::byte> EncodeStoreRequest(
    const std::string& publisher_name,
    const std::optional<GeoPoint>& position, const CxtItem& item);

/// One stored observation: the item plus where/who it came from.
struct StoredItem {
  CxtItem item;
  std::string entity;               // producing entity ("boat-7")
  std::optional<GeoPoint> location; // producer position at store time
};

struct ContextServerConfig {
  /// Ring-buffer depth per (entity, type) key.
  std::size_t max_items_per_key = 32;
  /// Items older than this are dropped from query results even without an
  /// explicit FRESHNESS (repository hygiene).
  SimDuration max_item_age = std::chrono::hours{24};
};

class ContextServer {
 public:
  ContextServer(sim::Simulation& sim, net::CellularNetwork& network,
                std::string address, ContextServerConfig config = {});
  ~ContextServer();

  ContextServer(const ContextServer&) = delete;
  ContextServer& operator=(const ContextServer&) = delete;

  [[nodiscard]] const std::string& address() const noexcept {
    return address_;
  }

  /// Direct (server-side) store, used by infrastructure-resident services
  /// like the weather station feed.
  void StoreDirect(StoredItem stored);

  /// Server-side query evaluation (also used by the request handler).
  [[nodiscard]] std::vector<CxtItem> Evaluate(
      const query::CxtQuery& q) const;

  [[nodiscard]] std::size_t stored_count() const noexcept { return count_; }
  [[nodiscard]] std::size_t active_query_count() const noexcept {
    return registrations_.size();
  }

  /// Fault injection: while down, incoming requests are swallowed without
  /// a response (clients time out — a transient, retryable failure) and
  /// registered-query pushes are suppressed. Registrations and stored
  /// items survive the outage.
  void SetOutage(bool down) noexcept { outage_ = down; }
  [[nodiscard]] bool in_outage() const noexcept { return outage_; }
  [[nodiscard]] std::uint64_t dropped_requests() const noexcept {
    return dropped_requests_;
  }

  /// Does `stored` match query `q` at time `now` (type, freshness, WHERE,
  /// region/entity destinations)? Exposed for tests.
  [[nodiscard]] static bool Matches(const query::CxtQuery& q,
                                    const StoredItem& stored, SimTime now);

 private:
  struct Registration {
    query::CxtQuery query;
    net::NodeId client = net::kInvalidNode;
    SimTime expires{};
    std::unique_ptr<sim::PeriodicTask> pusher;  // EVERY queries
    int samples_sent = 0;
  };

  void HandleRequest(net::NodeId from, const std::vector<std::byte>& request,
                     net::CellularNetwork::Respond respond);
  void PushResults(Registration& reg);
  void EvaluateEventRegistrations(const StoredItem& trigger);
  void ExpireRegistrations();

  sim::Simulation& sim_;
  net::CellularNetwork& network_;
  std::string address_;
  ContextServerConfig config_;
  /// (entity, type) -> recent items, newest last.
  std::unordered_map<std::string, std::deque<StoredItem>> repo_;
  std::size_t count_ = 0;
  std::unordered_map<std::string, Registration> registrations_;
  bool outage_ = false;
  std::uint64_t dropped_requests_ = 0;
};

}  // namespace contory::infra
