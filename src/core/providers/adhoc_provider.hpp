// AdHocCxtProvider (Sec. 4.3, 5.2).
//
// "AdHocCxtProviders are responsible for supporting distributed context
// provisioning in ad hoc networks; to gather context data from nodes in a
// MANET, these providers utilize the BTReference (only for one-hop
// routing) or the WiFiReference (also for multi-hop routing)."
//
// BT transport (one hop): inquiry (cached) -> SDP lookup of
// "contory.cxt.<type>" records -> item from the DataElement; periodic
// queries then poll over maintained links (kCxtGetOp) without repeating
// discovery — the cheap row of Table 2.
//
// WiFi transport (multi hop): an SM-FINDER carrying the query migrates
// toward nodes exposing the context tag, evaluates WHERE/FRESHNESS where
// the data lives, collects up to numNodes items each with its hop
// distance, then routes home ("contory.node.<origin>" tag). At the issuer
// "if hopCnt>numHops the receiver discards the result". A per-round
// timeout cancels lost finders.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>

#include "core/access_controller.hpp"
#include "core/providers/provider.hpp"
#include "core/references/bt_reference.hpp"
#include "core/references/wifi_reference.hpp"

namespace contory::core {

/// Tag every Contory node exposes so SM-FINDERs can route home.
[[nodiscard]] std::string HomeTagName(net::NodeId node);

/// The code brick id of the SM-FINDER; registered on every Contory node.
inline constexpr const char* kFinderBrick = "contory.sm-finder";
/// Wire size of the finder's code brick (query-evaluation logic; the code
/// cache elides it on later visits).
inline constexpr std::size_t kFinderCodeBytes = 700;

/// The finder's mobile data bricks. The wire layout is
/// `u32 qlen | query | i64 remaining | bool homeward | u32 count |
/// results…`, each result an encoded CxtItem and its i64 hop. Encode and
/// Decode handle the whole state; FinderHeader is the only other code
/// that knows the layout.
struct FinderState {
  query::CxtQuery query;
  /// Remaining node budget (-1 = all reachable nodes).
  int remaining_nodes = -1;
  bool homeward = false;
  struct Collected {
    CxtItem item;
    int hop = 0;  // hopCnt when the item was collected
  };
  std::vector<Collected> results;

  [[nodiscard]] std::vector<std::byte> Encode() const;
  [[nodiscard]] static Result<FinderState> Decode(
      const std::vector<std::byte>& data);
};

/// The fixed header of encoded FinderState bytes, read and patched where
/// they lie so a hop touches only the bytes it changes: a homeward hop
/// forwards the bricks untouched, an outbound hop decodes only the query,
/// and a collecting hop appends one result. Every accessor takes the
/// buffer that Read saw.
class FinderHeader {
 public:
  /// Bounds-checks the header; decodes neither the query nor the results.
  [[nodiscard]] static Result<FinderHeader> Read(
      std::span<const std::byte> data);

  [[nodiscard]] int remaining_nodes() const noexcept { return remaining_; }
  [[nodiscard]] bool homeward() const noexcept { return homeward_; }
  [[nodiscard]] std::uint32_t count() const noexcept { return count_; }

  [[nodiscard]] Result<query::CxtQuery> DecodeQuery(
      std::span<const std::byte> data) const;
  /// Walks the results: true as soon as one holds an item with `id`.
  /// A result that does not decode, or bytes after the last one, fail.
  [[nodiscard]] Result<bool> HoldsItem(std::span<const std::byte> data,
                                       std::string_view id) const;

  void SetRemaining(std::span<std::byte> data, int remaining);
  void SetHomeward(std::span<std::byte> data);
  /// Appends a result (the results end the buffer) and bumps the count.
  void Append(std::vector<std::byte>& data, const CxtItem& item, int hop);

 private:
  // Offsets follow from the query's length.
  [[nodiscard]] std::size_t RemainingAt() const noexcept { return 4 + qlen_; }
  [[nodiscard]] std::size_t HomewardAt() const noexcept { return 12 + qlen_; }
  [[nodiscard]] std::size_t CountAt() const noexcept { return 13 + qlen_; }
  [[nodiscard]] std::size_t ResultsAt() const noexcept { return 17 + qlen_; }

  std::size_t qlen_ = 0;
  int remaining_ = -1;
  bool homeward_ = false;
  std::uint32_t count_ = 0;
};

/// Installs the SM-FINDER code brick on `runtime` (idempotent). Every
/// Contory node does this at startup so finder code can execute anywhere.
void RegisterFinderBrick(sm::SmRuntime& runtime);

/// Which radio an ad hoc provider should use.
enum class AdHocTransport : std::uint8_t {
  kAuto,      // WiFi when multi-hop is asked for and available, else BT
  kForceBt,   // control policy: reducePower replaces WiFi with BT one-hop
};

class AdHocCxtProvider final : public CxtProvider {
 public:
  /// `finder_retries`: how many times an on-demand SM-FINDER round is
  /// relaunched after a timeout before the query fails — the paper's
  /// future-work direction of "more efficient and reliable context
  /// provisioning in mobile ad hoc networks". Lost finders are common
  /// under mobility (an intermediate node moves mid-migration).
  AdHocCxtProvider(sim::Simulation& sim, query::CxtQuery query,
                   Callbacks callbacks, BTReference& bt, WiFiReference& wifi,
                   AccessController& access, Client* client,
                   AdHocTransport transport = AdHocTransport::kAuto,
                   int finder_retries = 1);
  ~AdHocCxtProvider() override;

  [[nodiscard]] query::SourceSel kind() const noexcept override {
    return query::SourceSel::kAdHocNetwork;
  }
  [[nodiscard]] const char* transport() const noexcept override {
    return use_wifi_ ? "WiFi SM multi-hop" : "BT one-hop";
  }
  [[nodiscard]] bool using_wifi() const noexcept { return use_wifi_; }

  [[nodiscard]] static bool CanServe(const BTReference& bt,
                                     const WiFiReference& wifi);

 protected:
  void DoStart() override;
  void DoStop() override;
  void OnQueryUpdated() override;

 private:
  [[nodiscard]] query::AdHocScope Scope() const;

  // --- BT transport -----------------------------------------------------
  void BtStart();
  void BtDiscover();
  void BtDiscoverProviders(std::vector<net::BtDeviceInfo> devices,
                           std::size_t index, int budget);
  void BtRoundDone();
  void BtConnectAndPoll(net::NodeId device);
  void BtPollAll();

  // --- WiFi transport ------------------------------------------------------
  void WifiLaunchRound();
  void WifiRoundReply(sm::SmartMessage reply);
  void WifiRoundTimeout(const std::string& finder_id);

  BTReference& bt_;
  WiFiReference& wifi_;
  AccessController& access_;
  Client* client_;
  AdHocTransport transport_policy_;
  bool use_wifi_ = false;

  std::unique_ptr<sim::PeriodicTask> round_timer_;
  // BT state
  std::size_t bt_providers_found_ = 0;
  std::map<net::NodeId, net::BtLinkId> bt_links_;  // provider device links
  BTReference::ListenerId bt_data_listener_ = 0;
  BTReference::ListenerId bt_disc_listener_ = 0;
  BTReference::DiscoveryId bt_discovery_ = 0;
  std::set<net::BtLinkId> awaiting_poll_;
  // WiFi state
  std::string active_finder_id_;
  sim::TimerId finder_timeout_ = sim::kInvalidTimer;
  bool first_round_done_ = false;
  int finder_retries_;
  int retries_left_ = 0;

  std::shared_ptr<bool> life_ = std::make_shared<bool>(true);
};

}  // namespace contory::core
