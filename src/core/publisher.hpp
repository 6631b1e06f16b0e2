// CxtPublisher (Sec. 4.3, 5.2).
//
// "The CxtPublisher allows publishing context information in ad hoc
// networks by means of the BTReference or the WiFiReference. Each time a
// context item has to be published, two access modalities can be applied:
// public access allows any external entity to access the item, and
// authenticated access locks the item with a key that must be known by
// the requester."
//
// BT publication registers a "contory.cxt.<type>" service record whose
// DataElement carries the serialized item (first publication pays the
// ~140 ms SDDB registration of Table 1; re-publication updates in place).
// WiFi publication exposes an SM tag whose value is the serialized item.
// Publication requires prior registration (registerCxtServer).
#pragma once

#include <map>
#include <optional>
#include <string>

#include "common/status.hpp"
#include "core/model/cxt_item.hpp"
#include "core/references/bt_reference.hpp"
#include "core/references/wifi_reference.hpp"

namespace contory::core {

/// BT service-name prefix for published context items.
[[nodiscard]] std::string CxtServiceName(const std::string& type);

// --- BT item-poll micro-protocol ------------------------------------------
// Once an AdHocCxtProvider has discovered a publishing device, periodic
// queries poll the current item over the ACL link instead of re-running
// SDP — this is the cheap "periodic query, without discovery" path of
// Table 2. Frames:
//   request:  u8 kCxtGet, string type, string key
//   response: u8 ok, [item bytes]
inline constexpr std::uint8_t kCxtGetOp = 0xC1;
inline constexpr std::uint8_t kCxtGetRespOp = 0xC2;

[[nodiscard]] std::vector<std::byte> BuildCxtGetRequest(
    const std::string& type, const std::string& key);
struct CxtGetRequest {
  std::string type;
  std::string key;
};
[[nodiscard]] Result<CxtGetRequest> ParseCxtGetRequest(
    const std::vector<std::byte>& frame);
[[nodiscard]] std::vector<std::byte> BuildCxtGetResponse(
    const Result<CxtItem>& item);
[[nodiscard]] Result<CxtItem> ParseCxtGetResponse(
    const std::vector<std::byte>& frame);

class CxtPublisher {
 public:
  CxtPublisher(BTReference& bt, WiFiReference& wifi);
  ~CxtPublisher();

  CxtPublisher(const CxtPublisher&) = delete;
  CxtPublisher& operator=(const CxtPublisher&) = delete;

  /// Publishes `item` over every available ad hoc channel. With a
  /// non-empty `access_key`, the WiFi tag is key-locked (authenticated
  /// access); the BT record is registered under a ".locked" name
  /// requiring the key in the fetch path.
  /// `done` (optional) fires when the slow path (BT registration) has
  /// completed; immediate when only WiFi is available.
  void Publish(const CxtItem& item, std::string access_key = {},
               std::function<void(Status)> done = {});

  /// Withdraws the publication for `type` from both channels.
  void Unpublish(const std::string& type);

  [[nodiscard]] bool IsPublished(const std::string& type) const;
  [[nodiscard]] std::size_t published_count() const noexcept {
    return bt_handles_.size() + wifi_types_.size();
  }

  /// Current published item of `type` presenting `key` (the BT poll
  /// responder path; also used by tests).
  [[nodiscard]] Result<CxtItem> CurrentItem(const std::string& type,
                                            const std::string& key) const;

 private:
  void OnBtData(net::BtLinkId link, const std::vector<std::byte>& frame);

  struct Publication {
    CxtItem item;
    std::string access_key;
  };

  BTReference& bt_;
  WiFiReference& wifi_;
  std::map<std::string, net::ServiceHandle> bt_handles_;  // type -> handle
  std::map<std::string, bool> wifi_types_;                // type -> locked
  std::map<std::string, Publication> current_;            // type -> item
  BTReference::ListenerId bt_listener_ = 0;
};

}  // namespace contory::core
