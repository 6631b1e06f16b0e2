// WiFiReference: mediated access to the WiFi ad hoc module (Sec. 4.3, 5.1).
//
// "The WiFiReference manages communication in WiFi networks, but also
// provides abstractions for content-based routing, geographical routing,
// and multi-hop communication in ad hoc networks" — implemented, as in
// the prototype, on top of the Smart Messages platform. The reference
// owns participation in the Contory overlay and exposes tag publication
// and SM-FINDER style retrieval primitives to the providers.
#pragma once

#include <string>
#include <string_view>

#include "core/model/cxt_item.hpp"
#include "core/references/reference.hpp"
#include "net/wifi.hpp"
#include "sm/sm_runtime.hpp"

namespace contory::core {

/// Tag namespace for published context items ("cxt.temperature", ...).
[[nodiscard]] std::string CxtTagName(const std::string& type);

/// The value of a published item's tag: the item's serialized bytes.
[[nodiscard]] std::string CxtTagValue(const CxtItem& item);
/// Decodes a tag value written by CxtTagValue, where it is stored.
[[nodiscard]] Result<CxtItem> ItemFromTagValue(std::string_view value);

class WiFiReference final : public Reference {
 public:
  /// Either pointer may be null (device without WiFi). When both are
  /// present the reference joins the Contory overlay on Enable().
  WiFiReference(net::WifiController* wifi, sm::SmRuntime* sm);

  [[nodiscard]] const char* name() const noexcept override {
    return "WiFiReference";
  }
  [[nodiscard]] bool Available() const override {
    return wifi_ != nullptr && sm_ != nullptr && wifi_->enabled();
  }
  [[nodiscard]] net::WifiController* wifi() noexcept { return wifi_; }
  [[nodiscard]] sm::SmRuntime* sm() noexcept { return sm_; }

  /// Joins/leaves the Contory SM overlay ("exposing the tag 'contory'").
  void SetParticipating(bool participating);

  /// Publishes a context item tag on the local node (type name + encoded
  /// value), optionally key-locked.
  void PublishTag(const std::string& type, std::string value,
                  std::optional<SimDuration> lifetime,
                  std::string access_key = {});
  void RemoveTag(const std::string& type);

  /// Hop distance to the nearest node exposing items of `type`
  /// (kNotFound when unreachable) — used both by routing and by the
  /// WeatherWatcher's "dense enough / close enough" decision.
  [[nodiscard]] Result<int> DistanceToType(const std::string& type) const;

 private:
  net::WifiController* wifi_;
  sm::SmRuntime* sm_;
};

}  // namespace contory::core
