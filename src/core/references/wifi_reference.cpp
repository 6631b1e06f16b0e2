#include "core/references/wifi_reference.hpp"

namespace contory::core {

std::string CxtTagName(const std::string& type) { return "cxt." + type; }

WiFiReference::WiFiReference(net::WifiController* wifi, sm::SmRuntime* sm)
    : wifi_(wifi), sm_(sm) {}

void WiFiReference::SetParticipating(bool participating) {
  if (sm_ != nullptr) sm_->SetParticipating(participating);
}

void WiFiReference::PublishTag(const std::string& type, std::string value,
                               std::optional<SimDuration> lifetime,
                               std::string access_key) {
  if (sm_ == nullptr) {
    NotifyFailure("cannot publish tag: no SM runtime");
    return;
  }
  sm_->tags().Upsert(CxtTagName(type), std::move(value), lifetime,
                     std::move(access_key));
}

void WiFiReference::RemoveTag(const std::string& type) {
  if (sm_ != nullptr) (void)sm_->tags().Delete(CxtTagName(type));
}

Result<int> WiFiReference::DistanceToType(const std::string& type) const {
  if (sm_ == nullptr || wifi_ == nullptr || !wifi_->enabled()) {
    return Unavailable("wifi reference not available");
  }
  return sm_->HopDistanceToTag(CxtTagName(type));
}

}  // namespace contory::core
