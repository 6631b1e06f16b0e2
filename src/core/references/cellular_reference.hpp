// 2G/3GReference: mediated access to the cellular module (Sec. 4.3, 5.1).
//
// "The 2G/3GReference manages communications with remote entities over
// the corresponding network standards and offers an event-based
// interface" — request/response exchanges with infrastructure servers
// plus dispatch of pushed event notifications to per-topic handlers
// (what the Fuego middleware provided in the prototype).
#pragma once

#include <functional>
#include <string>
#include <unordered_map>

#include "core/references/reference.hpp"
#include "infra/event_envelope.hpp"
#include "net/cellular.hpp"

namespace contory::core {

class CellularReference final : public Reference {
 public:
  /// `modem` may be null (device without a cellular subscription).
  explicit CellularReference(net::CellularModem* modem);

  [[nodiscard]] const char* name() const noexcept override {
    return "2G/3GReference";
  }
  [[nodiscard]] bool Available() const override {
    return modem_ != nullptr && modem_->radio_on();
  }
  [[nodiscard]] net::CellularModem* modem() noexcept { return modem_; }

  /// Sends a request; failures are additionally reported to the
  /// ResourcesMonitor (they often mean coverage loss). `timeout` bounds
  /// the exchange (retry policies pass their per-attempt budget here).
  void SendRequest(const std::string& address, std::vector<std::byte> request,
                   std::function<void(Result<std::vector<std::byte>>)> done,
                   SimDuration timeout = std::chrono::seconds{30});

  // --- Event-based interface ---------------------------------------------
  using TopicHandler = std::function<void(const infra::Event&)>;
  /// Routes pushed event notifications whose topic matches exactly.
  void SetTopicHandler(const std::string& topic, TopicHandler handler);
  void RemoveTopicHandler(const std::string& topic);

 private:
  net::CellularModem* modem_;
  std::unordered_map<std::string, TopicHandler> topic_handlers_;
};

}  // namespace contory::core
