#include "infra/event_broker.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace contory::infra {
namespace {
constexpr const char* kModule = "broker";

std::vector<std::byte> OkResponse() {
  ByteWriter w;
  w.WriteU8(1);
  return std::move(w).Take();
}

std::vector<std::byte> ErrorResponse(const std::string& msg) {
  ByteWriter w;
  w.WriteU8(0);
  w.WriteString(msg);
  return std::move(w).Take();
}

}  // namespace

std::vector<std::byte> WrapEvent(const std::string& topic,
                                 const std::vector<std::byte>& payload) {
  ByteWriter w;
  w.WriteString(topic);
  w.WriteU32(static_cast<std::uint32_t>(payload.size()));
  w.WriteRaw(payload);
  // XML envelope verbosity: pad to the observed notification size.
  if (w.size() + 4 < kEventNotificationBytes) {
    const auto pad =
        static_cast<std::uint32_t>(kEventNotificationBytes - w.size() - 4);
    w.WriteU32(pad);
    w.WritePadding(pad);
  } else {
    w.WriteU32(0);
  }
  return std::move(w).Take();
}

Result<Event> UnwrapEvent(const std::vector<std::byte>& wire) {
  ByteReader r{wire};
  Event event;
  auto topic = r.ReadString();
  if (!topic.ok()) return topic.status();
  event.topic = *std::move(topic);
  const auto len = r.ReadU32();
  if (!len.ok()) return len.status();
  auto payload = r.ReadBytes(*len);
  if (!payload.ok()) return payload.status();
  event.payload = *std::move(payload);
  return event;
}

EventBroker::EventBroker(sim::Simulation& sim, net::CellularNetwork& network,
                         std::string address)
    : sim_(sim), network_(network), address_(std::move(address)) {
  const Status s = network_.RegisterServer(
      address_, [this](net::NodeId from, const std::vector<std::byte>& req,
                       net::CellularNetwork::Respond respond) {
        HandleRequest(from, req, std::move(respond));
      });
  if (!s.ok()) {
    throw std::invalid_argument("EventBroker: " + s.ToString());
  }
}

EventBroker::~EventBroker() { network_.UnregisterServer(address_); }

std::size_t EventBroker::SubscriberCount(const std::string& topic) const {
  const auto it = subscribers_.find(topic);
  return it == subscribers_.end() ? 0 : it->second.size();
}

void EventBroker::HandleRequest(net::NodeId from,
                                const std::vector<std::byte>& request,
                                net::CellularNetwork::Respond respond) {
  if (outage_) {
    // Dropping `respond` leaves the client's exchange to time out.
    ++dropped_requests_;
    CLOG_DEBUG(kModule, "outage: dropping request from node %u", from);
    return;
  }
  ByteReader r{request};
  const auto op = r.ReadU8();
  if (!op.ok()) {
    respond(ErrorResponse("empty request"));
    return;
  }
  auto topic = r.ReadString();
  if (!topic.ok()) {
    respond(ErrorResponse("missing topic"));
    return;
  }
  switch (static_cast<BrokerOp>(*op)) {
    case BrokerOp::kSubscribe: {
      auto& subs = subscribers_[*topic];
      if (std::find(subs.begin(), subs.end(), from) == subs.end()) {
        subs.push_back(from);
      }
      respond(OkResponse());
      return;
    }
    case BrokerOp::kUnsubscribe: {
      auto& subs = subscribers_[*topic];
      std::erase(subs, from);
      respond(OkResponse());
      return;
    }
    case BrokerOp::kPublish: {
      const auto len = r.ReadU32();
      if (!len.ok()) {
        respond(ErrorResponse("missing payload"));
        return;
      }
      const auto payload = r.ReadBytes(*len);
      if (!payload.ok()) {
        respond(ErrorResponse("truncated payload"));
        return;
      }
      ++events_published_;
      const auto frame = WrapEvent(*topic, *payload);
      for (const net::NodeId sub : subscribers_[*topic]) {
        if (sub == from) continue;  // no echo to the publisher
        const Status s = network_.PushToClient(sub, frame);
        if (!s.ok()) {
          CLOG_DEBUG(kModule, "push to %u failed: %s", sub,
                     s.ToString().c_str());
        }
      }
      respond(OkResponse());
      return;
    }
  }
  respond(ErrorResponse("unknown opcode"));
}

EventClient::EventClient(net::CellularModem& modem,
                         std::string broker_address)
    : modem_(modem), broker_address_(std::move(broker_address)) {
  modem_.SetPushHandler([this](const std::vector<std::byte>& frame) {
    const auto event = UnwrapEvent(frame);
    if (!event.ok()) return;
    const auto it = handlers_.find(event->topic);
    if (it != handlers_.end()) it->second(*event);
  });
}

namespace {

void SendBrokerRequest(net::CellularModem& modem, const std::string& address,
                       std::vector<std::byte> request,
                       std::function<void(Status)> done) {
  modem.SendRequest(
      address, std::move(request),
      [done = std::move(done)](Result<std::vector<std::byte>> response) {
        if (!done) return;
        if (!response.ok()) {
          done(response.status());
          return;
        }
        ByteReader r{*response};
        const auto ok = r.ReadU8();
        if (!ok.ok() || *ok != 1) {
          done(Internal("broker rejected request"));
          return;
        }
        done(Status::Ok());
      });
}

}  // namespace

void EventClient::Publish(const std::string& topic,
                          std::vector<std::byte> payload,
                          std::function<void(Status)> done) {
  ByteWriter w;
  w.WriteU8(static_cast<std::uint8_t>(BrokerOp::kPublish));
  w.WriteString(topic);
  w.WriteU32(static_cast<std::uint32_t>(payload.size()));
  w.WriteRaw(payload);
  // Envelope size parity with notifications: the request is event-sized.
  if (w.size() < kEventNotificationBytes) {
    w.WritePadding(kEventNotificationBytes - w.size());
  }
  SendBrokerRequest(modem_, broker_address_, std::move(w).Take(),
                    std::move(done));
}

void EventClient::Subscribe(const std::string& topic, EventHandler handler,
                            std::function<void(Status)> done) {
  handlers_[topic] = std::move(handler);
  ByteWriter w;
  w.WriteU8(static_cast<std::uint8_t>(BrokerOp::kSubscribe));
  w.WriteString(topic);
  SendBrokerRequest(modem_, broker_address_, std::move(w).Take(),
                    std::move(done));
}

void EventClient::Unsubscribe(const std::string& topic,
                              std::function<void(Status)> done) {
  handlers_.erase(topic);
  ByteWriter w;
  w.WriteU8(static_cast<std::uint8_t>(BrokerOp::kUnsubscribe));
  w.WriteString(topic);
  SendBrokerRequest(modem_, broker_address_, std::move(w).Take(),
                    std::move(done));
}

}  // namespace contory::infra
