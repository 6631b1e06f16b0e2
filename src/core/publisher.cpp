#include "core/publisher.hpp"

#include "obs/clock.hpp"
#include "obs/observability.hpp"

namespace contory::core {
namespace {

/// Table 1's publishCxtItem rows for the ad hoc transports. The publisher
/// has no Simulation reference, so this is the obs::Clock use case: time
/// comes from the process-wide installed source (skipped when none is).
void ObservePublishLatency(SimTime start, const char* transport) {
  COBS({
    if (obs::Clock::installed()) {
      obs::Observability::metrics()
          .GetHistogram("op_latency_ms", {{"op", "publishCxtItem"},
                                          {"mechanism", "adHocNetwork"},
                                          {"transport", transport}})
          .Observe(ToMillis(obs::Clock::Now() - start));
    }
  });
}

}  // namespace

std::string CxtServiceName(const std::string& type) {
  return "contory.cxt." + type;
}

std::vector<std::byte> BuildCxtGetRequest(const std::string& type,
                                          const std::string& key) {
  ByteWriter w;
  w.WriteU8(kCxtGetOp);
  w.WriteString(type);
  w.WriteString(key);
  return std::move(w).Take();
}

Result<CxtGetRequest> ParseCxtGetRequest(
    const std::vector<std::byte>& frame) {
  ByteReader r{frame};
  const auto op = r.ReadU8();
  if (!op.ok()) return op.status();
  if (*op != kCxtGetOp) return InvalidArgument("not a CXTGET frame");
  CxtGetRequest req;
  auto type = r.ReadString();
  if (!type.ok()) return type.status();
  req.type = *std::move(type);
  auto key = r.ReadString();
  if (!key.ok()) return key.status();
  req.key = *std::move(key);
  return req;
}

std::vector<std::byte> BuildCxtGetResponse(const Result<CxtItem>& item) {
  ByteWriter w;
  w.WriteU8(kCxtGetRespOp);
  w.WriteBool(item.ok());
  if (item.ok()) item->Encode(w);
  return std::move(w).Take();
}

Result<CxtItem> ParseCxtGetResponse(const std::vector<std::byte>& frame) {
  ByteReader r{frame};
  const auto op = r.ReadU8();
  if (!op.ok()) return op.status();
  if (*op != kCxtGetRespOp) return InvalidArgument("not a CXTGET response");
  const auto ok = r.ReadBool();
  if (!ok.ok()) return ok.status();
  if (!*ok) return NotFound("peer has no such published item");
  return CxtItem::Deserialize(r);
}

CxtPublisher::CxtPublisher(BTReference& bt, WiFiReference& wifi)
    : bt_(bt), wifi_(wifi) {
  bt_listener_ = bt_.AddDataListener(
      [this](net::BtLinkId link, net::NodeId,
             const std::vector<std::byte>& frame) { OnBtData(link, frame); });
}

CxtPublisher::~CxtPublisher() { bt_.RemoveDataListener(bt_listener_); }

void CxtPublisher::OnBtData(net::BtLinkId link,
                            const std::vector<std::byte>& frame) {
  const auto request = ParseCxtGetRequest(frame);
  if (!request.ok()) return;  // not for us (NMEA, responses, ...)
  if (bt_.controller() == nullptr) return;
  bt_.controller()->Send(link,
                         BuildCxtGetResponse(CurrentItem(request->type,
                                                         request->key)));
}

Result<CxtItem> CxtPublisher::CurrentItem(const std::string& type,
                                          const std::string& key) const {
  const auto it = current_.find(type);
  if (it == current_.end()) {
    return NotFound("no published item of type '" + type + "'");
  }
  if (!it->second.access_key.empty() && it->second.access_key != key) {
    return PermissionDenied("item '" + type + "' requires a key");
  }
  return it->second.item;
}

void CxtPublisher::Publish(const CxtItem& item, std::string access_key,
                           std::function<void(Status)> done) {
  bool any_channel = false;
  const SimTime pub_start = obs::Clock::Now();
  current_[item.type] = Publication{item, access_key};

  // WiFi/SM tag: cheap upsert — "simply creating a new SM tag and storing
  // its name and value in the TagSpace hashtable" (Table 1: 0.130 ms).
  if (wifi_.Available()) {
    any_channel = true;
    wifi_.PublishTag(item.type, ToHex(item.Serialize()), item.lifetime,
                     access_key);
    wifi_types_[item.type] = !access_key.empty();
    if (!bt_.Available()) {
      // Completion after the measured tag-creation cost — charged and
      // timed whether or not the caller asked for the acknowledgement.
      sm::SmRuntime* rt = wifi_.sm();
      auto& phone = rt->wifi().phone();
      phone.ChargeCpu(phone.profile().sm_tag_publish_cost);
      rt->sim().ScheduleAfter(phone.profile().sm_tag_publish_cost,
                              [pub_start, done = std::move(done)] {
                                ObservePublishLatency(pub_start, "wifi");
                                if (done) done(Status::Ok());
                              });
      return;
    }
  }

  // BT service record: first publication registers (~140 ms); later
  // publications update the DataElement in place.
  if (bt_.Available()) {
    std::string service = CxtServiceName(item.type);
    if (!access_key.empty()) service += ".locked";
    const auto handle_it = bt_handles_.find(item.type);
    if (handle_it != bt_handles_.end()) {
      const Status s = bt_.controller()->UpdateService(handle_it->second,
                                                       item.Serialize());
      if (s.ok()) ObservePublishLatency(pub_start, "bt");
      if (done) done(s);
      return;
    }
    bt_.controller()->RegisterService(
        {std::move(service), item.Serialize()},
        [this, type = item.type, pub_start,
         done = std::move(done)](Result<net::ServiceHandle> handle) {
          if (!handle.ok()) {
            if (done) done(handle.status());
            return;
          }
          bt_handles_[type] = *handle;
          ObservePublishLatency(pub_start, "bt");
          if (done) done(Status::Ok());
        });
    return;
  }

  if (done) {
    done(any_channel ? Status::Ok()
                     : Unavailable("no ad hoc channel available to publish"));
  }
}

void CxtPublisher::Unpublish(const std::string& type) {
  current_.erase(type);
  if (const auto it = bt_handles_.find(type); it != bt_handles_.end()) {
    if (bt_.controller() != nullptr) {
      bt_.controller()->UnregisterService(it->second);
    }
    bt_handles_.erase(it);
  }
  if (wifi_types_.erase(type) > 0) {
    wifi_.RemoveTag(type);
  }
}

bool CxtPublisher::IsPublished(const std::string& type) const {
  return bt_handles_.contains(type) || wifi_types_.contains(type);
}

}  // namespace contory::core
