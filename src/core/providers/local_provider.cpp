#include "core/providers/local_provider.hpp"

#include <cstring>
#include <utility>

#include "core/model/vocabulary.hpp"

namespace contory::core {
namespace {
/// Discovery results younger than this are reused instead of paying the
/// 13 s inquiry again.
constexpr SimDuration kDiscoveryMaxAge = std::chrono::seconds{60};
}  // namespace

LocalCxtProvider::LocalCxtProvider(sim::Simulation& sim,
                                   query::CxtQuery query, Callbacks callbacks,
                                   InternalReference& internal,
                                   BTReference& bt, AccessController& access,
                                   Client* client)
    : CxtProvider(sim, std::move(query), std::move(callbacks)),
      internal_(internal),
      bt_(bt),
      access_(access),
      client_(client) {}

LocalCxtProvider::~LocalCxtProvider() {
  *life_ = false;
  DoStop();
}

bool LocalCxtProvider::CanServe(const query::CxtQuery& q,
                                const InternalReference& internal,
                                const BTReference& bt) {
  if (internal.HasSourceOfType(q.select_type)) return true;
  const bool gps_type = q.select_type == vocab::kLocation ||
                        q.select_type == vocab::kSpeed;
  return gps_type && bt.Available();
}

void LocalCxtProvider::DoStart() {
  if (internal_.HasSourceOfType(query().select_type)) {
    gps_mode_ = false;
    StartSensorMode();
    return;
  }
  if ((query().select_type == vocab::kLocation ||
       query().select_type == vocab::kSpeed) &&
      bt_.Available()) {
    gps_mode_ = true;
    StartGpsMode();
    return;
  }
  // Defer: Fail() while Start() is still on the caller's stack is legal
  // but scheduling keeps submission code paths uniform.
  sim().ScheduleAfter(SimDuration::zero(), [this, life = life_] {
    if (!*life || !running()) return;
    Fail(NotFound("no local sensor can serve '" + query().select_type +
                  "'"));
  });
}

void LocalCxtProvider::DoStop() {
  poller_.reset();
  if (data_listener_ != 0) {
    bt_.RemoveDataListener(data_listener_);
    data_listener_ = 0;
  }
  if (disconnect_listener_ != 0) {
    bt_.RemoveDisconnectListener(disconnect_listener_);
    disconnect_listener_ = 0;
  }
  bt_.CancelDiscovery(std::exchange(discovery_, 0));
  if (gps_link_ != 0 && bt_.controller() != nullptr) {
    bt_.controller()->Disconnect(gps_link_);
    gps_link_ = 0;
  }
}

void LocalCxtProvider::OnQueryUpdated() {
  if (poller_ != nullptr) poller_->SetPeriod(DefaultPollPeriod());
}

// --- Integrated-sensor mode -------------------------------------------------

void LocalCxtProvider::StartSensorMode() {
  if (query().mode() == query::InteractionMode::kOnDemand) {
    SampleSensorOnce();
    if (running()) CompleteOk();
    return;
  }
  poller_ = std::make_unique<sim::PeriodicTask>(
      sim(), SimDuration::zero() + DefaultPollPeriod(), DefaultPollPeriod(),
      [this] { SampleSensorOnce(); });
  // Long-running queries also report an immediate first value.
  SampleSensorOnce();
}

void LocalCxtProvider::SampleSensorOnce() {
  auto item = internal_.Sample(query().select_type);
  if (!item.ok()) {
    Fail(item.status());
    return;
  }
  Offer(*std::move(item));
}

// --- BT-GPS mode -------------------------------------------------------------

void LocalCxtProvider::StartGpsMode() {
  discovery_ = bt_.Discover(
      kDiscoveryMaxAge,
      [this, life = life_](Result<std::vector<net::BtDeviceInfo>> devices) {
        if (!*life || !running()) return;
        if (!devices.ok()) {
          Fail(devices.status());
          return;
        }
        if (devices->empty()) {
          Fail(Unavailable("no BT devices in range for GPS search"));
          return;
        }
        SearchGpsService(*std::move(devices), 0);
      });
}

void LocalCxtProvider::SearchGpsService(
    std::vector<net::BtDeviceInfo> devices, std::size_t index) {
  if (index >= devices.size()) {
    Fail(NotFound("no device advertises a GPS service"));
    return;
  }
  const auto device = devices[index];
  const std::string address = "bt:" + device.name;
  if (!access_.Admit(address, client_)) {
    SearchGpsService(std::move(devices), index + 1);
    return;
  }
  bt_.controller()->DiscoverServices(
      device.node, sensors::kGpsServiceName,
      [this, life = life_, devices = std::move(devices), index,
       device](Result<std::vector<net::ServiceRecord>> records) mutable {
        if (!*life || !running()) return;
        if (records.ok() && !records->empty()) {
          ConnectGps(device.node, device.name);
          return;
        }
        SearchGpsService(std::move(devices), index + 1);
      });
}

void LocalCxtProvider::ConnectGps(net::NodeId device,
                                  std::string device_name) {
  gps_device_name_ = std::move(device_name);
  data_listener_ = bt_.AddDataListener(
      [this](net::BtLinkId link, net::NodeId,
             const std::vector<std::byte>& data) {
        if (link == gps_link_) OnNmea(data);
      });
  disconnect_listener_ = bt_.AddDisconnectListener(
      [this](net::BtLinkId link, net::NodeId) {
        if (link != gps_link_) return;
        gps_link_ = 0;
        // The Fig. 5 trigger: the GPS vanished mid-query.
        Fail(Unavailable("BT-GPS '" + gps_device_name_ + "' disconnected"));
      });
  bt_.controller()->Connect(
      device, [this, life = life_](Result<net::BtLinkId> link) {
        if (!*life || !running()) return;
        if (!link.ok()) {
          Fail(link.status());
          return;
        }
        gps_link_ = *link;
        if (query().mode() == query::InteractionMode::kPeriodic) {
          poller_ = std::make_unique<sim::PeriodicTask>(
              sim(), *query().every, [this] { DeliverFix(); });
        }
      });
}

void LocalCxtProvider::OnNmea(const std::vector<std::byte>& data) {
  std::string burst(data.size(), '\0');
  std::memcpy(burst.data(), data.data(), data.size());
  auto fix = sensors::ParseNmeaBurst(burst);
  if (!fix.ok()) return;
  latest_fix_ = *fix;
  latest_fix_at_ = sim().Now();
  switch (query().mode()) {
    case query::InteractionMode::kOnDemand:
      if (!first_delivery_done_) {
        first_delivery_done_ = true;
        Offer(ItemFromFix(*latest_fix_, latest_fix_at_));
        if (running()) CompleteOk();
      }
      break;
    case query::InteractionMode::kEventBased:
      // Every fix feeds the EVENT window; Offer() decides on delivery.
      Offer(ItemFromFix(*latest_fix_, latest_fix_at_));
      break;
    case query::InteractionMode::kPeriodic:
      break;  // the poller samples latest_fix_ at the EVERY rate
  }
}

void LocalCxtProvider::DeliverFix() {
  if (!latest_fix_.has_value()) return;
  Offer(ItemFromFix(*latest_fix_, latest_fix_at_));
}

CxtItem LocalCxtProvider::ItemFromFix(const sensors::GpsFix& fix,
                                      SimTime stamped_at) const {
  CxtItem item;
  item.id = sim().ids().NextId("item");
  item.type = query().select_type;
  if (item.type == vocab::kSpeed) {
    item.value = fix.speed_knots;
  } else {
    item.value = fix.position;
  }
  item.timestamp = stamped_at;
  item.source = {SourceKind::kIntSensor, "bt:" + gps_device_name_};
  item.metadata.accuracy = 10.0;  // meters, consumer-GPS class
  item.metadata.trust = TrustLevel::kTrusted;  // own sensor
  return item;
}

}  // namespace contory::core
