#include "testbed/testbed.hpp"

#include <stdexcept>

#include "obs/clock.hpp"

namespace contory::testbed {

World::World(std::uint64_t seed)
    : sim_(seed),
      bt_bus_(medium_),
      wifi_bus_(medium_),
      cellular_(sim_),
      environment_(sim_),
      injector_(sim_) {
  // One installation wires the tracer, op-latency metrics and the log
  // prefix to THE same simulated clock (see obs/clock.hpp).
  clock_token_ = obs::Clock::Install([this] { return sim_.Now(); });
}

World::~World() { obs::Clock::Uninstall(clock_token_); }

Device& World::AddDevice(DeviceOptions options) {
  devices_.push_back(std::make_unique<Device>(*this, options));
  return *devices_.back();
}

sensors::GpsDevice& World::AddGps(const std::string& name,
                                  net::Position position,
                                  sensors::GpsConfig config) {
  const net::NodeId node = medium_.Register(name, position);
  gps_devices_.push_back(
      std::make_unique<sensors::GpsDevice>(sim_, bt_bus_, node, name,
                                           config));
  gps_devices_.back()->PowerOn();
  injector_.RegisterGps(name, *gps_devices_.back());
  injector_.RegisterNode(name, medium_, node);
  return *gps_devices_.back();
}

infra::ContextServer& World::AddContextServer(
    const std::string& address, infra::ContextServerConfig config) {
  servers_.push_back(
      std::make_unique<infra::ContextServer>(sim_, cellular_, address,
                                             config));
  infra::ContextServer* server = servers_.back().get();
  injector_.RegisterOutageSwitch(
      address, [server](bool down) { server->SetOutage(down); });
  return *servers_.back();
}

infra::RegattaService& World::AddRegattaService(
    const std::string& address, std::vector<GeoPoint> checkpoints,
    double radius_m) {
  regattas_.push_back(std::make_unique<infra::RegattaService>(
      sim_, cellular_, address, std::move(checkpoints), radius_m));
  return *regattas_.back();
}

Device::Device(World& world, const DeviceOptions& options)
    : world_(world), name_(options.name) {
  node_ = world_.medium().Register(name_, options.position);
  world_.injector().RegisterNode(name_, world_.medium(), node_);
  phone_ = std::make_unique<phone::SmartPhone>(world_.sim(), options.profile,
                                               name_);
  if (options.with_bt) {
    bt_ = std::make_unique<net::BluetoothController>(
        world_.sim(), world_.bt_bus(), *phone_, node_);
    bt_->SetEnabled(true);
    world_.injector().RegisterBluetooth(name_, *bt_);
  }
  if (options.with_wifi) {
    wifi_ = std::make_unique<net::WifiController>(
        world_.sim(), world_.wifi_bus(), *phone_, node_);
    wifi_->SetEnabled(true);
    sm_ = std::make_unique<sm::SmRuntime>(world_.sim(), world_.sm_bus(),
                                          *wifi_);
    world_.injector().RegisterWifi(name_, *wifi_);
  }
  if (options.with_cellular) {
    modem_ = std::make_unique<net::CellularModem>(
        world_.sim(), *phone_, world_.cellular(), node_);
    modem_->SetRadioOn(true);
    world_.injector().RegisterModem(name_, *modem_);
  }
  if (options.with_contory) {
    core::DeviceServices services;
    services.sim = &world_.sim();
    services.phone = phone_.get();
    services.medium = &world_.medium();
    services.node = node_;
    services.bt = bt_.get();
    services.wifi = wifi_.get();
    services.sm = sm_.get();
    services.modem = modem_.get();
    services.environment = &world_.environment();
    services.default_infra_address = options.infra_address;
    factory_ = std::make_unique<core::ContextFactory>(
        services, options.factory_config);
    for (const std::string& type : options.internal_sensors) {
      auto sensor = std::make_unique<sensors::EnvironmentSensor>(
          world_.sim(), world_.environment(), world_.medium(), node_, type,
          "env:" + type + "@" + name_);
      world_.injector().RegisterSensor(type + "@" + name_, *sensor);
      factory_->internal_reference().RegisterSource(std::move(sensor));
    }
  }
}

Device::~Device() = default;

void Device::MoveTo(net::Position position) {
  (void)world_.medium().SetPosition(node_, position);
}

net::Position Device::position() const {
  return world_.medium().GetPosition(node_).value_or(net::Position{});
}

query::CxtQuery NewQuery(sim::Simulation& sim, const std::string& text) {
  auto q = query::ParseQuery(text);
  if (!q.ok()) throw std::runtime_error(q.status().ToString());
  q->id = sim.ids().NextId("q");
  return *std::move(q);
}

}  // namespace contory::testbed
