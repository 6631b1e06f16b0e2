// Failover demo: the Fig. 5 scenario, narrated.
//
// A phone runs a periodic location query. Provisioning starts on the
// BT-GPS; when the GPS dies, Contory transparently switches to ad hoc
// provisioning from a neighboring boat; when the GPS returns, it switches
// back — "multiple context provisioning strategies are made available and
// can be dynamically and transparently interchanged based on sensor
// availability".
//
// Run: ./build/examples/failover_demo
#include <cstdio>

#include "core/contory.hpp"
#include "testbed/testbed.hpp"

using namespace contory;
using namespace std::chrono_literals;

namespace {

class NarratingApp : public core::Client {
 public:
  explicit NarratingApp(testbed::World& world) : world_(world) {}
  void ReceiveCxtItem(const CxtItem& item) override {
    ++items_;
    if (item.source.kind != last_kind_) {
      std::printf("%s first item from %s\n",
                  FormatTime(world_.Now()).c_str(),
                  item.source.ToString().c_str());
      last_kind_ = item.source.kind;
    }
  }
  void InformError(const std::string& msg) override {
    std::printf("%s middleware: %s\n", FormatTime(world_.Now()).c_str(),
                msg.c_str());
  }
  bool MakeDecision(const std::string&) override { return true; }
  [[nodiscard]] int items() const { return items_; }

 private:
  testbed::World& world_;
  int items_ = 0;
  SourceKind last_kind_ = SourceKind::kUnknown;
};

}  // namespace

int main() {
  std::printf("Contory failover demo (the Fig. 5 scenario)\n");
  std::printf("===========================================\n\n");

  testbed::World world{555};
  testbed::DeviceOptions opts;
  opts.name = "phone-A";
  opts.with_cellular = false;
  core::ContextFactoryConfig cfg;
  cfg.failover.recovery_probe_period = 30s;
  opts.factory_config = cfg;
  auto& device = world.AddDevice(opts);
  auto& gps = world.AddGps("gps-1", {3, 0});

  // The neighboring boat that shares its position.
  testbed::DeviceOptions nb;
  nb.name = "phone-B";
  nb.position = {6, 0};
  nb.with_cellular = false;
  auto& neighbor = world.AddDevice(nb);
  core::CollectingClient nb_app;
  (void)neighbor.contory().RegisterCxtServer(nb_app);
  sim::PeriodicTask nb_publish{world.sim(), 5s, [&] {
    CxtItem item;
    item.id = world.sim().ids().NextId("nb");
    item.type = vocab::kLocation;
    item.value = sensors::ToGeo(neighbor.position());
    item.timestamp = world.Now();
    item.metadata.accuracy = 30.0;
    (void)neighbor.contory().PublishCxtItem(item, true);
  }};

  NarratingApp app{world};
  auto q = query::QueryBuilder(vocab::kLocation)
               .For(15min)
               .Every(5s)
               .Build();
  q.id = world.sim().ids().NextId("q");
  const auto id = device.contory().ProcessCxtQuery(q, app);
  if (!id.ok()) {
    std::printf("submit failed: %s\n", id.status().ToString().c_str());
    return 1;
  }
  std::printf("t=0: submitted periodic location query (EVERY 5 sec); "
              "middleware chose its own mechanism\n");

  world.RunFor(155s);
  std::printf("%s --- switching the GPS device off ---\n",
              FormatTime(world.Now()).c_str());
  gps.PowerOff();

  world.RunFor(145s);
  std::printf("%s --- GPS device powered back on ---\n",
              FormatTime(world.Now()).c_str());
  gps.PowerOn();

  world.RunFor(5min);

  std::printf("\nprovisioning switch log:\n");
  for (const auto& sw : device.contory().switch_log()) {
    std::printf("  %s  %s -> %s\n", FormatTime(sw.at).c_str(),
                query::SourceSelName(sw.from), query::SourceSelName(sw.to));
  }
  std::printf("\nitems delivered: %d; phone energy: %.2f J\n", app.items(),
              device.phone().energy().TotalEnergyJoules());
  return device.contory().switch_log().size() >= 2 ? 0 : 1;
}
