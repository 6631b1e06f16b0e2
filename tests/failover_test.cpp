// Failover around the Fig. 5 experiment: delivery across the switch, the
// no-alternative error path, and the switch's BT discovery cost. The
// switch-there-and-back timeline itself is the failover_switch.scn case.
#include <gtest/gtest.h>

#include "core/contory.hpp"
#include "testbed/testbed.hpp"

namespace contory::core {
namespace {

using namespace std::chrono_literals;
using testbed::NewQuery;

class FailoverTest : public ::testing::Test {
 protected:
  FailoverTest() : world_(500) {
    // The querying phone.
    testbed::DeviceOptions phone_opts;
    phone_opts.name = "phone-A";
    phone_opts.position = {0, 0};
    core::ContextFactoryConfig cfg;
    cfg.recovery_probe_period = 20s;
    phone_opts.factory_config = cfg;
    device_ = &world_.AddDevice(phone_opts);

    // Its BT-GPS, 3 m away (on the same boat).
    gps_ = &world_.AddGps("gps-1", {3, 0});

    // A neighboring device publishing location items over BT (someone
    // else's boat within radio range).
    testbed::DeviceOptions neighbor_opts;
    neighbor_opts.name = "phone-B";
    neighbor_opts.position = {6, 0};
    neighbor_ = &world_.AddDevice(neighbor_opts);
    EXPECT_TRUE(
        neighbor_->contory().RegisterCxtServer(neighbor_client_).ok());
    // The neighbor re-publishes its own location every 5 s.
    publish_task_ = std::make_unique<sim::PeriodicTask>(
        world_.sim(), 5s, [this] {
          CxtItem item;
          item.id = world_.sim().ids().NextId("nb-item");
          item.type = vocab::kLocation;
          item.value = sensors::ToGeo(neighbor_->position());
          item.timestamp = world_.Now();
          item.metadata.accuracy = 30.0;  // coarser than own GPS
          (void)neighbor_->contory().PublishCxtItem(item, true);
        });
  }

  testbed::World world_;
  testbed::Device* device_ = nullptr;
  testbed::Device* neighbor_ = nullptr;
  sensors::GpsDevice* gps_ = nullptr;
  CollectingClient neighbor_client_;
  std::unique_ptr<sim::PeriodicTask> publish_task_;
};

TEST_F(FailoverTest, DeliveryContinuesThroughFailure) {
  CollectingClient client;
  const auto id = device_->contory().ProcessCxtQuery(
      NewQuery(world_.sim(), "SELECT location DURATION 20 min EVERY 5 sec"),
      client);
  ASSERT_TRUE(id.ok());
  world_.RunFor(60s);
  gps_->PowerOff();
  const auto at_failure = client.items.size();
  world_.RunFor(3min);
  // "context provisioning should take place without any interruption":
  // the ad hoc path keeps items flowing.
  EXPECT_GT(client.items.size(), at_failure + 10);
}

TEST_F(FailoverTest, NoAlternativeMeansInformError) {
  // Kill the neighbor as well: failover has nowhere to go.
  neighbor_->bt()->SetEnabled(false);
  CollectingClient client;
  const auto id = device_->contory().ProcessCxtQuery(
      NewQuery(world_.sim(), "SELECT location DURATION 20 min EVERY 5 sec"),
      client);
  ASSERT_TRUE(id.ok());
  world_.RunFor(60s);
  gps_->PowerOff();
  world_.RunFor(2min);
  EXPECT_FALSE(client.errors.empty());
}

TEST_F(FailoverTest, SwitchCostIsBtDiscovery) {
  // "The cost in terms of power consumption of the switches is due mostly
  // to the BT device discovery." Verify the failover window contains an
  // inquiry-powered period on the phone.
  CollectingClient client;
  ASSERT_TRUE(device_->contory()
                  .ProcessCxtQuery(NewQuery(world_.sim(),
                                            "SELECT location DURATION 20 min "
                                            "EVERY 5 sec"),
                                   client)
                  .ok());
  world_.RunFor(60s);
  gps_->PowerOff();
  double peak = 0.0;
  device_->phone().energy().SetPowerListener(
      [&](SimTime, double mw) { peak = std::max(peak, mw); });
  world_.RunFor(2min);
  // Detach before `peak` leaves scope: device teardown reports power too.
  device_->phone().energy().SetPowerListener({});
  // Inquiry draws ~360 mW — the discovery peaks Fig. 5 shows (163-292 mW
  // averaged over the meter's 500 ms window).
  EXPECT_GT(peak, 150.0);
}

}  // namespace
}  // namespace contory::core
