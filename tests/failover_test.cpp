// Failover around the Fig. 5 experiment: delivery across the switch, the
// no-alternative error path, the switch's BT discovery cost, a
// single-source query never held by two mechanisms at once, and a
// switch-back discovery that outlives its query. The switch-there-and-back
// timeline itself is the failover_switch.scn case.
#include <gtest/gtest.h>

#include <string>

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

// Checks, at every delivery, that the query is served by more than one
// mechanism only if its plan started on more than one.
class MechanismAuditClient : public CollectingClient {
 public:
  void ReceiveCxtItem(const CxtItem& item) override {
    CollectingClient::ReceiveCxtItem(item);
    const QueryRecord* record = table->Find(query_id);
    if (record == nullptr) return;
    mechanisms = mechanisms | record->assigned;
    if (record->assigned.size() > 1 && record->plan.initial.size() <= 1) {
      ++violations;
    }
  }

  const QueryTable* table = nullptr;
  std::string query_id;
  query::MechanismSet mechanisms;
  int violations = 0;
};

TEST_F(FailoverTest, SwitchesAreBreakBeforeMake) {
  // The router keeps its cross-mechanism dedup window only for plans
  // that start on several mechanisms. That is sound only if failover
  // and switch-back never let two mechanisms serve a single-source
  // query at once.
  ContextFactory& factory = device_->contory();
  MechanismAuditClient client;
  client.table = &factory.queries();
  const query::CxtQuery q =
      NewQuery(world_.sim(), "SELECT location DURATION 20 min EVERY 5 sec");
  client.query_id = q.id;
  ASSERT_TRUE(factory.ProcessCxtQuery(q, client).ok());
  world_.RunFor(60s);
  gps_->PowerOff();
  world_.RunFor(3min);
  gps_->PowerOn();
  world_.RunFor(3min);

  ASSERT_EQ(factory.switch_log().size(), 2u);  // there and back
  EXPECT_EQ(client.mechanisms,
            (query::MechanismSet{query::SourceSel::kIntSensor,
                                 query::SourceSel::kAdHocNetwork}));
  EXPECT_EQ(client.violations, 0);
  const QueryRecord* record = factory.queries().Find(q.id);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->plan.initial.size(), 1u);
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

TEST_F(FailoverTest, RecoveryCallbackOutlivingItsQueryActsOnNothing) {
  // The BT-GPS switch-back probe runs a discovery whose callbacks hold
  // only the probing query's QueryId. The query is cancelled while that
  // discovery is in flight and a new one is submitted under the same id
  // string. The new one names extInfra first with the modem off, so as a
  // fresh query it fails over away from its preferred mechanism: exactly
  // the state a stale switch-back would act on, had the callback looked
  // the query up by its id string.
  ContextFactory& factory = device_->contory();
  CollectingClient client;
  const auto id = factory.ProcessCxtQuery(
      NewQuery(world_.sim(), "SELECT location DURATION 20 min EVERY 5 sec"),
      client);
  ASSERT_TRUE(id.ok());
  world_.RunFor(60s);
  gps_->PowerOff();
  world_.RunFor(30s);
  ASSERT_EQ(factory.switch_log().size(), 1u);
  const SimTime failover_at = factory.switch_log()[0].at;
  ASSERT_EQ(factory.CurrentMechanisms(*id),
            query::MechanismSet{query::SourceSel::kAdHocNetwork});

  // Probes tick every 20 s after the failover. The GPS comes back after
  // the second probe's discovery has finished, so the third one finds it.
  world_.sim().RunUntil(failover_at + 55s);
  ASSERT_FALSE(device_->bt()->inquiry_in_progress());
  gps_->PowerOn();
  world_.sim().RunUntil(failover_at + 61s);
  ASSERT_TRUE(device_->bt()->inquiry_in_progress());
  ASSERT_EQ(factory.switch_log().size(), 1u);

  factory.CancelCxtQuery(*id);
  device_->modem()->SetRadioOn(false);
  query::CxtQuery next = NewQuery(
      world_.sim(),
      "SELECT location FROM extInfra, adHocNetwork DURATION 20 min "
      "EVERY 5 sec");
  next.id = *id;
  CollectingClient next_client;
  const auto resubmitted = factory.ProcessCxtQuery(next, next_client);
  ASSERT_TRUE(resubmitted.ok());
  ASSERT_EQ(*resubmitted, *id);
  world_.RunFor(1min);  // inquiry, SDP and every callback waiting on them

  // What a fresh submission does: extInfra fails, intSensor replaces it
  // beside adHocNetwork, and nothing switches the query back.
  ASSERT_EQ(factory.switch_log().size(), 2u);
  EXPECT_EQ(factory.switch_log()[1].query_id, *id);
  EXPECT_EQ(factory.switch_log()[1].from, query::SourceSel::kExtInfra);
  EXPECT_EQ(factory.switch_log()[1].to, query::SourceSel::kIntSensor);
  EXPECT_EQ(factory.CurrentMechanisms(*id),
            (query::MechanismSet{query::SourceSel::kIntSensor,
                                 query::SourceSel::kAdHocNetwork}));
}

}  // namespace
}  // namespace contory::core
