// Tests for the extensions beyond the paper's prototype: result fusion
// (EnableFusion), SM-FINDER retry under mobility, and high-security
// access control end-to-end.
#include <gtest/gtest.h>

#include "core/contory.hpp"
#include "testbed/testbed.hpp"

namespace contory::core {
namespace {

using namespace std::chrono_literals;
using testbed::NewQuery;

CxtItem TempItem(testbed::World& world, double value, double accuracy) {
  CxtItem item;
  item.id = world.sim().ids().NextId("pub");
  item.type = vocab::kTemperature;
  item.value = value;
  item.timestamp = world.Now();
  item.metadata.accuracy = accuracy;
  return item;
}

TEST(FusionTest, MultiMechanismResultsAreFused) {
  testbed::World world{900};
  testbed::DeviceOptions opts;
  opts.name = "requester";
  opts.infra_address = "infra.fi";
  opts.internal_sensors = {vocab::kTemperature};
  auto& device = world.AddDevice(opts);
  auto& server = world.AddContextServer("infra.fi");
  server.StoreDirect({TempItem(world, 30.0, 1.0), "remote", std::nullopt});

  CollectingClient client;
  const auto id = device.contory().ProcessCxtQuery(
      NewQuery(world.sim(),
               "SELECT temperature FROM intSensor, extInfra DURATION 5 min "
               "EVERY 30 sec"),
      client);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(device.contory().EnableFusion(*id).ok());
  world.RunFor(3min);
  ASSERT_GE(client.items.size(), 2u);
  // Every delivered item after the first (which the intSensor provider
  // emits synchronously at submission, before EnableFusion ran) is a
  // fusion product, not a raw reading.
  for (std::size_t i = 1; i < client.items.size(); ++i) {
    EXPECT_EQ(client.items[i].source.kind, SourceKind::kApplication);
    EXPECT_EQ(client.items[i].source.address, "cxtAggregator");
  }
}

TEST(FusionTest, FusionWeighsAccurateSourceHigher) {
  testbed::World world{901};
  testbed::DeviceOptions opts;
  opts.name = "requester";
  opts.infra_address = "infra.fi";
  // Internal sensor: very accurate (0.2), environment ~18-22 degC.
  opts.internal_sensors = {vocab::kTemperature};
  auto& device = world.AddDevice(opts);
  auto& server = world.AddContextServer("infra.fi");
  // Remote: wildly off (50 degC) and sloppy (accuracy 10).
  server.StoreDirect({TempItem(world, 50.0, 10.0), "remote", std::nullopt});

  CollectingClient client;
  const auto id = device.contory().ProcessCxtQuery(
      NewQuery(world.sim(),
               "SELECT temperature FROM intSensor, extInfra DURATION 5 min "
               "EVERY 20 sec"),
      client);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(device.contory().EnableFusion(*id).ok());
  world.RunFor(2min);
  ASSERT_FALSE(client.items.empty());
  // The fused estimate leans toward the accurate local sensor (~20), not
  // the midpoint (~35).
  const auto last = client.items.back().value.AsNumber();
  ASSERT_TRUE(last.ok());
  EXPECT_LT(*last, 30.0);
}

TEST(FusionTest, UnknownQueryRejected) {
  testbed::World world{902};
  auto& device = world.AddDevice({});
  EXPECT_EQ(device.contory().EnableFusion("nope").code(),
            StatusCode::kNotFound);
}

class FinderRetryTest : public ::testing::Test {
 protected:
  FinderRetryTest() : world_(910) {
    for (int i = 0; i < 2; ++i) {
      testbed::DeviceOptions opts;
      opts.name = "comm-" + std::to_string(i);
      opts.profile = phone::Nokia9500();
      opts.position = {i * 80.0, 0};
      opts.with_bt = false;
      opts.with_wifi = true;
      opts.with_cellular = false;
      opts.factory_config.adhoc_finder_retries = retries_for_next_device_;
      devices_.push_back(&world_.AddDevice(opts));
    }
    EXPECT_TRUE(devices_[1]->contory().RegisterCxtServer(pub_app_).ok());
    CxtItem item = TempItem(world_, 21.0, 0.2);
    EXPECT_TRUE(devices_[1]->contory().PublishCxtItem(item, true).ok());
  }

  int retries_for_next_device_ = 1;
  testbed::World world_;
  std::vector<testbed::Device*> devices_;
  CollectingClient pub_app_;
};

TEST_F(FinderRetryTest, LostFinderIsRelaunchedAndSucceeds) {
  CollectingClient client;
  const auto id = devices_[0]->contory().ProcessCxtQuery(
      NewQuery(world_.sim(),
               "SELECT temperature FROM adHocNetwork(1,1) DURATION 1 min"),
      client);
  ASSERT_TRUE(id.ok());
  // Kill the target's radio while the first finder is being serialized;
  // the migration frame dies, the round times out, the retry lands after
  // the radio returns.
  world_.sim().ScheduleAfter(100ms,
                             [&] { devices_[1]->wifi()->SetEnabled(false); });
  world_.sim().ScheduleAfter(2s,
                             [&] { devices_[1]->wifi()->SetEnabled(true); });
  world_.RunFor(30s);
  ASSERT_EQ(client.items.size(), 1u);
  EXPECT_EQ(client.items[0].value, CxtValue{21.0});
  EXPECT_TRUE(client.errors.empty());
}

TEST(FinderRetryZeroTest, NoRetryMeansTimeoutFailure) {
  testbed::World world{911};
  std::vector<testbed::Device*> devices;
  for (int i = 0; i < 2; ++i) {
    testbed::DeviceOptions opts;
    opts.name = "comm-" + std::to_string(i);
    opts.profile = phone::Nokia9500();
    opts.position = {i * 80.0, 0};
    opts.with_bt = false;
    opts.with_wifi = true;
    opts.with_cellular = false;
    opts.factory_config.adhoc_finder_retries = 0;
    devices.push_back(&world.AddDevice(opts));
  }
  CollectingClient pub_app;
  ASSERT_TRUE(devices[1]->contory().RegisterCxtServer(pub_app).ok());
  ASSERT_TRUE(devices[1]
                  ->contory()
                  .PublishCxtItem(TempItem(world, 21.0, 0.2), true)
                  .ok());
  CollectingClient client;
  const auto id = devices[0]->contory().ProcessCxtQuery(
      NewQuery(world.sim(),
               "SELECT temperature FROM adHocNetwork(1,1) DURATION 1 min"),
      client);
  ASSERT_TRUE(id.ok());
  world.sim().ScheduleAfter(100ms,
                            [&] { devices[1]->wifi()->SetEnabled(false); });
  world.sim().ScheduleAfter(2s,
                            [&] { devices[1]->wifi()->SetEnabled(true); });
  world.RunFor(30s);
  EXPECT_TRUE(client.items.empty());
  EXPECT_FALSE(client.errors.empty());  // the timeout surfaced
}

TEST(HighSecurityTest, UnknownGpsRequiresApplicationApproval) {
  testbed::World world{920};
  auto& device = world.AddDevice({.name = "phone"});
  world.AddGps("gps-1", {3, 0});
  device.contory().access().SetMode(SecurityMode::kHigh);

  // A client that refuses every new source.
  class RefusingClient : public CollectingClient {
   public:
    bool MakeDecision(const std::string& msg) override {
      questions.push_back(msg);
      return false;
    }
    std::vector<std::string> questions;
  };
  RefusingClient refuser;
  const auto id = device.contory().ProcessCxtQuery(
      NewQuery(world.sim(),
               "SELECT location FROM intSensor DURATION 2 min EVERY 5 sec"),
      refuser);
  ASSERT_TRUE(id.ok());
  world.RunFor(1min);
  EXPECT_FALSE(refuser.questions.empty());
  EXPECT_TRUE(refuser.items.empty());  // blocked source, no data

  // An approving client on the same device: source was remembered as
  // blocked, so the controller fails closed for everyone.
  EXPECT_TRUE(device.contory().access().IsBlocked("bt:gps-1"));
}

TEST(HighSecurityTest, ApprovedGpsDelivers) {
  testbed::World world{921};
  auto& device = world.AddDevice({.name = "phone"});
  world.AddGps("gps-1", {3, 0});
  device.contory().access().SetMode(SecurityMode::kHigh);
  CollectingClient approver;  // MakeDecision returns true by default
  const auto id = device.contory().ProcessCxtQuery(
      NewQuery(world.sim(),
               "SELECT location FROM intSensor DURATION 2 min EVERY 5 sec"),
      approver);
  ASSERT_TRUE(id.ok());
  world.RunFor(1min);
  EXPECT_FALSE(approver.items.empty());
}

TEST(MobilityTest, PeerLeavingRangeFailsOverToInfra) {
  testbed::World world{930};
  testbed::DeviceOptions opts;
  opts.name = "requester";
  opts.infra_address = "infra.fi";
  auto& device = world.AddDevice(opts);
  auto& server = world.AddContextServer("infra.fi");
  server.StoreDirect({TempItem(world, 25.0, 0.3), "remote", std::nullopt});

  testbed::DeviceOptions pub_opts;
  pub_opts.name = "walker";
  pub_opts.position = {5, 0};
  auto& walker = world.AddDevice(pub_opts);
  CollectingClient pub_app;
  ASSERT_TRUE(walker.contory().RegisterCxtServer(pub_app).ok());
  sim::PeriodicTask republish{world.sim(), 5s, [&] {
    (void)walker.contory().PublishCxtItem(TempItem(world, 19.0, 0.3), true);
  }};

  CollectingClient client;
  const auto id = device.contory().ProcessCxtQuery(
      NewQuery(world.sim(),
               "SELECT temperature DURATION 10 min EVERY 10 sec"),
      client);
  ASSERT_TRUE(id.ok());
  world.RunFor(1min);
  // Ad hoc (BT) provisioning was chosen (no internal sensor).
  ASSERT_TRUE(device.contory()
                  .CurrentMechanisms(*id)
                  .contains(query::SourceSel::kAdHocNetwork));

  // The walker strolls out of BT range.
  walker.MoveTo({500, 0});
  world.RunFor(2min);
  // Contory failed over to the infrastructure and kept delivering.
  EXPECT_TRUE(device.contory()
                  .CurrentMechanisms(*id)
                  .contains(query::SourceSel::kExtInfra));
  EXPECT_EQ(client.items.back().source.kind, SourceKind::kExtInfra);
}

TEST(AdmissionFloodTest, RunawayFindersAreRejectedNotFatal) {
  // Flood one node with more finders than its admission manager allows;
  // the node must stay functional.
  testbed::World world{940};
  std::vector<testbed::Device*> devices;
  for (int i = 0; i < 2; ++i) {
    testbed::DeviceOptions opts;
    opts.name = "comm-" + std::to_string(i);
    opts.profile = phone::Nokia9500();
    opts.position = {i * 80.0, 0};
    opts.with_bt = false;
    opts.with_wifi = true;
    opts.with_cellular = false;
    devices.push_back(&world.AddDevice(opts));
  }
  CollectingClient pub_app;
  ASSERT_TRUE(devices[1]->contory().RegisterCxtServer(pub_app).ok());
  ASSERT_TRUE(devices[1]
                  ->contory()
                  .PublishCxtItem(TempItem(world, 21.0, 0.2), true)
                  .ok());

  sm::SmRuntime* target = devices[1]->sm();
  const auto before_rejected = target->rejected();
  // Saturate: inject far more resident SMs than max_resident.
  for (int i = 0; i < 64; ++i) {
    sm::SmartMessage sm;
    sm.id = "flood-" + std::to_string(i);
    sm.code_brick = kFinderBrick;
    sm.origin = devices[0]->node();
    FinderState state;
    state.query = NewQuery(world.sim(),
                           "SELECT temperature FROM adHocNetwork(1,1) "
                           "DURATION 1 min");
    sm.data = state.Encode();
    (void)target->Inject(std::move(sm));
  }
  EXPECT_GT(target->rejected(), before_rejected);
  world.RunFor(10s);

  // The node still answers a legitimate query afterwards.
  CollectingClient client;
  const auto id = devices[0]->contory().ProcessCxtQuery(
      NewQuery(world.sim(),
               "SELECT temperature FROM adHocNetwork(1,1) DURATION 1 min"),
      client);
  ASSERT_TRUE(id.ok());
  world.RunFor(30s);
  EXPECT_EQ(client.items.size(), 1u);
}

}  // namespace
}  // namespace contory::core
