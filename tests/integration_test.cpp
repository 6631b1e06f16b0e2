// End-to-end integration tests across the full stack: multi-node ad hoc
// provisioning (BT one-hop and WiFi multi-hop SM-FINDER), infrastructure
// queries over UMTS, and multi-mechanism combinations.
#include <gtest/gtest.h>

#include "core/contory.hpp"
#include "testbed/testbed.hpp"

namespace contory::core {
namespace {

using namespace std::chrono_literals;
using testbed::NewQuery;

CxtItem TempItem(testbed::World& world, double value,
                 double accuracy = 0.2) {
  CxtItem item;
  item.id = world.sim().ids().NextId("pub");
  item.type = vocab::kTemperature;
  item.value = value;
  item.timestamp = world.Now();
  item.metadata.accuracy = accuracy;
  return item;
}

TEST(BtAdHocIntegrationTest, OneHopOnDemandQuery) {
  testbed::World world{200};
  auto& requester = world.AddDevice({.name = "requester"});
  testbed::DeviceOptions pub_opts;
  pub_opts.name = "publisher";
  pub_opts.position = {5, 0};
  auto& publisher = world.AddDevice(pub_opts);

  CollectingClient pub_client;
  ASSERT_TRUE(publisher.contory().RegisterCxtServer(pub_client).ok());
  ASSERT_TRUE(
      publisher.contory().PublishCxtItem(TempItem(world, 14.5), true).ok());
  world.RunFor(1s);  // BT registration (~140 ms)

  CollectingClient client;
  const auto id = requester.contory().ProcessCxtQuery(
      NewQuery(world.sim(),
               "SELECT temperature FROM adHocNetwork DURATION 1 min"),
      client);
  ASSERT_TRUE(id.ok());
  // Inquiry 13 s + SDP 1.1 s.
  world.RunFor(30s);
  ASSERT_EQ(client.items.size(), 1u);
  EXPECT_EQ(client.items[0].value, CxtValue{14.5});
  EXPECT_EQ(client.items[0].source.kind, SourceKind::kAdHocNetwork);
  // On-demand query completed.
  EXPECT_EQ(requester.contory().queries().active_count(), 0u);
}

TEST(BtAdHocIntegrationTest, PeriodicPollsWithoutRediscovery) {
  testbed::World world{201};
  auto& requester = world.AddDevice({.name = "requester"});
  testbed::DeviceOptions pub_opts;
  pub_opts.name = "publisher";
  pub_opts.position = {5, 0};
  auto& publisher = world.AddDevice(pub_opts);
  CollectingClient pub_client;
  ASSERT_TRUE(publisher.contory().RegisterCxtServer(pub_client).ok());

  // Fresh values published every 5 s.
  sim::PeriodicTask republish{world.sim(), 5s, [&] {
    (void)publisher.contory().PublishCxtItem(TempItem(world, 15.0), true);
  }};

  CollectingClient client;
  const auto id = requester.contory().ProcessCxtQuery(
      NewQuery(
          world.sim(),
          "SELECT temperature FROM adHocNetwork DURATION 5 min EVERY 15 sec"),
      client);
  ASSERT_TRUE(id.ok());
  world.RunFor(2min);
  // Discovery once, then ~(120-15)/15 polls.
  EXPECT_GE(client.items.size(), 5u);
  // The later items came over the poll path; discovery (5+ J) happened
  // once — check the inquiry energy signature loosely via total energy.
  const double joules =
      requester.phone().energy().TotalEnergyJoules();
  EXPECT_LT(joules, 12.0);  // two discoveries would already exceed this
}

TEST(BtAdHocIntegrationTest, WhereFiltersAtRequester) {
  testbed::World world{202};
  auto& requester = world.AddDevice({.name = "requester"});
  testbed::DeviceOptions pub_opts;
  pub_opts.name = "publisher";
  pub_opts.position = {5, 0};
  auto& publisher = world.AddDevice(pub_opts);
  CollectingClient pub_client;
  ASSERT_TRUE(publisher.contory().RegisterCxtServer(pub_client).ok());
  ASSERT_TRUE(publisher.contory()
                  .PublishCxtItem(TempItem(world, 14.5, /*accuracy=*/0.9),
                                  true)
                  .ok());
  world.RunFor(1s);

  CollectingClient client;
  const auto id = requester.contory().ProcessCxtQuery(
      NewQuery(world.sim(),
               "SELECT temperature FROM adHocNetwork WHERE accuracy<=0.3 "
               "DURATION 1 min"),
      client);
  ASSERT_TRUE(id.ok());
  world.RunFor(30s);
  EXPECT_TRUE(client.items.empty());  // 0.9 accuracy fails the filter
}

class WifiLineTest : public ::testing::Test {
 protected:
  WifiLineTest() : world_(203) {
    // Three communicators in a line, 80 m apart: the paper's 2-hop
    // topology.
    for (int i = 0; i < 3; ++i) {
      testbed::DeviceOptions opts;
      opts.name = "comm-" + std::to_string(i);
      opts.profile = phone::Nokia9500();
      opts.position = {i * 80.0, 0};
      opts.with_bt = false;  // isolate the WiFi path
      opts.with_wifi = true;
      opts.with_cellular = false;
      devices_.push_back(&world_.AddDevice(opts));
    }
  }

  testbed::World world_;
  std::vector<testbed::Device*> devices_;
  CollectingClient pub_client_;
};

TEST_F(WifiLineTest, TwoHopSmFinderRoundTrip) {
  // comm-2 (two hops away) publishes; comm-0 queries with numHops=2.
  ASSERT_TRUE(devices_[2]->contory().RegisterCxtServer(pub_client_).ok());
  CxtItem item;
  item.id = "remote-1";
  item.type = vocab::kTemperature;
  item.value = 19.5;
  item.timestamp = world_.Now();
  item.metadata.accuracy = 0.2;
  ASSERT_TRUE(devices_[2]->contory().PublishCxtItem(item, true).ok());

  CollectingClient client;
  const SimTime start = world_.Now();
  const auto id = devices_[0]->contory().ProcessCxtQuery(
      NewQuery(world_.sim(),
               "SELECT temperature FROM adHocNetwork(1,2) DURATION 1 min"),
      client);
  ASSERT_TRUE(id.ok());
  world_.RunFor(30s);
  ASSERT_EQ(client.items.size(), 1u);
  EXPECT_EQ(client.items[0].value, CxtValue{19.5});
  EXPECT_EQ(client.items[0].source.address, "node:" +
                                                std::to_string(
                                                    devices_[2]->node()));
  (void)start;
}

TEST_F(WifiLineTest, HopBudgetDiscardsTooDistantResults) {
  // Same layout but numHops=1: the publisher at 2 hops is out of range of
  // interest; the round comes back empty/times out.
  ASSERT_TRUE(devices_[2]->contory().RegisterCxtServer(pub_client_).ok());
  CxtItem item;
  item.id = "remote-1";
  item.type = vocab::kTemperature;
  item.value = 19.5;
  item.timestamp = world_.Now();
  ASSERT_TRUE(devices_[2]->contory().PublishCxtItem(item, true).ok());

  CollectingClient client;
  const auto id = devices_[0]->contory().ProcessCxtQuery(
      NewQuery(world_.sim(),
               "SELECT temperature FROM adHocNetwork(1,1) DURATION 1 min"),
      client);
  ASSERT_TRUE(id.ok());
  world_.RunFor(1min);
  EXPECT_TRUE(client.items.empty());
}

TEST_F(WifiLineTest, CollectsFromMultipleNodes) {
  // comm-1 and comm-2 both publish; ask for all nodes within 2 hops.
  for (int i : {1, 2}) {
    ASSERT_TRUE(devices_[static_cast<std::size_t>(i)]
                    ->contory()
                    .RegisterCxtServer(pub_client_)
                    .ok());
    CxtItem item;
    item.id = "pub-" + std::to_string(i);
    item.type = vocab::kTemperature;
    item.value = 10.0 + i;
    item.timestamp = world_.Now();
    ASSERT_TRUE(devices_[static_cast<std::size_t>(i)]
                    ->contory()
                    .PublishCxtItem(item, true)
                    .ok());
  }
  CollectingClient client;
  const auto id = devices_[0]->contory().ProcessCxtQuery(
      NewQuery(world_.sim(),
               "SELECT temperature FROM adHocNetwork(all,2) DURATION 1 min"),
      client);
  ASSERT_TRUE(id.ok());
  world_.RunFor(1min);
  EXPECT_EQ(client.items.size(), 2u);
}

TEST_F(WifiLineTest, PeriodicRoundsKeepCollecting) {
  ASSERT_TRUE(devices_[1]->contory().RegisterCxtServer(pub_client_).ok());
  sim::PeriodicTask republish{world_.sim(), 5s, [&] {
    CxtItem item;
    item.id = world_.sim().ids().NextId("pub");
    item.type = vocab::kWind;
    item.value = 6.0;
    item.timestamp = world_.Now();
    (void)devices_[1]->contory().PublishCxtItem(item, true);
  }};
  CollectingClient client;
  const auto id = devices_[0]->contory().ProcessCxtQuery(
      NewQuery(
          world_.sim(),
          "SELECT wind FROM adHocNetwork(all,1) DURATION 3 min EVERY 20 sec"),
      client);
  ASSERT_TRUE(id.ok());
  world_.RunFor(3min + 5s);
  EXPECT_GE(client.items.size(), 6u);
  EXPECT_EQ(devices_[0]->contory().queries().active_count(), 0u);  // expired
}

TEST(InfraIntegrationTest, OnDemandQueryOverUmts) {
  testbed::World world{204};
  testbed::DeviceOptions opts;
  opts.infra_address = "infra.dynamos.fi";
  auto& device = world.AddDevice(opts);
  auto& server = world.AddContextServer("infra.dynamos.fi");
  server.StoreDirect({TempItem(world, 22.0), "boat-7",
                      GeoPoint{60.15, 24.90}});

  CollectingClient client;
  const auto id = device.contory().ProcessCxtQuery(
      NewQuery(world.sim(), "SELECT temperature FROM extInfra DURATION 1 min"),
      client);
  ASSERT_TRUE(id.ok());
  world.RunFor(30s);
  ASSERT_EQ(client.items.size(), 1u);
  EXPECT_EQ(client.items[0].source.kind, SourceKind::kExtInfra);
  EXPECT_EQ(client.items[0].source.address, "infra.dynamos.fi");
}

TEST(InfraIntegrationTest, PeriodicRegistrationPushes) {
  testbed::World world{205};
  testbed::DeviceOptions opts;
  opts.infra_address = "infra.dynamos.fi";
  auto& device = world.AddDevice(opts);
  auto& server = world.AddContextServer("infra.dynamos.fi");
  server.StoreDirect({TempItem(world, 22.0), "boat-7", std::nullopt});

  CollectingClient client;
  const auto id = device.contory().ProcessCxtQuery(
      NewQuery(world.sim(),
               "SELECT temperature FROM extInfra DURATION 5 min EVERY 30 sec"),
      client);
  ASSERT_TRUE(id.ok());
  world.RunFor(3min);
  EXPECT_GE(client.items.size(), 3u);
  // Cancel tears down the server-side registration too.
  device.contory().CancelCxtQuery(*id);
  world.RunFor(1min);
  EXPECT_EQ(server.active_query_count(), 0u);
}

TEST(InfraIntegrationTest, EventQueryFiresOnCondition) {
  testbed::World world{206};
  testbed::DeviceOptions opts;
  opts.infra_address = "infra.dynamos.fi";
  auto& device = world.AddDevice(opts);
  auto& server = world.AddContextServer("infra.dynamos.fi");

  CollectingClient client;
  const auto id = device.contory().ProcessCxtQuery(
      NewQuery(world.sim(),
               "SELECT temperature FROM extInfra DURATION 10 min "
               "EVENT AVG(temperature)>25"),
      client);
  ASSERT_TRUE(id.ok());
  world.RunFor(30s);
  server.StoreDirect({TempItem(world, 20.0), "boat-1", std::nullopt});
  world.RunFor(30s);
  EXPECT_TRUE(client.items.empty());
  server.StoreDirect({TempItem(world, 35.0), "boat-2", std::nullopt});
  world.RunFor(30s);
  EXPECT_FALSE(client.items.empty());
}

TEST(MultiMechanismTest, FromListAssignsBothFacades) {
  testbed::World world{207};
  testbed::DeviceOptions opts;
  opts.name = "requester";
  opts.infra_address = "infra.dynamos.fi";
  auto& device = world.AddDevice(opts);
  auto& server = world.AddContextServer("infra.dynamos.fi");
  server.StoreDirect({TempItem(world, 21.0), "remote-boat", std::nullopt});

  testbed::DeviceOptions pub_opts;
  pub_opts.name = "neighbor";
  pub_opts.position = {5, 0};
  auto& neighbor = world.AddDevice(pub_opts);
  CollectingClient pub_client;
  ASSERT_TRUE(neighbor.contory().RegisterCxtServer(pub_client).ok());
  ASSERT_TRUE(
      neighbor.contory().PublishCxtItem(TempItem(world, 14.0), true).ok());

  CollectingClient client;
  const auto id = device.contory().ProcessCxtQuery(
      NewQuery(world.sim(),
               "SELECT temperature FROM adHocNetwork, extInfra DURATION 2 min"),
      client);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(device.contory().CurrentMechanisms(*id).size(), 2u);
  world.RunFor(1min);
  // Results from both mechanisms (ad hoc 14.0 and infra 21.0).
  ASSERT_GE(client.items.size(), 2u);
  std::set<SourceKind> kinds;
  for (const auto& item : client.items) kinds.insert(item.source.kind);
  EXPECT_TRUE(kinds.contains(SourceKind::kAdHocNetwork));
  EXPECT_TRUE(kinds.contains(SourceKind::kExtInfra));
}

TEST(AuthenticatedAccessTest, LockedTagNeedsKey) {
  testbed::World world{208};
  testbed::DeviceOptions a;
  a.name = "a";
  a.with_bt = false;
  a.with_wifi = true;
  a.with_cellular = false;
  a.profile = phone::Nokia9500();
  auto& requester = world.AddDevice(a);
  testbed::DeviceOptions b = a;
  b.name = "b";
  b.position = {50, 0};
  auto& publisher = world.AddDevice(b);

  CollectingClient pub_client;
  ASSERT_TRUE(publisher.contory().RegisterCxtServer(pub_client).ok());
  CxtItem item;
  item.id = "secret-1";
  item.type = vocab::kLocation;
  item.value = GeoPoint{60.15, 24.9};
  item.timestamp = world.Now();
  ASSERT_TRUE(
      publisher.contory().PublishCxtItem(item, true, "sesame").ok());

  // A finder without the key cannot read the locked tag.
  CollectingClient client;
  const auto id = requester.contory().ProcessCxtQuery(
      NewQuery(world.sim(),
               "SELECT location FROM adHocNetwork(1,1) DURATION 30 sec"),
      client);
  ASSERT_TRUE(id.ok());
  world.RunFor(1min);
  EXPECT_TRUE(client.items.empty());
}

}  // namespace
}  // namespace contory::core
