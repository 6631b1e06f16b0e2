// Integration tests for the ContextFactory: the paper's public interface,
// transparent mechanism selection, publishing, remote storage,
// control-policy enforcement, and per-query DURATION under merging,
// cancellation and degraded mode.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/contory.hpp"
#include "testbed/testbed.hpp"

namespace contory::core {
namespace {

using namespace std::chrono_literals;
using testbed::NewQuery;

TEST(FactoryTest, RequiredServicesEnforced) {
  DeviceServices services;  // all null
  EXPECT_THROW(ContextFactory{services}, std::invalid_argument);
}

TEST(FactoryTest, ContoryRuntimePowerAccounted) {
  testbed::World world{100};
  auto& device = world.AddDevice({});
  // base 5.75 + BT scan 2.72 + Contory 1.64 = 10.11 mW, the paper's number.
  EXPECT_NEAR(device.phone().energy().CurrentPowerMilliwatts(), 10.11, 1e-6);
}

TEST(FactoryTest, InvalidQueryRejectedAtSubmission) {
  testbed::World world{101};
  auto& device = world.AddDevice({});
  CollectingClient client;
  query::CxtQuery bad;  // no SELECT/DURATION
  EXPECT_FALSE(device.contory().ProcessCxtQuery(bad, client).ok());
}

TEST(FactoryTest, AssignsIdWhenMissing) {
  testbed::World world{102};
  testbed::DeviceOptions opts;
  opts.internal_sensors = {vocab::kTemperature};
  auto& device = world.AddDevice(opts);
  CollectingClient client;
  auto q = NewQuery(world.sim(),
                    "SELECT temperature DURATION 1 min EVERY 10 sec");
  q.id.clear();
  const auto id = device.contory().ProcessCxtQuery(q, client);
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(id->empty());
}

TEST(FactoryTest, AutoSelectionPrefersInternalSensor) {
  testbed::World world{103};
  testbed::DeviceOptions opts;
  opts.internal_sensors = {vocab::kTemperature};
  opts.infra_address = "infra.fi";
  auto& device = world.AddDevice(opts);
  world.AddContextServer("infra.fi");
  CollectingClient client;
  const auto id = device.contory().ProcessCxtQuery(
      NewQuery(world.sim(), "SELECT temperature DURATION 1 min EVERY 10 sec"),
      client);
  ASSERT_TRUE(id.ok());
  const auto mechanisms = device.contory().CurrentMechanisms(*id);
  ASSERT_EQ(mechanisms.size(), 1u);
  EXPECT_TRUE(mechanisms.contains(query::SourceSel::kIntSensor));
}

TEST(FactoryTest, AutoSelectionFallsBackToAdHocThenInfra) {
  testbed::World world{104};
  testbed::DeviceOptions opts;
  opts.infra_address = "infra.fi";  // no internal sensors
  auto& device = world.AddDevice(opts);
  world.AddContextServer("infra.fi");
  CollectingClient client;
  // No local humidity sensor, BT present: ad hoc is chosen.
  const auto id = device.contory().ProcessCxtQuery(
      NewQuery(world.sim(), "SELECT humidity DURATION 1 min EVERY 10 sec"),
      client);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(device.contory()
                  .CurrentMechanisms(*id)
                  .contains(query::SourceSel::kAdHocNetwork));

  // Without BT (and without WiFi), only the infrastructure remains.
  testbed::DeviceOptions no_radios;
  no_radios.name = "phone-B";
  no_radios.with_bt = false;
  no_radios.infra_address = "infra.fi";
  auto& device_b = world.AddDevice(no_radios);
  const auto id_b = device_b.contory().ProcessCxtQuery(
      NewQuery(world.sim(), "SELECT humidity DURATION 1 min EVERY 10 sec"),
      client);
  ASSERT_TRUE(id_b.ok());
  EXPECT_TRUE(device_b.contory()
                  .CurrentMechanisms(*id_b)
                  .contains(query::SourceSel::kExtInfra));
}

TEST(FactoryTest, NoMechanismAvailableFails) {
  testbed::World world{105};
  testbed::DeviceOptions opts;
  opts.with_bt = false;
  opts.with_cellular = false;
  auto& device = world.AddDevice(opts);
  CollectingClient client;
  const auto id = device.contory().ProcessCxtQuery(
      NewQuery(world.sim(), "SELECT humidity DURATION 1 min"), client);
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kUnavailable);
}

TEST(FactoryTest, CancelStopsDeliveries) {
  testbed::World world{106};
  testbed::DeviceOptions opts;
  opts.internal_sensors = {vocab::kTemperature};
  auto& device = world.AddDevice(opts);
  CollectingClient client;
  const auto id = device.contory().ProcessCxtQuery(
      NewQuery(world.sim(), "SELECT temperature DURATION 1 hour EVERY 5 sec"),
      client);
  ASSERT_TRUE(id.ok());
  world.RunFor(20s);
  const auto before = client.items.size();
  EXPECT_GT(before, 0u);
  device.contory().CancelCxtQuery(*id);
  world.RunFor(1min);
  EXPECT_EQ(client.items.size(), before);
  EXPECT_EQ(device.contory().queries().active_count(), 0u);
}

TEST(FactoryTest, PublishRequiresRegistration) {
  testbed::World world{107};
  auto& device = world.AddDevice({});
  CxtItem item;
  item.id = "i-1";
  item.type = vocab::kTemperature;
  item.value = 14.0;
  item.timestamp = world.Now();
  EXPECT_EQ(device.contory().PublishCxtItem(item, true).code(),
            StatusCode::kPermissionDenied);

  CollectingClient server;
  ASSERT_TRUE(device.contory().RegisterCxtServer(server).ok());
  EXPECT_TRUE(device.contory().PublishCxtItem(item, true).ok());
  world.RunFor(1s);  // BT SDDB registration takes ~140 ms
  EXPECT_TRUE(device.contory().publisher().IsPublished(item.type));

  // Deregistration and duplicate registration behave sanely.
  EXPECT_EQ(device.contory().RegisterCxtServer(server).code(),
            StatusCode::kAlreadyExists);
  device.contory().DeregisterCxtServer(server);
  EXPECT_EQ(device.contory().PublishCxtItem(item, true).code(),
            StatusCode::kPermissionDenied);
}

TEST(FactoryTest, UnpublishWithdraws) {
  testbed::World world{108};
  auto& device = world.AddDevice({});
  CollectingClient server;
  ASSERT_TRUE(device.contory().RegisterCxtServer(server).ok());
  CxtItem item;
  item.id = "i-1";
  item.type = vocab::kWind;
  item.value = 6.0;
  item.timestamp = world.Now();
  ASSERT_TRUE(device.contory().PublishCxtItem(item, true).ok());
  world.RunFor(1s);
  ASSERT_TRUE(device.contory().PublishCxtItem(item, false).ok());
  EXPECT_FALSE(device.contory().publisher().IsPublished(item.type));
}

TEST(FactoryTest, StoreCxtItemReachesInfrastructure) {
  testbed::World world{109};
  testbed::DeviceOptions opts;
  opts.infra_address = "infra.fi";
  auto& device = world.AddDevice(opts);
  auto& server = world.AddContextServer("infra.fi");
  CxtItem item;
  item.id = "i-1";
  item.type = vocab::kTemperature;
  item.value = 14.0;
  item.timestamp = world.Now();
  device.contory().StoreCxtItem(item);
  world.RunFor(30s);
  EXPECT_EQ(server.stored_count(), 1u);
  // Local repository also keeps it.
  EXPECT_TRUE(device.contory().repository().Latest(item.type).ok());
}

TEST(FactoryTest, QueryMergingAcrossApplications) {
  // "One ContextFactory is instantiated on each device and made
  // accessible to multiple applications": two clients, same query type,
  // one provider underneath.
  testbed::World world{110};
  testbed::DeviceOptions opts;
  opts.internal_sensors = {vocab::kTemperature};
  auto& device = world.AddDevice(opts);
  CollectingClient app1, app2;
  ASSERT_TRUE(device.contory()
                  .ProcessCxtQuery(NewQuery(world.sim(),
                                            "SELECT temperature FROM intSensor "
                                            "DURATION 10 min EVERY 10 sec"),
                                   app1)
                  .ok());
  ASSERT_TRUE(device.contory()
                  .ProcessCxtQuery(NewQuery(world.sim(),
                                            "SELECT temperature FROM intSensor "
                                            "DURATION 10 min EVERY 20 sec"),
                                   app2)
                  .ok());
  EXPECT_EQ(device.contory()
                .facade(query::SourceSel::kIntSensor)
                .active_provider_count(),
            1u);
  world.RunFor(1min);
  EXPECT_GT(app1.items.size(), 0u);
  EXPECT_GT(app2.items.size(), 0u);
  // The faster query sees at least as many items.
  EXPECT_GE(app1.items.size(), app2.items.size());
}

TEST(FactoryTest, ReducePowerPolicySuspendsInfraQueries) {
  testbed::World world{111};
  testbed::DeviceOptions opts;
  opts.infra_address = "infra.fi";
  auto& device = world.AddDevice(opts);
  world.AddContextServer("infra.fi");
  CollectingClient client;
  const auto id = device.contory().ProcessCxtQuery(
      NewQuery(world.sim(),
               "SELECT temperature FROM extInfra DURATION 1 hour EVERY 30 sec"),
      client);
  ASSERT_TRUE(id.ok());
  world.RunFor(10s);
  ASSERT_EQ(device.contory()
                .facade(query::SourceSel::kExtInfra)
                .active_provider_count(),
            1u);

  // Drain the battery below 20% and add the paper's example rule.
  device.phone().energy().AddEnergyJoules(11'000.0);
  ContextRule rule;
  rule.name = "battery-low";
  rule.condition =
      RuleExpr::Leaf({"batteryLevel", RuleOp::kEqual, CxtValue{"low"}});
  rule.action = RuleAction::kReducePower;
  device.contory().AddControlPolicy(rule);
  world.RunFor(10s);
  EXPECT_TRUE(device.contory().active_actions().contains(
      RuleAction::kReducePower));
  EXPECT_EQ(device.contory()
                .facade(query::SourceSel::kExtInfra)
                .active_provider_count(),
            0u);
  EXPECT_FALSE(client.errors.empty());
}

TEST(FactoryTest, ReduceMemoryPolicyShrinksRepository) {
  testbed::World world{112};
  testbed::DeviceOptions opts;
  opts.internal_sensors = {vocab::kTemperature};
  auto& device = world.AddDevice(opts);
  const std::size_t before =
      device.contory().repository().capacity_per_type();
  ContextRule rule;
  rule.condition =
      RuleExpr::Leaf({"batteryPercent", RuleOp::kLessThan, CxtValue{101.0}});
  rule.action = RuleAction::kReduceMemory;
  device.contory().AddControlPolicy(rule);
  world.RunFor(10s);
  EXPECT_EQ(device.contory().repository().capacity_per_type(), before / 2);
}

TEST(FactoryTest, ItemsLandInRepository) {
  testbed::World world{113};
  testbed::DeviceOptions opts;
  opts.internal_sensors = {vocab::kLight};
  auto& device = world.AddDevice(opts);
  CollectingClient client;
  ASSERT_TRUE(device.contory()
                  .ProcessCxtQuery(NewQuery(world.sim(),
                                            "SELECT light DURATION 1 min "
                                            "EVERY 10 sec"),
                                   client)
                  .ok());
  world.RunFor(30s);
  EXPECT_TRUE(device.contory().repository().Latest(vocab::kLight).ok());
}

TEST(FactoryTest, RepositoryStoresEachProviderItemOnce) {
  // Eight merged queries share one provider; each sampling round is one
  // observation, so it is written through to the repository once, not
  // once per matching query.
  testbed::World world{114};
  testbed::DeviceOptions opts;
  opts.internal_sensors = {vocab::kTemperature};
  auto& device = world.AddDevice(opts);
  std::vector<CollectingClient> clients(8);
  for (CollectingClient& client : clients) {
    ASSERT_TRUE(device.contory()
                    .ProcessCxtQuery(NewQuery(world.sim(),
                                              "SELECT temperature FROM "
                                              "intSensor DURATION 10 min "
                                              "EVERY 10 sec"),
                                     client)
                    .ok());
  }
  ASSERT_EQ(device.contory()
                .facade(query::SourceSel::kIntSensor)
                .active_provider_count(),
            1u);
  world.RunFor(1min);

  // The first query saw every round: its first sample arrived at its own
  // submission, before the other seven merged in.
  const std::size_t rounds = clients[0].items.size();
  ASSERT_GT(rounds, 1u);
  for (std::size_t i = 1; i < clients.size(); ++i) {
    EXPECT_EQ(clients[i].items.size(), rounds - 1) << i;
  }
  const CxtRepository& repository = device.contory().repository();
  ASSERT_LT(rounds, repository.capacity_per_type());  // nothing evicted
  const std::vector<CxtItem> recent = repository.Recent(vocab::kTemperature);
  std::set<std::string> ids;
  for (const CxtItem& item : recent) ids.insert(item.id);
  EXPECT_EQ(ids.size(), recent.size()) << "duplicate item ids stored";
  EXPECT_EQ(recent.size(), rounds);
  EXPECT_EQ(repository.size(), rounds);  // the reduceMemory gauge
}

// --- DURATION is anchored at submission, per original ----------------------

/// When `id` reached DONE, relative to the epoch; -1 s if it has not.
SimDuration FinishedAt(const QueryTable& table, const std::string& id) {
  for (const QueryTable::Completion& c : table.completions()) {
    if (c.id == id) return c.at - kSimEpoch;
  }
  return -1s;
}

TEST(FactoryTest, MergedQueryEndsAtItsOwnDuration) {
  // A 10-min query merged with a peer at minute 5 reaches DONE at minute
  // 10 and hears nothing after it; the peer keeps the shared provider
  // until its own minute 15.
  testbed::World world{115};
  testbed::DeviceOptions opts;
  opts.internal_sensors = {vocab::kTemperature};
  auto& device = world.AddDevice(opts);
  ContextFactory& factory = device.contory();
  const char* text =
      "SELECT temperature FROM intSensor DURATION 10 min EVERY 10 sec";
  CollectingClient first_client, peer_client;
  const auto first =
      factory.ProcessCxtQuery(NewQuery(world.sim(), text), first_client);
  ASSERT_TRUE(first.ok());
  world.RunFor(5min);
  const auto peer =
      factory.ProcessCxtQuery(NewQuery(world.sim(), text), peer_client);
  ASSERT_TRUE(peer.ok());
  ASSERT_EQ(factory.active_provider_count(), 1u);  // merged

  world.RunFor(5min + 1s);
  EXPECT_EQ(FinishedAt(factory.queries(), *first), SimDuration{10min});
  EXPECT_EQ(first_client.items.size(), 60u);  // t = 0, 10, ..., 590 s
  EXPECT_NE(factory.queries().Find(*peer), nullptr);
  EXPECT_EQ(factory.active_provider_count(), 1u);

  world.RunFor(10min);
  EXPECT_EQ(first_client.items.size(), 60u);
  EXPECT_EQ(FinishedAt(factory.queries(), *peer), SimDuration{15min});
  EXPECT_EQ(factory.active_provider_count(), 0u);
  EXPECT_EQ(factory.queries().invalid_transitions(), 0u);
}

TEST(FactoryTest, PeerCancelKeepsSurvivorDuration) {
  // Cancelling a peer at minute 50 re-merges the cluster; the 1-h
  // survivor still finishes at minute 60.
  testbed::World world{116};
  testbed::DeviceOptions opts;
  opts.internal_sensors = {vocab::kTemperature};
  auto& device = world.AddDevice(opts);
  ContextFactory& factory = device.contory();
  CollectingClient survivor_client, peer_client;
  const auto survivor = factory.ProcessCxtQuery(
      NewQuery(world.sim(),
               "SELECT temperature FROM intSensor DURATION 1 hour "
               "EVERY 30 sec"),
      survivor_client);
  ASSERT_TRUE(survivor.ok());
  world.RunFor(1min);
  const auto peer = factory.ProcessCxtQuery(
      NewQuery(world.sim(),
               "SELECT temperature FROM intSensor DURATION 2 hour "
               "EVERY 10 sec"),
      peer_client);
  ASSERT_TRUE(peer.ok());
  ASSERT_EQ(factory.active_provider_count(), 1u);  // merged
  world.RunFor(49min);
  factory.CancelCxtQuery(*peer);

  world.RunFor(1h);
  EXPECT_EQ(FinishedAt(factory.queries(), *survivor), SimDuration{60min});
  EXPECT_EQ(factory.queries().active_count(), 0u);
  EXPECT_EQ(factory.active_provider_count(), 0u);
}

TEST(FactoryTest, DegradedQueryFinishesAtItsDeadline) {
  // The only sensor fails with the repository warm: the query is served
  // stale every 7 s and still ends at its 2-min deadline, not at the
  // first degraded poll after it.
  testbed::World world{117};
  testbed::DeviceOptions opts;
  opts.name = "phone-A";
  opts.with_bt = false;
  opts.with_wifi = false;
  opts.with_cellular = false;
  opts.internal_sensors = {vocab::kTemperature};
  auto& device = world.AddDevice(opts);
  ContextFactory& factory = device.contory();
  CollectingClient client;
  const auto id = factory.ProcessCxtQuery(
      NewQuery(world.sim(),
               "SELECT temperature FROM intSensor DURATION 2 min "
               "EVERY 7 sec"),
      client);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(world.injector()
                  .ExecuteText("at=30s sensor.fail temperature@phone-A\n")
                  .ok());
  world.RunFor(1min);
  ASSERT_TRUE(factory.IsDegraded(*id));

  world.RunFor(2min);
  EXPECT_EQ(FinishedAt(factory.queries(), *id), SimDuration{2min});
  ASSERT_FALSE(factory.queries().completions().empty());
  EXPECT_EQ(factory.queries().completions().back().from,
            QueryState::kDegraded);
}

TEST(FactoryTest, MergedInfraQueriesLeaveNoServerRegistration) {
  // Two merged extInfra queries register once at the server under the
  // first one's id; cancelling both, first one first, must cancel that
  // registration.
  testbed::World world{118};
  testbed::DeviceOptions opts;
  opts.infra_address = "infra.fi";
  auto& device = world.AddDevice(opts);
  infra::ContextServer& server = world.AddContextServer("infra.fi");
  ContextFactory& factory = device.contory();
  const char* text =
      "SELECT temperature FROM extInfra DURATION 1 hour EVERY 10 sec";
  CollectingClient client;
  const auto a = factory.ProcessCxtQuery(NewQuery(world.sim(), text), client);
  const auto b = factory.ProcessCxtQuery(NewQuery(world.sim(), text), client);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(factory.active_provider_count(), 1u);  // merged
  world.RunFor(30s);
  ASSERT_EQ(server.active_query_count(), 1u);

  factory.CancelCxtQuery(*a);
  world.RunFor(10s);
  EXPECT_EQ(server.active_query_count(), 1u);  // b still served
  factory.CancelCxtQuery(*b);
  world.RunFor(10s);
  EXPECT_EQ(server.active_query_count(), 0u);
}

TEST(FactoryTest, MergedInfraPeerOutlivesTheFirstDuration) {
  // The cluster registers at the server with the first query's DURATION.
  // A peer that merges in later with a later deadline must keep
  // receiving pushes after the first query has ended.
  testbed::World world{119};
  testbed::DeviceOptions opts;
  opts.infra_address = "infra.fi";
  auto& device = world.AddDevice(opts);
  infra::ContextServer& server = world.AddContextServer("infra.fi");
  CxtItem reading;
  reading.id = "remote-temperature";
  reading.type = vocab::kTemperature;
  reading.value = 21.0;
  server.StoreDirect({reading, "remote", std::nullopt});
  ContextFactory& factory = device.contory();
  CollectingClient first;
  CollectingClient peer;
  const auto a = factory.ProcessCxtQuery(
      NewQuery(world.sim(),
               "SELECT temperature FROM extInfra DURATION 10 min EVERY 10 sec"),
      first);
  ASSERT_TRUE(a.ok());
  world.RunFor(5min);
  const auto b = factory.ProcessCxtQuery(
      NewQuery(world.sim(),
               "SELECT temperature FROM extInfra DURATION 20 min EVERY 10 sec"),
      peer);
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(factory.active_provider_count(), 1u);  // merged

  world.RunFor(6min);  // minute 11: the first query is over
  EXPECT_EQ(factory.queries().Find(*a), nullptr);
  const std::size_t at_minute_11 = peer.items.size();
  world.RunFor(4min);  // minute 15
  EXPECT_EQ(server.active_query_count(), 1u);
  EXPECT_GE(peer.items.size(), at_minute_11 + 20);  // one push per 10 s

  world.RunFor(11min);  // minute 26: the peer ended at minute 25
  EXPECT_EQ(factory.queries().Find(*b), nullptr);
  EXPECT_EQ(server.active_query_count(), 0u);
}

}  // namespace
}  // namespace contory::core
